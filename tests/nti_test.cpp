#include "nti/nti.h"

#include <gtest/gtest.h>

#include "util/strings.h"

namespace joza::nti {
namespace {

using http::Input;
using http::InputKind;

Input Get(std::string name, std::string value) {
  return Input{InputKind::kGet, std::move(name), std::move(value)};
}

// --- Figure 2 of the paper -------------------------------------------------

TEST(Nti, Figure2A_BenignInputSafe) {
  // Part A: id=1 appears in the query but covers no critical token.
  NtiAnalyzer nti;
  auto r = nti.Analyze("SELECT * FROM data WHERE ID=1", {Get("id", "1")});
  EXPECT_FALSE(r.attack_detected);
}

TEST(Nti, Figure2B_TautologyDetected) {
  // Part B: '-1 OR 1 = 1' matches verbatim and covers the OR token.
  NtiAnalyzer nti;
  auto r = nti.Analyze("SELECT * FROM data WHERE ID=-1 OR 1=1",
                       {Get("id", "-1 OR 1=1")});
  EXPECT_TRUE(r.attack_detected);
  ASSERT_FALSE(r.tainted_critical_tokens.empty());
  bool covered_or = false;
  for (const auto& t : r.tainted_critical_tokens) {
    if (EqualsIgnoreCase(t.text, "OR")) covered_or = true;
  }
  EXPECT_TRUE(covered_or);
}

TEST(Nti, Figure2C_MagicQuoteEvasionUndetected) {
  // Part C: enough escaped quotes inside a comment block push the
  // difference ratio above the 20% threshold — attack missed.
  std::string input = "-1 OR 1=1/*'''''*/";
  std::string query = "SELECT * FROM data WHERE ID=-1 OR 1=1/*\\'\\'\\'\\'\\'*/";
  NtiAnalyzer nti;  // default threshold 0.20
  auto r = nti.Analyze(query, {Get("id", input)});
  EXPECT_FALSE(r.attack_detected)
      << "the paper's NTI evasion must succeed against NTI alone";
}

// --- Core semantics ----------------------------------------------------------

TEST(Nti, BenignEchoInsideStringLiteralSafe) {
  // User text with SQL words quoted as data: the string literal is a single
  // non-critical token, so even a verbatim echo is safe.
  NtiAnalyzer nti;
  auto r = nti.Analyze(
      "SELECT id FROM posts WHERE title LIKE '%select union or%'",
      {Get("s", "select union or")});
  EXPECT_FALSE(r.attack_detected);
}

TEST(Nti, UnionInjectionDetected) {
  NtiAnalyzer nti;
  std::string payload = "-1 UNION SELECT pass FROM wp_users";
  auto r = nti.Analyze("SELECT title FROM wp_posts WHERE id = " + payload,
                       {Get("id", payload)});
  EXPECT_TRUE(r.attack_detected);
}

TEST(Nti, ApproximateMatchStillDetects) {
  // The application trims three trailing spaces: small edit distance, the
  // ratio stays under the threshold, and the attack is still caught.
  NtiAnalyzer nti;
  std::string payload = "x' OR 1=1 -- pad pad pad";  // 24 chars in query
  std::string input = payload + "   ";               // attacker appends 3
  std::string query = "SELECT * FROM t WHERE name = '" + payload;
  auto r = nti.Analyze(query, {Get("name", input)});
  EXPECT_TRUE(r.attack_detected);  // ratio 3/24 = 0.125 < 0.20
}

TEST(Nti, ShortInputsSkipped) {
  NtiAnalyzer nti;  // min_input_length = 3
  auto r = nti.Analyze("SELECT * FROM t WHERE a = 1 OR 2", {Get("x", "OR")});
  EXPECT_FALSE(r.attack_detected);
  EXPECT_EQ(r.inputs_considered, 0u);
  EXPECT_EQ(r.inputs_skipped, 1u);
}

TEST(Nti, OverlongInputsSkipped) {
  NtiAnalyzer nti;
  std::string huge(10000, 'x');
  auto r = nti.Analyze("SELECT 1", {Get("blob", huge)});
  EXPECT_FALSE(r.attack_detected);
  EXPECT_EQ(r.inputs_skipped, 1u);
}

TEST(Nti, MarkingsFromDifferentInputsNotCombined) {
  // Payload-construction attack (Section III-A): three harmless pieces
  // concatenate into an attack, but no single input covers a critical
  // token wholly enough... q1 alone DOES cover "OR" here, so split the
  // attack so that each piece covers none.
  NtiAnalyzer nti;
  // Query built from q1="1 O" q2="R TR" q3="UE" => "1 OR TRUE"
  auto r = nti.Analyze("SELECT * FROM data WHERE ID=1 OR TRUE",
                       {Get("q1", "1 O"), Get("q2", "R TR"), Get("q3", "UE")});
  EXPECT_FALSE(r.attack_detected)
      << "split payloads evade NTI by construction (the PTI half catches "
         "them in the hybrid)";
}

TEST(Nti, InputInCookieDetected) {
  NtiAnalyzer nti;
  std::string payload = "1 OR 1=1";
  auto r = nti.Analyze(
      "SELECT * FROM sessions WHERE uid = 1 OR 1=1",
      {Input{InputKind::kCookie, "uid", payload}});
  EXPECT_TRUE(r.attack_detected);
  ASSERT_FALSE(r.markings.empty());
  EXPECT_EQ(r.markings[0].input_kind, InputKind::kCookie);
}

TEST(Nti, ThresholdZeroRequiresExactMatch) {
  NtiConfig cfg;
  cfg.threshold = 0.0;
  NtiAnalyzer nti(cfg);
  // One byte changed: no marking at threshold 0.
  auto r = nti.Analyze("SELECT * FROM t WHERE a = 1 OR 2=2",
                       {Get("a", "1 OR 2=3")});
  EXPECT_FALSE(r.attack_detected);
  // Verbatim: detected.
  r = nti.Analyze("SELECT * FROM t WHERE a = 1 OR 2=2", {Get("a", "1 OR 2=2")});
  EXPECT_TRUE(r.attack_detected);
}

TEST(Nti, HigherThresholdCatchesMoreTransformedAttacks) {
  // Numeric-context payload with 5 quotes in a comment block; magic quotes
  // escape them. Ratio = 5/(12+10) ~ 0.227: over a strict threshold,
  // under a loose one.
  std::string input = "1 OR 2=2/*'''''*/";
  std::string query =
      "SELECT * FROM t WHERE a = 1 OR 2=2/*\\'\\'\\'\\'\\'*/";
  NtiConfig strict;
  strict.threshold = 0.10;
  NtiConfig loose;
  loose.threshold = 0.50;
  auto r_strict = NtiAnalyzer(strict).Analyze(query, {Get("a", input)});
  auto r_loose = NtiAnalyzer(loose).Analyze(query, {Get("a", input)});
  EXPECT_FALSE(r_strict.attack_detected);
  EXPECT_TRUE(r_loose.attack_detected);
}

TEST(Nti, BoundedAndUnboundedAgree) {
  // The staged tier verifies with the threshold-bounded Sellers DP; the
  // reference tier runs it unbounded, with no exact fast path.
  NtiConfig bounded;
  NtiConfig unbounded;
  unbounded.tier = MatchTier::kReference;
  const std::string query =
      "SELECT * FROM t WHERE a = 'pay\\'load' AND b = 1 OR 1=1";
  const std::vector<Input> inputs = {Get("a", "pay'load"),
                                     Get("b", "1 OR 1=1")};
  auto r1 = NtiAnalyzer(bounded).Analyze(query, inputs);
  auto r2 = NtiAnalyzer(unbounded).Analyze(query, inputs);
  EXPECT_EQ(r1.attack_detected, r2.attack_detected);
  EXPECT_TRUE(r1.attack_detected);
}

TEST(Nti, NoInputsNoAttack) {
  NtiAnalyzer nti;
  auto r = nti.Analyze("SELECT * FROM t WHERE 1 = 1 OR 2 = 2", {});
  EXPECT_FALSE(r.attack_detected);
}

TEST(Nti, EmptyQuery) {
  NtiAnalyzer nti;
  auto r = nti.Analyze("", {Get("a", "abc")});
  EXPECT_FALSE(r.attack_detected);
}

TEST(Nti, MarkingMetadataPopulated) {
  NtiAnalyzer nti;
  auto r = nti.Analyze("SELECT * FROM t WHERE a = 1 OR 1=1",
                       {Get("bad", "1 OR 1=1")});
  ASSERT_EQ(r.markings.size(), 1u);
  EXPECT_EQ(r.markings[0].input_name, "bad");
  EXPECT_EQ(r.markings[0].distance, 0u);
  EXPECT_DOUBLE_EQ(r.markings[0].ratio, 0.0);
  EXPECT_EQ(r.markings[0].span.length(), 8u);
}

}  // namespace
}  // namespace joza::nti
