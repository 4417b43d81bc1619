// The staged matcher pipeline's observable behavior: stage counters, the
// per-input tier histogram, fallback conditions, and the exact stage.
#include <gtest/gtest.h>

#include <string>

#include "nti/nti.h"
#include "sqlparse/critical.h"
#include "sqlparse/lexer.h"
#include "util/rng.h"

namespace joza::nti {
namespace {

NtiConfig StagedConfig() {
  NtiConfig cfg;
  cfg.tier = MatchTier::kStaged;
  return cfg;
}

TEST(MatchTierNames, Stable) {
  EXPECT_STREQ(MatchTierName(MatchTier::kReference), "reference");
  EXPECT_STREQ(MatchTierName(MatchTier::kBounded), "bounded");
  EXPECT_STREQ(MatchTierName(MatchTier::kStaged), "staged");
}

TEST(Pipeline, ExactHitCountedAndNoDp) {
  const NtiAnalyzer nti(StagedConfig());
  const NtiResult r = nti.Analyze("SELECT * FROM t WHERE id=-1 OR 1=1",
                                  {{http::InputKind::kGet, "id", "-1 OR 1=1"}});
  EXPECT_TRUE(r.attack_detected);
  EXPECT_EQ(r.exact_hits, 1u);
  EXPECT_EQ(r.dp_runs, 0u);
  EXPECT_EQ(r.tier_staged, 1u);
  EXPECT_EQ(r.tier_bounded, 0u);
  EXPECT_EQ(r.tier_reference, 0u);
}

TEST(Pipeline, QGramSeedingRejectsDisjointInput) {
  const NtiAnalyzer nti(StagedConfig());
  // Nothing of "zzzzzzzz" occurs in the query: the seeding stage must
  // discard it before any DP runs.
  const NtiResult r = nti.Analyze("SELECT name FROM users WHERE id = 7",
                                  {{http::InputKind::kGet, "q", "zzzzzzzz"}});
  EXPECT_FALSE(r.attack_detected);
  EXPECT_EQ(r.seed_rejects, 1u);
  EXPECT_EQ(r.seed_candidates, 0u);
  EXPECT_EQ(r.dp_runs, 0u);
}

TEST(Pipeline, KernelRejectsSeedSurvivor) {
  const NtiAnalyzer nti(StagedConfig());
  // Every bigram of "abcdefgh" except bc/de/fg occurs in the query, so the
  // q-gram filter passes it — but the true distance (3 inserted spaces)
  // exceeds the threshold bound (ceil(0.2*8/0.8) = 2), which the Myers
  // kernel proves without a DP run.
  const NtiResult r = nti.Analyze("SELECT ab cd ef gh",
                                  {{http::InputKind::kGet, "q", "abcdefgh"}});
  EXPECT_FALSE(r.attack_detected);
  EXPECT_EQ(r.seed_candidates, 1u);
  EXPECT_EQ(r.kernel_rejects, 1u);
  EXPECT_EQ(r.dp_runs, 0u);
}

TEST(Pipeline, SurvivorVerifiedByDp) {
  const NtiAnalyzer nti(StagedConfig());
  // One escape backslash: distance 1 within the bound (ceil(0.2*7/0.8) =
  // 2), so the DP must run and report the true distance.
  const NtiResult r = nti.Analyze("SELECT * FROM t WHERE a = 'x\\' OR 1'",
                                  {{http::InputKind::kGet, "a", "x' OR 1"}});
  EXPECT_EQ(r.seed_candidates, 1u);
  EXPECT_EQ(r.kernel_rejects, 0u);
  EXPECT_EQ(r.dp_runs, 1u);
  ASSERT_EQ(r.markings.size(), 1u);
  EXPECT_EQ(r.markings[0].distance, 1u);
}

TEST(Pipeline, OversizedInputFallsBackToBounded) {
  const NtiAnalyzer nti(StagedConfig());
  const std::string big(80, 'a');  // > 64 bytes: no bit-parallel kernel
  const NtiResult r = nti.Analyze("SELECT " + big + " FROM t",
                                  {{http::InputKind::kGet, "q", big}});
  EXPECT_EQ(r.tier_bounded, 1u);
  EXPECT_EQ(r.tier_staged, 0u);
  EXPECT_EQ(r.exact_hits, 1u);  // the bounded tier's find fast path
}

TEST(Pipeline, NonAsciiInputFallsBackToBounded) {
  const NtiAnalyzer nti(StagedConfig());
  const NtiResult r =
      nti.Analyze("SELECT * FROM t WHERE name = 'caf\xC3\xA9 zzz'",
                  {{http::InputKind::kGet, "name", "caf\xC3\xA9 zzz"}});
  EXPECT_EQ(r.tier_bounded, 1u);
  EXPECT_EQ(r.tier_staged, 0u);
}

TEST(Pipeline, ThresholdAtOneFallsBackToBounded) {
  NtiConfig cfg = StagedConfig();
  cfg.threshold = 1.0;  // no finite bound exists
  const NtiAnalyzer nti(cfg);
  const NtiResult r = nti.Analyze("SELECT 1 FROM t",
                                  {{http::InputKind::kGet, "q", "abc"}});
  EXPECT_EQ(r.tier_bounded, 1u);
  EXPECT_EQ(r.tier_staged, 0u);
}

TEST(Pipeline, TierHistogramMatchesConfiguredTier) {
  const std::vector<http::Input> inputs = {
      {http::InputKind::kGet, "a", "alpha"},
      {http::InputKind::kGet, "b", "beta"}};
  for (MatchTier tier :
       {MatchTier::kReference, MatchTier::kBounded, MatchTier::kStaged}) {
    NtiConfig cfg;
    cfg.tier = tier;
    const NtiResult r =
        NtiAnalyzer(cfg).Analyze("SELECT alpha, beta FROM t", inputs);
    EXPECT_EQ(r.inputs_considered, 2u);
    EXPECT_EQ(r.tier_reference + r.tier_bounded + r.tier_staged, 2u);
    switch (tier) {
      case MatchTier::kReference: EXPECT_EQ(r.tier_reference, 2u); break;
      case MatchTier::kBounded: EXPECT_EQ(r.tier_bounded, 2u); break;
      case MatchTier::kStaged: EXPECT_EQ(r.tier_staged, 2u); break;
    }
  }
}

TEST(Pipeline, MultiPatternExactStageResolvesManyInputs) {
  // A long query with many eligible inputs that all occur verbatim: every
  // one must resolve in the exact stage, zero DP runs.
  Rng rng(5);
  std::vector<http::Input> inputs;
  std::string query = "SELECT ";
  for (int i = 0; i < 8; ++i) {
    const std::string value = rng.NextToken(6);
    inputs.push_back({http::InputKind::kGet, "p" + std::to_string(i), value});
    query += value + ", ";
  }
  query += "filler FROM t WHERE pad = '" + std::string(400, 'x') + "'";

  NtiConfig cfg = StagedConfig();
  const NtiResult r = NtiAnalyzer(cfg).Analyze(query, inputs);
  EXPECT_EQ(r.inputs_considered, 8u);
  EXPECT_EQ(r.exact_hits, 8u);
  EXPECT_EQ(r.dp_runs, 0u);
  EXPECT_EQ(r.markings.size(), 8u);
  // A value arriving under two names resolves under both.
  inputs.push_back({http::InputKind::kGet, "dup", inputs[0].value});
  const NtiResult r2 = NtiAnalyzer(cfg).Analyze(query, inputs);
  EXPECT_EQ(r2.exact_hits, 9u);
}

TEST(Pipeline, ViewOverloadMatchesCompatShim) {
  const NtiAnalyzer nti(StagedConfig());
  const std::string query = "SELECT * FROM t WHERE id = -1 OR 1=1";
  const std::vector<http::Input> inputs = {
      {http::InputKind::kGet, "id", "-1 OR 1=1"},
      {http::InputKind::kCookie, "s", "tok123"}};
  const auto critical = sql::CriticalTokens(sql::Lex(query), false);
  const NtiResult via_inputs = nti.AnalyzeCritical(query, critical, inputs);
  const NtiResult via_views =
      nti.AnalyzeCritical(query, critical, http::ViewsOf(inputs));
  EXPECT_EQ(via_inputs.attack_detected, via_views.attack_detected);
  ASSERT_EQ(via_inputs.markings.size(), via_views.markings.size());
  for (std::size_t i = 0; i < via_inputs.markings.size(); ++i) {
    EXPECT_EQ(via_inputs.markings[i].span.begin,
              via_views.markings[i].span.begin);
    EXPECT_EQ(via_inputs.markings[i].input_name,
              via_views.markings[i].input_name);
  }
}

}  // namespace
}  // namespace joza::nti
