// Differential testing of NTI's optimized matcher against a brute-force
// reference on small random instances: the optimizations (block filter,
// exact fast path, Myers kernel, bounded DP with pruning) must never
// change the verdict.
#include <gtest/gtest.h>

#include "attack/catalog.h"
#include "attack/evasion.h"
#include "attack/exploit.h"
#include "match/levenshtein.h"
#include "nti/nti.h"
#include "sqlparse/lexer.h"
#include "util/codec.h"
#include "util/rng.h"

namespace joza::nti {
namespace {

// Reference: try every substring, keep the best ratio.
struct RefMatch {
  double ratio = 1.0;
  ByteSpan span;
};

RefMatch BruteForceBest(std::string_view query, std::string_view input) {
  RefMatch best;
  std::size_t best_dist = query.size() + input.size();
  for (std::size_t b = 0; b <= query.size(); ++b) {
    for (std::size_t e = b; e <= query.size(); ++e) {
      std::size_t d = match::LevenshteinTwoRow(query.substr(b, e - b), input);
      if (d < best_dist || (d == best_dist && e - b > best.span.length())) {
        best_dist = d;
        best.span = {b, e};
      }
    }
  }
  if (best.span.length() > 0) {
    best.ratio = static_cast<double>(best_dist) /
                 static_cast<double>(best.span.length());
  }
  return best;
}

// Reference NTI verdict built directly from the definition.
bool ReferenceVerdict(std::string_view query,
                      const std::vector<http::Input>& inputs,
                      const NtiConfig& cfg) {
  const auto tokens = sql::Lex(query);
  for (const http::Input& input : inputs) {
    if (input.value.size() < cfg.min_input_length) continue;
    if (static_cast<double>(input.value.size()) >
        static_cast<double>(query.size()) * (1.0 + cfg.threshold)) {
      continue;
    }
    RefMatch m = BruteForceBest(query, input.value);
    if (m.ratio > cfg.threshold) continue;
    for (const auto& t : tokens) {
      if (t.IsCritical() && m.span.contains(t.span)) return true;
    }
  }
  return false;
}

class NtiDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NtiDifferentialTest, OptimizedMatchesBruteForce) {
  Rng rng(GetParam());
  NtiConfig cfg;  // defaults: the staged tier
  NtiAnalyzer optimized(cfg);

  static const char* kQueryTemplates[] = {
      "SELECT a FROM t WHERE x = ",
      "SELECT a FROM t WHERE s = 'v' AND x = ",
      "UPDATE t SET a = 1 WHERE k = ",
  };
  static const char* kPayloads[] = {
      "1 OR 1=1", "9", "abc", "1 UNION SELECT x", "zz' OR 'a'='a",
  };

  int verdict_diffs = 0;
  for (int i = 0; i < 120; ++i) {
    std::string payload;
    if (rng.NextBool(0.5)) {
      payload = kPayloads[rng.NextBelow(std::size(kPayloads))];
      // Random light mutation: insert a char, as a transformation would.
      if (rng.NextBool(0.5) && !payload.empty()) {
        payload.insert(rng.NextBelow(payload.size()), 1,
                       static_cast<char>('a' + rng.NextBelow(26)));
      }
    } else {
      payload = rng.NextToken(1 + rng.NextBelow(10));
    }
    std::string query =
        std::string(kQueryTemplates[rng.NextBelow(std::size(kQueryTemplates))]);
    // The query sees a (possibly different) variant of the payload.
    std::string in_query = payload;
    if (rng.NextBool(0.3) && !in_query.empty()) {
      in_query.erase(rng.NextBelow(in_query.size()), 1);
    }
    query += in_query;

    std::vector<http::Input> inputs = {
        {http::InputKind::kGet, "p", payload}};
    const bool opt = optimized.Analyze(query, inputs).attack_detected;
    const bool ref = ReferenceVerdict(query, inputs, cfg);
    if (opt != ref) ++verdict_diffs;
    EXPECT_EQ(opt, ref) << "query: " << query << "  input: " << payload;
  }
  EXPECT_EQ(verdict_diffs, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NtiDifferentialTest,
                         ::testing::Values(10, 20, 30, 40));

// --- Staged pipeline vs reference tier: full-result equality --------------
//
// The staged engine (bigram block filter, exact find, windowed Myers
// reject kernel, bounded verification) claims verdict-identity with the
// reference Sellers tier: same attack bit, same marking spans, same tainted
// critical tokens. These tests enforce it over randomized corpora (plain
// ASCII and URL-encoded payloads, including the >64-byte and non-ASCII
// inputs that exercise the kernel fallback) and over the full attack
// catalog, at several threshold values.

bool SameOutcome(const NtiResult& a, const NtiResult& b) {
  if (a.attack_detected != b.attack_detected) return false;
  if (a.markings.size() != b.markings.size()) return false;
  for (std::size_t i = 0; i < a.markings.size(); ++i) {
    const TaintMarking& ma = a.markings[i];
    const TaintMarking& mb = b.markings[i];
    if (ma.span.begin != mb.span.begin || ma.span.end != mb.span.end ||
        ma.distance != mb.distance || ma.input_name != mb.input_name ||
        ma.input_kind != mb.input_kind || ma.ratio != mb.ratio) {
      return false;
    }
  }
  if (a.tainted_critical_tokens.size() != b.tainted_critical_tokens.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.tainted_critical_tokens.size(); ++i) {
    if (a.tainted_critical_tokens[i].span.begin !=
            b.tainted_critical_tokens[i].span.begin ||
        a.tainted_critical_tokens[i].span.end !=
            b.tainted_critical_tokens[i].span.end) {
      return false;
    }
  }
  return true;
}

void ExpectTierParity(std::string_view query,
                      const std::vector<http::Input>& inputs,
                      double threshold) {
  NtiConfig cfg;
  cfg.threshold = threshold;
  cfg.tier = MatchTier::kReference;
  const NtiResult ref = NtiAnalyzer(cfg).Analyze(query, inputs);
  cfg.tier = MatchTier::kStaged;
  const NtiResult staged = NtiAnalyzer(cfg).Analyze(query, inputs);
  EXPECT_TRUE(SameOutcome(staged, ref))
      << "staged diverged at t=" << threshold << " query: " << query;
}

constexpr double kThresholds[] = {0.0, 0.10, 0.20, 0.40};

class StagedFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StagedFuzzTest, RandomCorporaAllTiersAgree) {
  Rng rng(GetParam());
  static const char* kTemplates[] = {
      "SELECT a FROM t WHERE x = ",
      "SELECT a FROM t WHERE s = 'v' AND x = ",
      "UPDATE t SET a = 1 WHERE k = ",
      "SELECT login, pass FROM wp_users WHERE id = ",
  };
  static const char* kPayloads[] = {
      "1 OR 1=1",    "9",       "abc", "1 UNION SELECT x",
      "zz' OR 'a'='a", "-1 or 1=1 union select login, pass from wp_users",
  };

  for (int i = 0; i < 150; ++i) {
    std::string payload;
    if (rng.NextBool(0.5)) {
      payload = kPayloads[rng.NextBelow(std::size(kPayloads))];
      if (rng.NextBool(0.5) && !payload.empty()) {
        payload.insert(rng.NextBelow(payload.size()), 1,
                       static_cast<char>('a' + rng.NextBelow(26)));
      }
    } else {
      payload = rng.NextToken(1 + rng.NextBelow(14));
    }
    // Kernel-fallback shapes: oversized (>64 byte) and non-ASCII inputs.
    if (rng.NextBool(0.1)) payload.append(70, 'q');
    if (rng.NextBool(0.1) && !payload.empty()) {
      payload[rng.NextBelow(payload.size())] = static_cast<char>(0xE2);
    }

    // The query sees a (possibly different) variant of the payload; the
    // stored input is sometimes still transport-encoded (an application
    // that decodes twice), driving edit distance through %-escapes.
    std::string in_query = payload;
    if (rng.NextBool(0.3) && !in_query.empty()) {
      in_query.erase(rng.NextBelow(in_query.size()), 1);
    }
    std::string stored = payload;
    if (rng.NextBool(0.3)) stored = UrlEncode(payload);

    const std::string query =
        std::string(kTemplates[rng.NextBelow(std::size(kTemplates))]) +
        in_query;
    const std::vector<http::Input> inputs = {
        {http::InputKind::kGet, "p", stored},
        {http::InputKind::kCookie, "session", rng.NextToken(12)},
        {http::InputKind::kHeader, "x-trace", rng.NextToken(6)},
    };
    ExpectTierParity(query, inputs, kThresholds[i % std::size(kThresholds)]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StagedFuzzTest,
                         ::testing::Values(1000, 2000, 3000));

TEST(StagedCatalogTest, AttackCatalogAllTiersAgree) {
  for (const attack::PluginSpec& p : attack::PluginCatalog()) {
    const attack::Exploit orig = attack::OriginalExploit(p);
    std::vector<std::string> payloads = {orig.payload};
    const attack::NtiMutation m =
        attack::MutateForNtiEvasion(p, orig, NtiConfig{});
    if (m.possible) payloads.push_back(m.exploit.payload);
    for (const std::string& payload : payloads) {
      const std::string query = attack::QueryFor(p, payload);
      const std::vector<http::Input> inputs = attack::InputsFor(p, payload);
      for (double threshold : kThresholds) {
        ExpectTierParity(query, inputs, threshold);
      }
    }
  }
}

}  // namespace
}  // namespace joza::nti
