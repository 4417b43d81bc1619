// The staged matcher pipeline's observable behavior: stage counters, the
// per-input tier histogram, fallback conditions, the exact stage, a
// prepared request's reuse across queries, and its memory.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "match/myers.h"
#include "nti/nti.h"
#include "nti/pipeline.h"
#include "sqlparse/critical.h"
#include "sqlparse/lexer.h"
#include "util/rng.h"

namespace {
// Bytes asked of operator new so far, in this test binary.
std::atomic<std::size_t> heap_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  heap_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace joza::nti {
namespace {

NtiConfig StagedConfig() {
  NtiConfig cfg;
  cfg.tier = MatchTier::kStaged;
  return cfg;
}

TEST(MatchTierNames, Stable) {
  EXPECT_STREQ(MatchTierName(MatchTier::kReference), "reference");
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
  // No bigram of "zzzzzzzz" occurs in the query: the block filter must
  // discard it before any find, kernel or DP runs.
  const NtiResult r = nti.Analyze("SELECT name FROM users WHERE id = 7",
                                  {{http::InputKind::kGet, "q", "zzzzzzzz"}});
  EXPECT_FALSE(r.attack_detected);
  EXPECT_EQ(r.seed_rejects, 1u);
  EXPECT_EQ(r.seed_candidates, 0u);
  EXPECT_EQ(r.dp_runs, 0u);
}

TEST(Pipeline, KernelRejectsSeedSurvivor) {
  const NtiAnalyzer nti(StagedConfig());
  // ab/cd/ef/gh occur in the query within two adjacent blocks of 8+2
  // bytes, reaching the (8-1) - 2*2 = 3 positions the block filter asks
  // for, so it passes the input — but the true distance (3 inserted
  // spaces) exceeds the threshold bound (floor(0.2*8/0.8) = 2), which the
  // Myers kernel proves without a DP run.
  const NtiResult r = nti.Analyze("SELECT ab cd ef gh",
                                  {{http::InputKind::kGet, "q", "abcdefgh"}});
  EXPECT_FALSE(r.attack_detected);
  EXPECT_EQ(r.seed_candidates, 1u);
  EXPECT_EQ(r.kernel_rejects, 1u);
  EXPECT_EQ(r.dp_runs, 0u);
}

TEST(Pipeline, SurvivorVerifiedByDp) {
  const NtiAnalyzer nti(StagedConfig());
  // One escape backslash: distance 1 within the bound (floor(0.2*7/0.8) =
  // 1), so the DP must run and report the true distance.
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
  const std::string big(80, 'a');  // > 64 bytes: no block filter
  const NtiResult r = nti.Analyze("SELECT " + big + " FROM t",
                                  {{http::InputKind::kGet, "q", big}});
  EXPECT_EQ(r.tier_bounded, 1u);
  EXPECT_EQ(r.tier_staged, 0u);
  EXPECT_EQ(r.exact_hits, 1u);  // the fallback's find
}

TEST(Pipeline, NonAsciiInputFallsBackToBounded) {
  const NtiAnalyzer nti(StagedConfig());
  const NtiResult r =
      nti.Analyze("SELECT * FROM t WHERE name = 'caf\xC3\xA9 zzz'",
                  {{http::InputKind::kGet, "name", "caf\xC3\xA9 zzz"}});
  EXPECT_EQ(r.tier_bounded, 1u);
  EXPECT_EQ(r.tier_staged, 0u);
}

// A sqlmap-style payload longer than the block filter takes.
constexpr std::string_view kLongPayload =
    "x' UNION ALL SELECT CONCAT(0x71,user_login,0x3a,user_pass) FROM "
    "wp_users WHERE 'a'='a";

// Absent from the query, it is rejected by the multi-word kernel: no DP.
TEST(Pipeline, LongInputAbsentFromQueryIsKernelRejected) {
  ASSERT_GT(kLongPayload.size(), 70u);
  ASSERT_LT(kLongPayload.size(), 90u);
  const NtiAnalyzer nti(StagedConfig());
  const NtiResult r = nti.Analyze(
      "SELECT option_name, option_value FROM wp_options WHERE autoload = "
      "'yes' ORDER BY option_id",
      {{http::InputKind::kGet, "q", std::string(kLongPayload)}});
  EXPECT_EQ(r.tier_bounded, 1u);
  EXPECT_EQ(r.exact_hits, 0u);
  EXPECT_EQ(r.kernel_rejects, 1u);
  EXPECT_EQ(r.dp_runs, 0u);
  EXPECT_TRUE(r.markings.empty());
}

// Its escaped copy is within the bound: the kernel accepts and the DP
// verifies, marking what the reference tier marks.
TEST(Pipeline, LongInputEscapedCopyVerifiedByDp) {
  std::string escaped;
  for (char c : kLongPayload) {
    if (c == '\'') escaped += '\\';
    escaped += c;
  }
  const std::string query = "SELECT * FROM wp_posts WHERE post_name = '" +
                            escaped + "' LIMIT 1";
  const std::vector<http::Input> inputs = {
      {http::InputKind::kGet, "q", std::string(kLongPayload)}};
  const NtiResult r = NtiAnalyzer(StagedConfig()).Analyze(query, inputs);
  EXPECT_EQ(r.tier_bounded, 1u);
  EXPECT_EQ(r.kernel_rejects, 0u);
  EXPECT_EQ(r.dp_runs, 1u);
  NtiConfig reference_config;
  reference_config.tier = MatchTier::kReference;
  const NtiResult want = NtiAnalyzer(reference_config).Analyze(query, inputs);
  ASSERT_EQ(r.markings.size(), 1u);
  ASSERT_EQ(want.markings.size(), 1u);
  EXPECT_EQ(r.markings[0].span.begin, want.markings[0].span.begin);
  EXPECT_EQ(r.markings[0].span.end, want.markings[0].span.end);
  EXPECT_EQ(r.markings[0].distance, want.markings[0].distance);
  EXPECT_GT(r.markings[0].distance, 0u);
  EXPECT_EQ(r.attack_detected, want.attack_detected);
}

// The kernel's heap: none for a pattern of at most 64 bytes (the staged
// path's), and for a longer one less than the four query-long rows of the
// Sellers run it spares.
TEST(Pipeline, KernelHeapUse) {
  const std::string query =
      "SELECT * FROM wp_posts WHERE post_status = 'publish' AND post_title "
      "LIKE '%" + std::string(900, 'w') + "%' ORDER BY post_date DESC";
  const std::string short_pattern(kLongPayload.substr(0, 64));
  std::size_t before = heap_bytes.load();
  {
    const match::MyersPattern kernel(short_pattern);
    EXPECT_FALSE(kernel.Within(query, 16));
    EXPECT_GT(kernel.MinDistance(query), 16u);
  }
  EXPECT_EQ(heap_bytes.load() - before, 0u);

  before = heap_bytes.load();
  {
    const match::MyersPattern kernel(kLongPayload);
    EXPECT_FALSE(kernel.Within(query, 21));
  }
  EXPECT_LT(heap_bytes.load() - before,
            4 * (query.size() + 1) * sizeof(std::size_t));
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
  for (MatchTier tier : {MatchTier::kReference, MatchTier::kStaged}) {
    NtiConfig cfg;
    cfg.tier = tier;
    const NtiResult r =
        NtiAnalyzer(cfg).Analyze("SELECT alpha, beta FROM t", inputs);
    EXPECT_EQ(r.inputs_considered, 2u);
    EXPECT_EQ(r.tier_reference + r.tier_bounded + r.tier_staged, 2u);
    switch (tier) {
      case MatchTier::kReference: EXPECT_EQ(r.tier_reference, 2u); break;
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
  // A value arriving under two names is found once and marks both.
  inputs.push_back({http::InputKind::kGet, "dup", inputs[0].value});
  const NtiResult r2 = NtiAnalyzer(cfg).Analyze(query, inputs);
  EXPECT_EQ(r2.exact_hits, 8u);
  EXPECT_EQ(r2.markings.size(), 9u);
}

TEST(Pipeline, PreparedRequestReusedAcrossQueries) {
  // One preparation serves every query of a request: each Mark answers as
  // a fresh one-query preparation would, whatever the queries before it
  // left in the filter (longer and shorter texts, hits and misses) and
  // once the kernel has been built.
  const std::vector<http::Input> inputs = {
      {http::InputKind::kGet, "id", "1 OR 1=1"},
      {http::InputKind::kCookie, "session", "vdrzj6p3y0rkyou0"},
      {http::InputKind::kHeader, "host", "localhost"},
      {http::InputKind::kGet, "q", std::string(70, 'q')}};
  const std::vector<http::InputView> views = http::ViewsOf(inputs);
  const std::string queries[] = {
      "SELECT * FROM t WHERE id = 1 OR 1=1",
      "SELECT option_value FROM wp_options WHERE option_name = 'siteurl'",
      "SELECT * FROM t WHERE id = 1 OR 1=2",
      "SELECT host FROM t WHERE name = 'localhots' AND q = '" +
          std::string(70, 'q') + "'",
      "x",
      "SELECT * FROM t WHERE id = 1 OR 1=1"};
  PreparedInputs prepared(NtiConfig{}, views);
  for (const std::string& query : queries) {
    const NtiResult reused = prepared.Mark(query);
    const NtiResult fresh = PreparedInputs(NtiConfig{}, views).Mark(query);
    ASSERT_EQ(reused.markings.size(), fresh.markings.size()) << query;
    for (std::size_t i = 0; i < fresh.markings.size(); ++i) {
      EXPECT_EQ(reused.markings[i].span.begin, fresh.markings[i].span.begin);
      EXPECT_EQ(reused.markings[i].span.end, fresh.markings[i].span.end);
      EXPECT_EQ(reused.markings[i].input_name, fresh.markings[i].input_name);
    }
    EXPECT_EQ(reused.exact_hits, fresh.exact_hits) << query;
    EXPECT_EQ(reused.seed_rejects, fresh.seed_rejects) << query;
    EXPECT_EQ(reused.seed_candidates, fresh.seed_candidates) << query;
    EXPECT_EQ(reused.kernel_rejects, fresh.kernel_rejects) << query;
    EXPECT_EQ(reused.dp_runs, fresh.dp_runs) << query;
    EXPECT_EQ(reused.inputs_skipped, fresh.inputs_skipped) << query;
  }
}

// A request may repeat a short parameter thousands of times next to a long
// one its query copies. Every input is marked as the reference tier marks
// its value, and marking holds memory for the inputs alone: a query twice
// as long asks the heap for not one byte more.
TEST(Pipeline, ThousandsOfShortInputsAgainstALongQuery) {
  struct Value {
    std::string text;
    int copies;
  };
  const Value values[] = {
      {"abc", 2000},       // exact, too short for the filter to reject
      {"needle-12", 500},  // exact
      {"zzzzzzzz", 1420},  // absent: the filter rejects it
      {"q7z", 40},         // absent: the kernel runs over the whole query
      {"UNION SEL", 20},   // exact
      {"1 OR 1=1", 20}};   // one edit away: the only DP run
  std::vector<http::Input> inputs;
  for (const Value& value : values) {
    for (int i = 0; i < value.copies; ++i) {
      inputs.push_back({http::InputKind::kGet, "a", value.text});
    }
  }
  const std::string tail = " abc needle-12 WHERE id = 1 OR 1=2 UNION SELECT";
  const std::string query = std::string(500 * 1024, '.') + tail;

  // Memory: the one DP run verifies its match inside the filter's window,
  // which lies in the tail, so it holds no row as long as the query.
  auto heap_bytes_marking = [&](std::size_t filler) {
    PreparedInputs prepared(StagedConfig(), http::ViewsOf(inputs));
    const std::string text = std::string(filler, '.') + tail;
    const std::size_t before = heap_bytes.load();
    const NtiResult result = prepared.Mark(text);
    const std::size_t bytes = heap_bytes.load() - before;
    EXPECT_EQ(result.dp_runs, 1u);
    EXPECT_EQ(result.markings.size(), 2000u + 500u + 20u + 20u);
    return bytes;
  };
  EXPECT_EQ(heap_bytes_marking(1000 * 1024), heap_bytes_marking(500 * 1024));

  const NtiResult staged =
      PreparedInputs(StagedConfig(), http::ViewsOf(inputs)).Mark(query);
  NtiConfig reference_config;
  reference_config.tier = MatchTier::kReference;
  std::size_t next = 0;  // staged markings come in input order
  for (const Value& value : values) {
    const std::vector<http::InputView> one = {
        {http::InputKind::kGet, "a", value.text}};
    const NtiResult want = PreparedInputs(reference_config, one).Mark(query);
    if (want.markings.empty()) continue;
    const TaintMarking& w = want.markings[0];
    int differing = 0;
    for (int i = 0; i < value.copies; ++i, ++next) {
      ASSERT_LT(next, staged.markings.size()) << value.text;
      const TaintMarking& got = staged.markings[next];
      differing += got.span.begin != w.span.begin ||
                   got.span.end != w.span.end || got.distance != w.distance;
    }
    EXPECT_EQ(differing, 0) << value.text;
  }
  EXPECT_EQ(next, staged.markings.size());
  EXPECT_EQ(staged.markings.size(), 2000u + 500u + 20u + 20u);
  EXPECT_EQ(staged.dp_runs, 1u);  // one per distinct value
}

// A DP verifies a candidate over the block filter's window, not the whole
// query: ten short values, each escaped once in a tail after 500 KiB of
// filler, are marked as the reference tier marks them while the heap is
// asked for a small fraction of one row as long as the query.
TEST(Pipeline, CandidateVerifiedInsideItsWindow) {
  std::vector<http::Input> inputs;
  std::string tail = " WHERE name IN (";
  for (int v = 0; v < 10; ++v) {
    const std::string value = "it's-" + std::to_string(v);
    for (int copy = 0; copy < 4; ++copy) {
      inputs.push_back({http::InputKind::kGet, "n", value});
    }
    tail += "'it\\'s-" + std::to_string(v) + "', ";
  }
  tail += "'')";
  const std::string query = "SELECT id FROM t" +
                            std::string(500 * 1024, ' ') + tail;
  PreparedInputs prepared(StagedConfig(), http::ViewsOf(inputs));
  const std::size_t before = heap_bytes.load();
  const NtiResult got = prepared.Mark(query);
  const std::size_t bytes = heap_bytes.load() - before;
  EXPECT_EQ(got.dp_runs, 10u);  // one per distinct value
  EXPECT_LT(bytes, query.size() / 4);

  NtiConfig reference_config;
  reference_config.tier = MatchTier::kReference;
  ASSERT_EQ(got.markings.size(), 40u);
  for (std::size_t i = 0; i < 40; i += 4) {
    const std::vector<http::InputView> one = {
        {http::InputKind::kGet, "n", inputs[i].value}};
    const NtiResult want = PreparedInputs(reference_config, one).Mark(query);
    ASSERT_EQ(want.markings.size(), 1u) << inputs[i].value;
    for (std::size_t copy = i; copy < i + 4; ++copy) {
      EXPECT_EQ(got.markings[copy].span.begin, want.markings[0].span.begin);
      EXPECT_EQ(got.markings[copy].span.end, want.markings[0].span.end);
      EXPECT_EQ(got.markings[copy].distance, 1u);
    }
  }
}

// A value repeated under many inputs is matched once per query, and every
// input carrying it gets its own marking, under its own name and kind, as
// the reference tier marks it.
TEST(Pipeline, RepeatedValueMatchedOncePerQuery) {
  std::vector<http::Input> inputs;
  for (int i = 0; i < 2000; ++i) {
    inputs.push_back(
        {http::InputKind::kGet, "a" + std::to_string(i), "1 OR 1=1"});
  }
  inputs.push_back({http::InputKind::kCookie, "c", "1 OR 1=1"});
  const std::vector<http::InputView> views = http::ViewsOf(inputs);
  NtiConfig reference_config;
  reference_config.tier = MatchTier::kReference;
  PreparedInputs staged(StagedConfig(), views);
  PreparedInputs reference(reference_config, views);
  for (const char* query : {"SELECT * FROM t WHERE id = 1 OR 1=2",
                            "SELECT * FROM u WHERE id = 1 OR 1=3"}) {
    const NtiResult got = staged.Mark(query);
    EXPECT_EQ(got.tier_staged, 2001u);
    EXPECT_EQ(got.seed_candidates, 1u);
    EXPECT_EQ(got.dp_runs, 1u);
    const NtiResult want = reference.Mark(query);
    ASSERT_EQ(got.markings.size(), 2001u) << query;
    ASSERT_EQ(want.markings.size(), 2001u) << query;
    int differing = 0;
    for (std::size_t i = 0; i < want.markings.size(); ++i) {
      const TaintMarking& g = got.markings[i];
      const TaintMarking& w = want.markings[i];
      differing += g.input_name != w.input_name ||
                   g.input_kind != w.input_kind ||
                   g.span.begin != w.span.begin || g.span.end != w.span.end ||
                   g.distance != w.distance;
    }
    EXPECT_EQ(differing, 0) << query;
    EXPECT_EQ(got.markings.back().input_kind, http::InputKind::kCookie);
  }
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
