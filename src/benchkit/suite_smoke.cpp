// smoke: the CI-gating suite.
//
// Phase 1 (PTI, informational): Aho-Corasick vs the paper's per-fragment
// scan as the vocabulary grows.
// Phase 2 (NTI, gated): the staged matcher pipeline vs the reference
// Sellers tier on a benign many-input workload — staged must deliver >= 2x
// the reference tier's throughput, and neither may flag the benign
// workload.
// Phase 3 (parity, gated): staged vs reference full-result equality over
// the attack catalog (originals + NTI evasions) and a randomized corpus at
// several thresholds — zero differences allowed.
// Phase 4 (engine): a seeded benign mix, in the served request shape,
// through the full engine in-process (one request scope per request) for
// QPS/p50/p95/p99 and the per-stage JozaStats counters.
//
// Stage counters and parity results are deterministic for a fixed seed and
// are compared exactly against the committed baseline; throughput and
// latency are machine-dependent and recorded as trajectory info only.
#include <chrono>
#include <string>
#include <vector>

#include "attack/catalog.h"
#include "attack/evasion.h"
#include "attack/exploit.h"
#include "attack/workload.h"
#include "benchkit/metrics.h"
#include "benchkit/serve.h"
#include "benchkit/suites.h"
#include "core/joza.h"
#include "http/request.h"
#include "nti/nti.h"
#include "phpsrc/fragments.h"
#include "pti/pti.h"
#include "sqlparse/critical.h"
#include "sqlparse/lexer.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "webapp/application.h"

namespace joza::benchkit {

namespace {

// --- Phase 1: PTI fragment matching --------------------------------------

php::FragmentSet MakeVocabulary(std::size_t extra_fragments,
                                std::uint64_t seed) {
  auto app = attack::MakeTestbed();
  php::FragmentSet set = php::FragmentSet::FromSources(app->sources());
  Rng rng(seed);
  for (std::size_t i = 0; i < extra_fragments; ++i) {
    set.AddRaw("SELECT " + rng.NextToken(8) + " FROM " + rng.NextToken(8) +
               " WHERE " + rng.NextToken(6) + " = ");
  }
  return set;
}

void PtiAblation(SuiteResult& result, const SuiteOptions& options) {
  const char* kBenignQuery = "SELECT title, views FROM wp_posts WHERE id = 7";
  const char* kAttackQuery =
      "SELECT title, views FROM wp_posts WHERE id = -1 "
      "union select login, pass from wp_users";

  struct Variant {
    const char* name;
    const char* metric;
    bool aho_corasick;
    bool parse_first;
    std::size_t mru;
  };
  const Variant kVariants[] = {
      {"aho-corasick", "aho", true, false, 0},
      {"scan+mru+parse-first", "scan_mru", false, true, 64},
      {"naive scan", "naive", false, false, 0},
  };

  Table table({"PTI matcher", "Vocabulary", "us/query"});
  for (std::size_t extra : {std::size_t{100}, std::size_t{1600}}) {
    php::FragmentSet vocab = MakeVocabulary(extra, options.seed + 42);
    for (const Variant& v : kVariants) {
      pti::PtiConfig cfg;
      cfg.use_aho_corasick = v.aho_corasick;
      cfg.parse_first = v.parse_first;
      cfg.mru_size = v.mru;
      pti::PtiAnalyzer pti(vocab, cfg);
      const int kIters = options.quick ? 40 : 200;
      int detected = 0;
      Stopwatch watch;
      for (int i = 0; i < kIters; ++i) {
        detected += pti.Analyze(kBenignQuery).attack_detected ? 1 : 0;
        detected += pti.Analyze(kAttackQuery).attack_detected ? 1 : 0;
      }
      const double secs = watch.ElapsedSeconds();
      if (detected != kIters) {
        std::printf("PTI ablation sanity failed: %d/%d attack verdicts\n",
                    detected, kIters);
      }
      const double us = secs / (2.0 * kIters) * 1e6;
      result.AddInfo("pti." + std::string(v.metric) + ".v" +
                         std::to_string(extra) + ".us_per_query",
                     us, "us");
      table.AddRow({v.name, std::to_string(vocab.size()), Num(us, 2)});
    }
  }
  table.Print("Ablation: PTI fragment matching");
}

// --- Phase 2: NTI matcher tiers ------------------------------------------

struct NtiSample {
  std::string query;
  std::vector<http::Input> inputs;     // owned storage
  std::vector<http::InputView> views;  // borrows from `inputs`
  std::vector<sql::Token> critical;
};

// Benign (query, inputs) pairs harvested from the workload generators,
// widened with extra benign inputs so every check is many-input and most
// inputs descend past the exact stage into the block filter and the
// kernel.
std::vector<NtiSample> HarvestBenignSamples(std::size_t extra_inputs,
                                            std::uint64_t seed) {
  auto app = attack::MakeTestbed();
  std::vector<NtiSample> samples;
  std::vector<attack::WorkloadRequest> reqs;
  for (auto& w : attack::MakeCrawlWorkload(60, seed)) reqs.push_back(w);
  for (auto& w : attack::MakeCommentWorkload(40, seed + 1)) reqs.push_back(w);
  for (auto& w : attack::MakeSearchWorkload(40, seed + 2)) reqs.push_back(w);
  for (const auto& wr : reqs) {
    app->SetQueryGate([&](std::string_view sql, const http::Request& r) {
      samples.push_back({std::string(sql), r.AllInputs(), {}, {}});
      return webapp::GateDecision{};
    });
    app->Handle(wr.request);
  }
  app->SetQueryGate(nullptr);

  Rng rng(seed + 7);
  for (NtiSample& s : samples) {
    for (std::size_t i = 0; i < extra_inputs; ++i) {
      s.inputs.push_back({http::InputKind::kHeader, "x-" + rng.NextToken(4),
                          rng.NextToken(5 + rng.NextBelow(18))});
    }
    s.views = http::ViewsOf(s.inputs);
    s.critical = sql::CriticalTokens(sql::Lex(s.query), false);
  }
  return samples;
}

struct TierRun {
  double checks_per_sec = 0.0;
  std::size_t attacks = 0;
  nti::NtiResult totals;  // summed diagnostics
};

TierRun RunTier(nti::MatchTier tier, const std::vector<NtiSample>& samples,
                int passes) {
  nti::NtiConfig cfg;
  cfg.tier = tier;
  const nti::NtiAnalyzer analyzer(cfg);
  TierRun run;
  // Warmup pass (also collects the per-input diagnostics once).
  for (const NtiSample& s : samples) {
    nti::NtiResult r = analyzer.AnalyzeCritical(s.query, s.critical, s.views);
    run.totals.exact_hits += r.exact_hits;
    run.totals.seed_rejects += r.seed_rejects;
    run.totals.seed_candidates += r.seed_candidates;
    run.totals.kernel_rejects += r.kernel_rejects;
    run.totals.dp_runs += r.dp_runs;
    run.totals.tier_reference += r.tier_reference;
    run.totals.tier_bounded += r.tier_bounded;
    run.totals.tier_staged += r.tier_staged;
  }
  Stopwatch watch;
  for (int p = 0; p < passes; ++p) {
    for (const NtiSample& s : samples) {
      if (analyzer.AnalyzeCritical(s.query, s.critical, s.views)
              .attack_detected) {
        ++run.attacks;
      }
    }
  }
  const double secs = watch.ElapsedSeconds();
  run.checks_per_sec =
      static_cast<double>(samples.size()) * passes / (secs > 0 ? secs : 1e-9);
  return run;
}

// --- Phase 3: staged vs reference parity ---------------------------------

bool SameOutcome(const nti::NtiResult& a, const nti::NtiResult& b) {
  if (a.attack_detected != b.attack_detected) return false;
  if (a.markings.size() != b.markings.size()) return false;
  for (std::size_t i = 0; i < a.markings.size(); ++i) {
    const nti::TaintMarking& ma = a.markings[i];
    const nti::TaintMarking& mb = b.markings[i];
    if (ma.span.begin != mb.span.begin || ma.span.end != mb.span.end ||
        ma.distance != mb.distance || ma.input_name != mb.input_name) {
      return false;
    }
  }
  if (a.tainted_critical_tokens.size() != b.tainted_critical_tokens.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.tainted_critical_tokens.size(); ++i) {
    const sql::Token& ta = a.tainted_critical_tokens[i];
    const sql::Token& tb = b.tainted_critical_tokens[i];
    if (ta.span.begin != tb.span.begin || ta.span.end != tb.span.end) {
      return false;
    }
  }
  return true;
}

struct ParityCase {
  std::string query;
  std::vector<http::Input> inputs;
};

std::vector<ParityCase> CatalogCases() {
  std::vector<ParityCase> cases;
  for (const attack::PluginSpec& p : attack::PluginCatalog()) {
    attack::Exploit orig = attack::OriginalExploit(p);
    cases.push_back({attack::QueryFor(p, orig.payload),
                     attack::InputsFor(p, orig.payload)});
    nti::NtiConfig reference;
    attack::NtiMutation m = attack::MutateForNtiEvasion(p, orig, reference);
    if (m.possible) {
      cases.push_back({attack::QueryFor(p, m.exploit.payload),
                       attack::InputsFor(p, m.exploit.payload)});
    }
  }
  return cases;
}

std::vector<ParityCase> RandomCases(std::uint64_t seed, int count) {
  static const char* kTemplates[] = {
      "SELECT a FROM t WHERE x = ",
      "SELECT a FROM t WHERE s = 'v' AND x = ",
      "UPDATE t SET a = 1 WHERE k = ",
  };
  static const char* kPayloads[] = {
      "1 OR 1=1", "9", "abc", "1 UNION SELECT x", "zz' OR 'a'='a",
  };
  Rng rng(seed);
  std::vector<ParityCase> cases;
  for (int i = 0; i < count; ++i) {
    std::string payload;
    if (rng.NextBool(0.5)) {
      payload = kPayloads[rng.NextBelow(std::size(kPayloads))];
      if (rng.NextBool(0.5) && !payload.empty()) {
        payload.insert(rng.NextBelow(payload.size()), 1,
                       static_cast<char>('a' + rng.NextBelow(26)));
      }
    } else {
      payload = rng.NextToken(1 + rng.NextBelow(12));
    }
    // Occasionally force the staged tier's fallbacks: oversized (>64 byte)
    // and non-ASCII payloads take find + bounded Sellers and must stay
    // identical.
    if (rng.NextBool(0.1)) payload += std::string(70, 'a' + i % 26);
    if (rng.NextBool(0.1) && !payload.empty()) {
      payload[rng.NextBelow(payload.size())] = static_cast<char>(0xC3);
    }
    std::string in_query = payload;
    if (rng.NextBool(0.3) && !in_query.empty()) {
      in_query.erase(rng.NextBelow(in_query.size()), 1);
    }
    cases.push_back(
        {std::string(kTemplates[rng.NextBelow(std::size(kTemplates))]) +
             in_query,
         {{http::InputKind::kGet, "p", payload},
          {http::InputKind::kCookie, "session", rng.NextToken(16)}}});
  }
  return cases;
}

std::size_t CountMismatches(const std::vector<ParityCase>& cases,
                            double threshold) {
  nti::NtiConfig staged_cfg;
  staged_cfg.threshold = threshold;
  staged_cfg.tier = nti::MatchTier::kStaged;
  nti::NtiConfig ref_cfg = staged_cfg;
  ref_cfg.tier = nti::MatchTier::kReference;
  const nti::NtiAnalyzer staged(staged_cfg);
  const nti::NtiAnalyzer reference(ref_cfg);
  std::size_t mismatches = 0;
  for (const ParityCase& c : cases) {
    if (!SameOutcome(staged.Analyze(c.query, c.inputs),
                     reference.Analyze(c.query, c.inputs))) {
      ++mismatches;
    }
  }
  return mismatches;
}

// --- Phase 4: engine-level workload --------------------------------------

void EngineWorkload(SuiteResult& result, const SuiteOptions& options) {
  auto app = attack::MakeTestbed();
  core::Joza joza = core::Joza::Install(*app);

  const std::size_t count = options.quick ? 150 : 600;
  const std::vector<http::Request> warm = ServedRequests(
      attack::MakeMixedWorkload(count / 4, 0.1, options.seed));
  const std::vector<http::Request> steady = ServedRequests(
      attack::MakeMixedWorkload(count, 0.1, options.seed + 100));

  LatencyRecorder recorder;
  for (const http::Request& request : warm) ServeScoped(*app, joza, request);
  recorder.EndWarmup();
  Stopwatch watch;
  for (const http::Request& request : steady) {
    Stopwatch per;
    ServeScoped(*app, joza, request);
    recorder.Record(per.ElapsedSeconds() * 1e3);
  }
  const double steady_secs = watch.ElapsedSeconds();

  const core::JozaStats stats = joza.stats();
  result.AddInfo("engine.qps", recorder.Qps(steady_secs), "qps");
  result.AddLatency("engine.latency", recorder.Summary());
  // The full per-stage counter export: deterministic for a fixed seed, so
  // any drift (a matcher change, a cache change) shows up in the baseline
  // diff and becomes part of the committed trajectory.
  for (const auto& [name, value] : stats.Counters()) {
    result.AddExact(std::string("engine.") + name,
                    static_cast<double>(value));
  }

  Table table({"Engine workload", "Value"});
  table.AddRow({"requests", std::to_string(steady.size())});
  table.AddRow({"qps", Num(recorder.Qps(steady_secs), 0)});
  table.AddRow({"p50 ms", Num(recorder.Summary().p50, 3)});
  table.AddRow({"p99 ms", Num(recorder.Summary().p99, 3)});
  table.AddRow({"queries checked", std::to_string(stats.queries_checked)});
  table.AddRow({"attacks detected", std::to_string(stats.attacks_detected)});
  table.AddRow({"query cache hits", std::to_string(stats.query_cache_hits)});
  table.Print("Engine-level mixed workload (10% writes)");
}

}  // namespace

SuiteResult RunSmokeSuite(const SuiteOptions& options) {
  SuiteResult result("smoke", options);

  PtiAblation(result, options);

  // Phase 2: benign many-input throughput, gated.
  const std::vector<NtiSample> samples =
      HarvestBenignSamples(20, options.seed);
  std::size_t total_inputs = 0;
  for (const NtiSample& s : samples) total_inputs += s.inputs.size();
  const int passes = options.quick ? 8 : 30;

  Table nti_table({"NTI tier", "checks/s", "exact", "seed rej", "kernel rej",
                   "DP runs", "speedup vs ref"});
  const TierRun ref = RunTier(nti::MatchTier::kReference, samples, passes);
  const TierRun staged = RunTier(nti::MatchTier::kStaged, samples, passes);
  auto add_row = [&](const char* name, const TierRun& run) {
    nti_table.AddRow({name, Num(run.checks_per_sec, 0),
                      std::to_string(run.totals.exact_hits),
                      std::to_string(run.totals.seed_rejects),
                      std::to_string(run.totals.kernel_rejects),
                      std::to_string(run.totals.dp_runs),
                      Num(run.checks_per_sec / ref.checks_per_sec, 2)});
  };
  add_row("reference", ref);
  add_row("staged", staged);
  nti_table.Print("Ablation: NTI matcher tiers (" +
                  std::to_string(samples.size()) + " benign checks, " +
                  std::to_string(total_inputs) + " inputs)");

  result.AddInfo("nti.reference_checks_per_sec", ref.checks_per_sec, "qps");
  result.AddInfo("nti.staged_checks_per_sec", staged.checks_per_sec, "qps");
  result.AddInfo("nti.staged_speedup_x",
                 staged.checks_per_sec / ref.checks_per_sec, "x");
  // The staged pipeline's per-stage counters over the harvested corpus:
  // deterministic per seed, exact-compared against the baseline.
  result.AddExact("nti.staged.exact_hits",
                  static_cast<double>(staged.totals.exact_hits));
  result.AddExact("nti.staged.seed_candidates",
                  static_cast<double>(staged.totals.seed_candidates));
  result.AddExact("nti.staged.seed_rejects",
                  static_cast<double>(staged.totals.seed_rejects));
  result.AddExact("nti.staged.kernel_rejects",
                  static_cast<double>(staged.totals.kernel_rejects));
  result.AddExact("nti.staged.dp_runs",
                  static_cast<double>(staged.totals.dp_runs));
  result.AddExact("nti.benign_flagged.reference",
                  static_cast<double>(ref.attacks));
  result.AddExact("nti.benign_flagged.staged",
                  static_cast<double>(staged.attacks));

  result.RequireGe("staged tier >= 2x reference throughput",
                   "nti.staged_speedup_x", 2.0);
  result.RequireEq("reference flags no benign check",
                   "nti.benign_flagged.reference", 0);
  result.RequireEq("staged flags no benign check",
                   "nti.benign_flagged.staged", 0);

  // Phase 3: parity sweep, gated.
  const std::vector<ParityCase> catalog_cases = CatalogCases();
  const std::vector<ParityCase> random_cases =
      RandomCases(options.seed + 99, options.quick ? 80 : 300);
  Table parity({"Threshold", "Catalog diffs", "Random diffs"});
  std::size_t total_diffs = 0;
  for (double threshold : {0.0, 0.10, 0.20, 0.40}) {
    const std::size_t cd = CountMismatches(catalog_cases, threshold);
    const std::size_t rd = CountMismatches(random_cases, threshold);
    total_diffs += cd + rd;
    parity.AddRow({Num(threshold, 2),
                   std::to_string(cd) + "/" +
                       std::to_string(catalog_cases.size()),
                   std::to_string(rd) + "/" +
                       std::to_string(random_cases.size())});
  }
  parity.Print("Parity: staged vs reference (full-result equality)");
  result.AddExact("parity.catalog_cases",
                  static_cast<double>(catalog_cases.size()));
  result.AddExact("parity.random_cases",
                  static_cast<double>(random_cases.size()));
  result.AddExact("parity.total_diffs", static_cast<double>(total_diffs));
  result.RequireEq("staged is verdict-identical to reference",
                   "parity.total_diffs", 0);

  EngineWorkload(result, options);
  return result;
}

}  // namespace joza::benchkit
