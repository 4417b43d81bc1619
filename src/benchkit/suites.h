// The built-in workload suites. Each fills a SuiteResult with metrics,
// latency summaries, per-stage engine counters and declarative gates; the
// registry binds them to their names.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "attack/workload.h"
#include "benchkit/result.h"
#include "core/joza.h"
#include "webapp/application.h"

namespace joza::benchkit {

// smoke: the CI gate. In-process matcher ablation (staged vs reference NTI
// tiers on a benign many-input workload), full staged-vs-reference
// verdict-parity sweep, and a mixed workload served through the whole
// engine for QPS/latency and per-stage counters.
SuiteResult RunSmokeSuite(const SuiteOptions& options);

// paper: the paper's timing claims (Tables V/VI, Fig. 8, section VI-C, the
// paper-scale crawl, the WordPress.com mix, the cache ablation), each row
// one RunPaperAb.
SuiteResult RunPaperSuite(const SuiteOptions& options);

// churn: the concurrent gateway under ruleset-snapshot churn; gates on
// reader p99/QPS loss and sequential-vs-concurrent verdict consistency.
SuiteResult RunChurnSuite(const SuiteOptions& options);

// degraded: the gateway under injected PTI faults (healthy / hang / outage
// / recovery); gates on zero fail-open and a full breaker cycle.
SuiteResult RunDegradedSuite(const SuiteOptions& options);

// multitenant: the tenant fleet's tiered residency (64 Zipf tenants, a
// budget admitting ~8 hot); gates on budgeted-vs-unbudgeted verdict
// parity, the ledger never exceeding the budget, cold first-touch attacks
// blocked, and a bounded p99 under demote/promote churn.
SuiteResult RunMultitenantSuite(const SuiteOptions& options);

// One row of the paper suite: the traffic both twins serve and how the
// protected twin is deployed.
struct PaperRow {
  // Metric prefix, e.g. "table5.read.none".
  std::string key;
  // The workload for one seed; the warm-up and every rep draw their own.
  std::function<std::vector<attack::WorkloadRequest>(std::uint64_t seed)>
      workload;
  int reps = 8;
  core::JozaConfig config;
  // PTI through a one-daemon DaemonPool spawned before timing, as
  // `joza_gateway --pti pool` deploys it; otherwise in-process.
  bool daemon = false;
  // Builds each twin; empty means attack::MakeTestbed().
  std::function<std::unique_ptr<webapp::Application>()> make_app;
};

struct PaperRep {
  double plain_s = 0;
  double protected_s = 0;
  bool protected_first = false;  // which twin served this rep first
};

struct PaperAb {
  std::vector<PaperRep> reps;
  // The protected engine's counters after the warm-up and after the last
  // rep.
  core::JozaStats warm;
  core::JozaStats total;
  // Each twin's wp_comments rows at the end.
  std::size_t plain_comment_rows = 0;
  std::size_t protected_comment_rows = 0;
};

// The matched A/B behind every paper row. A fresh plain and protected twin
// both serve the warm-up (`row.workload(seed)`), then rep r's workload
// (`seed + 1 + r`), the first twin alternating per rep so drift and cache
// effects land on both sides. Requests take the served shape, and the
// protected twin serves each through one Joza::BeginRequest scope and its
// gate, as the gateway handler does.
PaperAb RunPaperAb(const PaperRow& row, std::uint64_t seed);

}  // namespace joza::benchkit
