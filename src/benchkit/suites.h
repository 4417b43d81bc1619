// The built-in workload suites. Each fills a SuiteResult with metrics,
// latency summaries, per-stage engine counters and declarative gates; the
// registry binds them to their names.
#pragma once

#include "benchkit/result.h"

namespace joza::benchkit {

// smoke: the CI gate. In-process matcher ablation (staged vs bounded vs
// reference NTI tiers on a benign many-input workload), full staged-vs-
// reference verdict-parity sweep, and a mixed workload served through the
// whole engine for QPS/latency and per-stage counters.
SuiteResult RunSmokeSuite(const SuiteOptions& options);

// benign_wp: WordPress.com-shaped benign traffic mixes; measures the
// protection overhead (plain vs protected) and cache effectiveness.
SuiteResult RunBenignWpSuite(const SuiteOptions& options);

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

}  // namespace joza::benchkit
