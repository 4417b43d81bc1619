// Runs a suite and reports on it, behind the joza_bench CLI: execute the
// suite, print its gates, emit the BENCH_<suite>.json, and (optionally)
// diff against a baseline.
#pragma once

#include <string>

#include "benchkit/result.h"

namespace joza::benchkit {

struct RunnerOptions {
  SuiteOptions suite;
  // Where the fresh BENCH_<suite>.json goes; empty skips emission.
  std::string out_path;
  // Baseline to diff against; empty skips the comparison.
  std::string baseline_path;
  // With check_baseline, a regression (or missing/mismatched baseline)
  // fails the run.
  bool check_baseline = false;
};

// Runs the named suite end to end. Exit-code contract: 0 = all gates
// passed and no baseline regression, 1 = a gate failed or a compared
// metric regressed, 2 = unknown suite or I/O failure. Every failure names
// the offending metric and threshold on stdout/stderr before returning.
int RunSuiteAndReport(const std::string& suite_name,
                      const RunnerOptions& options);

}  // namespace joza::benchkit
