// Regression comparator: diffs a fresh SuiteResult against a committed
// BENCH_<suite>.json baseline under each metric's tolerance band.
//
// Semantics:
//   * Only metrics whose baseline entry carries a non-info direction are
//     compared; info metrics (absolute QPS/latency, machine-dependent) are
//     recorded for the trajectory but never fail the gate.
//   * higher_better regresses when fresh < base * (1 - tolerance) - slack;
//     lower_better when fresh > base * (1 + tolerance) + slack; exact on
//     any change.
//   * A metric present in the baseline but missing from the fresh run is a
//     regression (coverage loss). A metric new in the fresh run is noted
//     but passes — committing the refreshed file adopts it.
//   * Schema, suite or quick-mode mismatch refuses to compare (update the
//     baseline, or run in the baseline's mode).
#pragma once

#include <string>
#include <vector>

#include "benchkit/json.h"
#include "benchkit/result.h"

namespace joza::benchkit {

enum class DiffKind {
  kOk,             // within the band
  kImproved,       // outside the band in the good direction
  kRegressed,      // outside the band in the bad direction
  kMissingFresh,   // in baseline, absent from the fresh run
  kNewMetric,      // in fresh run, absent from baseline
  kNotCompared,    // info metric
};

const char* DiffKindName(DiffKind k);

struct MetricDiff {
  std::string name;
  DiffKind kind = DiffKind::kOk;
  double baseline = 0;
  double fresh = 0;
  double tolerance = 0;
  std::string message;  // human-readable, filled for non-kOk kinds
};

enum class ComparisonStatus {
  kOk,              // compared, no regressions
  kRegressed,       // at least one metric outside its band
  kNoBaseline,      // baseline file missing
  kBadBaseline,     // unparsable / schema, suite or mode mismatch
};

struct Comparison {
  ComparisonStatus status = ComparisonStatus::kOk;
  std::string error;  // for kNoBaseline / kBadBaseline
  std::vector<MetricDiff> diffs;

  bool ok() const { return status == ComparisonStatus::kOk; }
  std::size_t regressions() const;
  // Prints every non-kOk diff (and a summary line); returns ok().
  bool Report() const;
};

// Compare a fresh result against a parsed baseline document.
Comparison CompareToBaseline(const Json& baseline, const SuiteResult& fresh);

// Convenience: load `path` and compare; a missing file yields kNoBaseline.
Comparison CompareToBaselineFile(const std::string& path,
                                 const SuiteResult& fresh);

}  // namespace joza::benchkit
