#include "benchkit/compare.h"

#include <cmath>
#include <cstdio>

namespace joza::benchkit {

namespace {

Direction ParseDirection(const std::string& name) {
  if (name == "higher_better") return Direction::kHigherBetter;
  if (name == "lower_better") return Direction::kLowerBetter;
  if (name == "exact") return Direction::kExact;
  return Direction::kInfo;
}

std::string FormatBand(double base, double tolerance, double slack,
                       Direction dir) {
  char buf[128];
  if (dir == Direction::kExact) {
    std::snprintf(buf, sizeof buf, "exactly %g", base);
  } else if (dir == Direction::kHigherBetter) {
    std::snprintf(buf, sizeof buf, ">= %g (base %g - %g%% - %g)",
                  base * (1 - tolerance) - slack, base, tolerance * 100,
                  slack);
  } else {
    std::snprintf(buf, sizeof buf, "<= %g (base %g + %g%% + %g)",
                  base * (1 + tolerance) + slack, base, tolerance * 100,
                  slack);
  }
  return buf;
}

}  // namespace

const char* DiffKindName(DiffKind k) {
  switch (k) {
    case DiffKind::kOk: return "ok";
    case DiffKind::kImproved: return "improved";
    case DiffKind::kRegressed: return "regressed";
    case DiffKind::kMissingFresh: return "missing_in_fresh_run";
    case DiffKind::kNewMetric: return "new_metric";
    case DiffKind::kNotCompared: return "not_compared";
  }
  return "ok";
}

std::size_t Comparison::regressions() const {
  std::size_t n = 0;
  for (const MetricDiff& d : diffs) {
    if (d.kind == DiffKind::kRegressed || d.kind == DiffKind::kMissingFresh) {
      ++n;
    }
  }
  return n;
}

bool Comparison::Report() const {
  if (status == ComparisonStatus::kNoBaseline ||
      status == ComparisonStatus::kBadBaseline) {
    std::printf("baseline comparison failed: %s\n", error.c_str());
    std::fflush(stdout);
    return false;
  }
  std::size_t compared = 0;
  for (const MetricDiff& d : diffs) {
    switch (d.kind) {
      case DiffKind::kOk:
        ++compared;
        break;
      case DiffKind::kNotCompared:
        break;
      case DiffKind::kImproved:
        ++compared;
        std::printf("baseline IMPROVED: %s\n", d.message.c_str());
        break;
      case DiffKind::kNewMetric:
        std::printf("baseline note: %s\n", d.message.c_str());
        break;
      case DiffKind::kRegressed:
      case DiffKind::kMissingFresh:
        ++compared;
        std::printf("baseline REGRESSION: %s\n", d.message.c_str());
        break;
    }
  }
  std::printf("baseline check: %zu metrics compared, %zu regressions\n",
              compared, regressions());
  std::fflush(stdout);
  return ok();
}

Comparison CompareToBaseline(const Json& baseline, const SuiteResult& fresh) {
  Comparison cmp;
  const Json* schema = baseline.Find("schema_version");
  if (schema == nullptr || !schema->is_number()) {
    cmp.status = ComparisonStatus::kBadBaseline;
    cmp.error = "baseline has no schema_version field";
    return cmp;
  }
  if (static_cast<int>(schema->AsNumber()) != kSchemaVersion) {
    cmp.status = ComparisonStatus::kBadBaseline;
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "schema_version mismatch: baseline %d, runner %d "
                  "(re-generate the baseline)",
                  static_cast<int>(schema->AsNumber()), kSchemaVersion);
    cmp.error = buf;
    return cmp;
  }
  const Json* suite = baseline.Find("suite");
  if (suite == nullptr || suite->AsString() != fresh.suite()) {
    cmp.status = ComparisonStatus::kBadBaseline;
    cmp.error = "suite mismatch: baseline is for '" +
                (suite ? suite->AsString() : std::string("?")) +
                "', fresh run is '" + fresh.suite() + "'";
    return cmp;
  }
  // Quick mode shrinks iteration counts, so its exact counters and rates
  // are not comparable with a full-mode baseline (or the other way round).
  const Json* quick = baseline.Find("quick");
  const bool baseline_quick = quick != nullptr && quick->AsBool();
  if (baseline_quick != fresh.options().quick) {
    auto mode = [](bool q) { return q ? "quick" : "full"; };
    cmp.status = ComparisonStatus::kBadBaseline;
    cmp.error = std::string("mode mismatch: baseline is ") +
                mode(baseline_quick) + ", fresh run is " +
                mode(fresh.options().quick) +
                " (run with the baseline's mode, or re-generate it)";
    return cmp;
  }
  const Json* metrics = baseline.Find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    cmp.status = ComparisonStatus::kBadBaseline;
    cmp.error = "baseline has no metrics object";
    return cmp;
  }

  // Baseline-driven pass: every baseline metric must be present and within
  // its band (the baseline's band — the committed file is the contract).
  for (const auto& [name, entry] : metrics->AsObject()) {
    MetricDiff d;
    d.name = name;
    const Json* value = entry.Find("value");
    const Json* dir_field = entry.Find("direction");
    const Direction dir =
        dir_field ? ParseDirection(dir_field->AsString()) : Direction::kInfo;
    d.baseline = value ? value->AsNumber() : 0;
    const Json* tol = entry.Find("tolerance");
    const Json* slack = entry.Find("abs_slack");
    d.tolerance = tol ? tol->AsNumber() : 0;
    const double abs_slack = slack ? slack->AsNumber() : 0;

    const Metric* fresh_metric = fresh.FindMetric(name);
    if (dir == Direction::kInfo) {
      d.kind = DiffKind::kNotCompared;
      d.fresh = fresh_metric ? fresh_metric->value : 0;
      cmp.diffs.push_back(std::move(d));
      continue;
    }
    if (fresh_metric == nullptr) {
      d.kind = DiffKind::kMissingFresh;
      d.message = name + ": present in baseline (value " +
                  std::to_string(d.baseline) +
                  ") but the fresh run never recorded it";
      cmp.diffs.push_back(std::move(d));
      continue;
    }
    d.fresh = fresh_metric->value;
    bool regressed = false;
    bool improved = false;
    switch (dir) {
      case Direction::kExact:
        regressed = d.fresh != d.baseline;
        break;
      case Direction::kHigherBetter:
        regressed = d.fresh < d.baseline * (1 - d.tolerance) - abs_slack;
        improved = d.fresh > d.baseline * (1 + d.tolerance) + abs_slack;
        break;
      case Direction::kLowerBetter:
        regressed = d.fresh > d.baseline * (1 + d.tolerance) + abs_slack;
        improved = d.fresh < d.baseline * (1 - d.tolerance) - abs_slack;
        break;
      case Direction::kInfo:
        break;
    }
    if (regressed) {
      d.kind = DiffKind::kRegressed;
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s: fresh %g vs required %s",
                    name.c_str(), d.fresh,
                    FormatBand(d.baseline, d.tolerance, abs_slack, dir)
                        .c_str());
      d.message = buf;
    } else if (improved) {
      d.kind = DiffKind::kImproved;
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s: fresh %g beats baseline %g by more than the "
                    "%g%% band — consider refreshing the baseline",
                    name.c_str(), d.fresh, d.baseline, d.tolerance * 100);
      d.message = buf;
    }
    cmp.diffs.push_back(std::move(d));
  }

  // Fresh-driven pass: surface metrics the baseline does not know yet.
  for (const Metric& m : fresh.metrics()) {
    if (metrics->Find(m.name) != nullptr) continue;
    MetricDiff d;
    d.name = m.name;
    d.kind = DiffKind::kNewMetric;
    d.fresh = m.value;
    d.message = m.name + ": new metric (value " + std::to_string(m.value) +
                "), not in baseline — commit a refreshed baseline to track "
                "it";
    cmp.diffs.push_back(std::move(d));
  }

  cmp.status = cmp.regressions() == 0 ? ComparisonStatus::kOk
                                      : ComparisonStatus::kRegressed;
  return cmp;
}

Comparison CompareToBaselineFile(const std::string& path,
                                 const SuiteResult& fresh) {
  StatusOr<Json> baseline = ReadJsonFile(path);
  if (!baseline.ok()) {
    Comparison cmp;
    cmp.status = baseline.status().code() == StatusCode::kNotFound
                     ? ComparisonStatus::kNoBaseline
                     : ComparisonStatus::kBadBaseline;
    cmp.error = baseline.status().ToString() + " (path: " + path + ")";
    return cmp;
  }
  return CompareToBaseline(baseline.value(), fresh);
}

}  // namespace joza::benchkit
