#include "benchkit/runner.h"

#include <cstdio>

#include "benchkit/compare.h"
#include "benchkit/registry.h"

namespace joza::benchkit {

int RunSuiteAndReport(const std::string& suite_name,
                      const RunnerOptions& options) {
  const SuiteSpec* spec = FindSuite(suite_name);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown suite '%s'; available:\n",
                 suite_name.c_str());
    for (const SuiteSpec& s : Suites()) {
      std::fprintf(stderr, "  %-12s %s\n", s.name.c_str(),
                   s.description.c_str());
    }
    return 2;
  }

  std::printf("suite %s (seed %llu%s)\n", spec->name.c_str(),
              static_cast<unsigned long long>(options.suite.seed),
              options.suite.quick ? ", quick" : "");
  SuiteResult result = spec->fn(options.suite);
  result.meta() = CollectRunMetadata();

  std::printf("\n--- gates: %s ---\n", spec->name.c_str());
  const bool gates_ok = result.ReportGates();

  if (!options.out_path.empty()) {
    if (Status st = WriteJsonFile(options.out_path, result.ToJson());
        !st.ok()) {
      std::fprintf(stderr, "failed to write %s: %s\n",
                   options.out_path.c_str(), st.ToString().c_str());
      return 2;
    }
    std::printf("wrote %s\n", options.out_path.c_str());
  }

  bool baseline_ok = true;
  if (!options.baseline_path.empty()) {
    std::printf("\n--- baseline: %s ---\n", options.baseline_path.c_str());
    Comparison cmp = CompareToBaselineFile(options.baseline_path, result);
    baseline_ok = cmp.Report();
    if (!options.check_baseline) {
      // Informational diff only; do not fail the run on it.
      baseline_ok = true;
    }
  }

  if (!gates_ok) {
    std::fprintf(stderr, "suite %s: gate failure (see the gate FAIL lines "
                 "above for the offending metric and threshold)\n",
                 spec->name.c_str());
  }
  if (!baseline_ok) {
    std::fprintf(stderr, "suite %s: baseline regression (see the "
                 "REGRESSION lines above)\n",
                 spec->name.c_str());
  }
  return gates_ok && baseline_ok ? 0 : 1;
}

}  // namespace joza::benchkit
