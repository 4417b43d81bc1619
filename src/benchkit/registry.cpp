#include "benchkit/registry.h"

#include "benchkit/suites.h"

namespace joza::benchkit {

const std::vector<SuiteSpec>& Suites() {
  static const std::vector<SuiteSpec> kSuites = {
      {"smoke",
       "CI gate: NTI matcher tiers + verdict parity + engine workload",
       RunSmokeSuite},
      {"paper",
       "paper timing rows (Tables V/VI, Fig. 8, VI-C, crawl): matched A/B",
       RunPaperSuite},
      {"churn",
       "concurrent gateway under ruleset snapshot churn + consistency",
       RunChurnSuite},
      {"degraded",
       "gateway under injected PTI faults: fail-open safety + breaker",
       RunDegradedSuite},
      {"multitenant",
       "tenant fleet under Zipf load: residency budget + verdict parity",
       RunMultitenantSuite},
  };
  return kSuites;
}

const SuiteSpec* FindSuite(const std::string& name) {
  for (const SuiteSpec& s : Suites()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace joza::benchkit
