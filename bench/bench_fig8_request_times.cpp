// Figure 8: read / write / search request times with and without Joza.
//
// Paper shape: reads barely move (query cache), searches cost a bit more
// (dynamic queries, structure-cache hits), writes cost the most
// (textually-new queries).
#include "attack/catalog.h"
#include "benchkit/serve.h"
#include "core/joza.h"
#include "benchkit/metrics.h"

using namespace joza;

int main() {
  using Maker = std::vector<attack::WorkloadRequest> (*)(std::size_t,
                                                         std::uint64_t);
  struct Row {
    const char* name;
    Maker make;
  };
  const Row rows[] = {
      {"Full site crawl (read)", &attack::MakeCrawlWorkload},
      {"Random comment posting (write)", &attack::MakeCommentWorkload},
      {"Random searching", &attack::MakeSearchWorkload},
  };

  benchkit::Table table({"Request type", "Plain (s)", "With Joza (s)",
                      "Overhead"});
  // Per-phase NTI matcher breakdown: where the staged pipeline resolved the
  // inputs of each workload's checks (exact scan, seeding+kernel, full DP).
  benchkit::Table matcher({"Request type", "Checks", "Exact hits", "Seed cand",
                        "DP runs", "Staged share"});
  constexpr int kReps = 8;
  for (const Row& row : rows) {
    const auto make = [&row](std::uint64_t seed) {
      return row.make(300, seed);
    };
    auto plain_app = attack::MakeTestbed();
    auto prot_app = attack::MakeTestbed();
    core::Joza joza = core::Joza::Install(*prot_app);
    prot_app->SetQueryGate(joza.MakeGate());
    benchkit::ServeOnce(*prot_app, make(1));  // warm caches (unmeasured seed)
    const core::JozaStats before = joza.stats();
    const auto timing =
        benchkit::MeasurePair(*plain_app, *prot_app, make, kReps, 100);

    table.AddRow({row.name, benchkit::Num(timing.plain),
                  benchkit::Num(timing.protected_time),
                  benchkit::Pct(timing.overhead())});
    // Count only the measured reps.
    const core::JozaStats after = joza.stats();
    const auto measured = [&](std::uint64_t core::JozaStats::*counter) {
      return after.*counter - before.*counter;
    };
    const std::uint64_t staged = measured(&core::JozaStats::nti_tier_staged);
    const std::uint64_t decided =
        measured(&core::JozaStats::nti_tier_reference) +
        measured(&core::JozaStats::nti_tier_bounded) + staged;
    matcher.AddRow(
        {row.name,
         std::to_string(measured(&core::JozaStats::queries_checked)),
         std::to_string(measured(&core::JozaStats::nti_exact_hits)),
         std::to_string(measured(&core::JozaStats::nti_seed_candidates)),
         std::to_string(measured(&core::JozaStats::nti_dp_runs)),
         decided == 0 ? "-"
                      : benchkit::Pct(static_cast<double>(staged) /
                                      static_cast<double>(decided))});
  }
  table.Print(
      "Figure 8: request times with and without Joza (reads cheapest, "
      "writes costliest)");
  matcher.Print(
      "Figure 8 breakdown: NTI staged-matcher work per workload (cache hits "
      "skip NTI entirely)");
  return 0;
}
