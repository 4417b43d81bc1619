// joza_bench: the unified benchmark runner.
//
//   joza_bench --list
//   joza_bench --suite smoke [--seed N] [--quick] [--out FILE]
//              [--baseline FILE] [--check-baseline] [--update-baseline]
//
// Runs a named workload suite from the benchkit registry, prints its gate
// results, emits a schema-versioned BENCH_<suite>.json, and optionally
// diffs it against a committed baseline.
//
// Exit codes: 0 = gates passed, no regression; 1 = gate failure or
// baseline regression; 2 = unknown suite / bad usage / I/O failure.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "benchkit/registry.h"
#include "benchkit/runner.h"

namespace {

void PrintUsage() {
  std::fprintf(stderr,
               "usage: joza_bench --suite NAME [options]\n"
               "       joza_bench --list\n"
               "\n"
               "options:\n"
               "  --suite NAME       suite to run (see --list)\n"
               "  --seed N           RNG seed for workload generation "
               "(default 2015)\n"
               "  --quick            smaller workloads for fast iteration\n"
               "  --out FILE         write results JSON here (default "
               "BENCH_<suite>.json;\n"
               "                     BENCH_<suite>.fresh.json when the "
               "default would\n"
               "                     overwrite the baseline being checked)\n"
               "  --baseline FILE    baseline JSON to diff against "
               "(default BENCH_<suite>.json,\n"
               "                     compared only when it exists)\n"
               "  --check-baseline   fail (exit 1) on baseline regression\n"
               "  --update-baseline  write results over the baseline file\n"
               "  --list             list available suites\n");
}

void PrintSuites() {
  std::printf("available suites:\n");
  for (const joza::benchkit::SuiteSpec& spec : joza::benchkit::Suites()) {
    std::printf("  %-12s %s\n", spec.name.c_str(), spec.description.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string suite;
  std::string out_path;
  std::string baseline_path;
  bool check_baseline = false;
  bool update_baseline = false;
  joza::benchkit::SuiteOptions suite_options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "joza_bench: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--list") {
      PrintSuites();
      return 0;
    } else if (arg == "--suite") {
      suite = next();
    } else if (arg == "--seed") {
      suite_options.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--quick") {
      suite_options.quick = true;
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--baseline") {
      baseline_path = next();
    } else if (arg == "--check-baseline") {
      check_baseline = true;
    } else if (arg == "--update-baseline") {
      update_baseline = true;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else {
      std::fprintf(stderr, "joza_bench: unknown flag %s\n", arg.c_str());
      PrintUsage();
      return 2;
    }
  }

  if (suite.empty()) {
    PrintUsage();
    return 2;
  }

  joza::benchkit::RunnerOptions options;
  options.suite = suite_options;
  const std::string default_json = "BENCH_" + suite + ".json";
  // The default baseline is compared only when it exists: not every suite
  // commits one. A baseline named with --baseline must exist.
  if (baseline_path.empty() &&
      (update_baseline || std::ifstream(default_json).good())) {
    baseline_path = default_json;
  }

  if (update_baseline) {
    // Refresh the committed trajectory file in place; no comparison.
    options.out_path = out_path.empty() ? baseline_path : out_path;
  } else {
    options.baseline_path = baseline_path;
    options.check_baseline = check_baseline;
    if (out_path.empty()) {
      // Never clobber the baseline we are about to diff against, and never
      // write a BENCH_<suite>.json that a later run would take for one.
      out_path = (baseline_path.empty() || baseline_path == default_json)
                     ? "BENCH_" + suite + ".fresh.json"
                     : default_json;
    }
    options.out_path = out_path;
  }

  return joza::benchkit::RunSuiteAndReport(suite, options);
}
