// joza_scan — the installer CLI (Section IV-A).
//
// Recursively scans a web application's source tree, extracts the PTI
// fragment vocabulary, and optionally persists it as a ruleset snapshot
// (resilience/snapshot.h: versioned, checksummed, written atomically).
//
//   joza_scan <app-root> [--out vocabulary.snap] [--list] [--stats]
#include <cstdio>
#include <cstring>
#include <string>

#include "phpsrc/installer.h"
#include "resilience/snapshot.h"

namespace {

void Usage() {
  std::puts(
      "usage: joza_scan <app-root> [options]\n"
      "  --out <file>   persist the fragment set as a ruleset snapshot\n"
      "                 (loadable by joza_check)\n"
      "  --list         print every retained fragment\n"
      "  --stats        print scan statistics");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace joza;
  if (argc < 2) {
    Usage();
    return 2;
  }
  std::string root = argv[1];
  std::string out_path;
  bool list = false, stats = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--list") == 0) {
      list = true;
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      stats = true;
    } else {
      Usage();
      return 2;
    }
  }

  php::ScanReport report;
  auto set = php::InstallFromDirectory(root, {}, &report);
  if (!set.ok()) {
    std::fprintf(stderr, "joza_scan: %s\n", set.status().ToString().c_str());
    return 1;
  }
  std::printf("scanned %zu source files (%zu bytes), %zu skipped\n",
              report.files_scanned, report.bytes_scanned,
              report.files_skipped);
  std::printf("retained %zu SQL-bearing fragments\n", set->size());

  if (stats) {
    std::size_t total_bytes = 0, max_len = 0;
    for (const php::Fragment& f : set->fragments()) {
      total_bytes += f.text.size();
      max_len = std::max(max_len, f.text.size());
    }
    std::printf("fragment bytes: %zu total, %.1f avg, %zu max\n", total_bytes,
                set->size() ? static_cast<double>(total_bytes) /
                                  static_cast<double>(set->size())
                            : 0.0,
                max_len);
  }
  if (list) {
    for (const php::Fragment& f : set->fragments()) {
      std::printf("  %-40s %s:%zu\n", ("\"" + f.text + "\"").c_str(),
                  f.source_path.c_str(), f.line);
    }
  }
  if (!out_path.empty()) {
    if (auto st = resilience::SaveRulesetSnapshot(out_path, set.value(), 0);
        !st.ok()) {
      std::fprintf(stderr, "joza_scan: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("fragment set written to %s\n", out_path.c_str());
  }
  return 0;
}
