// joza_check — offline query checker.
//
// Loads the ruleset snapshot joza_scan wrote and runs the hybrid analysis
// on queries from the command line or stdin (one per line). Inputs for the
// NTI half are supplied as name=value arguments. Exits 0 when every query
// is safe, 3 when one is an attack, 1 when the snapshot does not load
// (missing, truncated or failing its checksum), 2 on bad usage.
//
//   joza_check --fragments app.snap [--input id=5]... [--strict] [query...]
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/joza.h"
#include "resilience/snapshot.h"

namespace {

void Usage() {
  std::puts(
      "usage: joza_check --fragments <file> [options] [query ...]\n"
      "  --input <name=value>  HTTP input NTI correlates (repeatable)\n"
      "  --threshold <t>       NTI difference-ratio threshold (default 0.2)\n"
      "  --strict              Ray-Ligatti policy: identifiers critical\n"
      "  --nti-only | --pti-only\n"
      "queries are read from stdin (one per line) when none are given");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace joza;
  std::string fragments_path;
  std::vector<http::Input> inputs;
  core::JozaConfig config;
  std::vector<std::string> queries;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fragments") == 0 && i + 1 < argc) {
      fragments_path = argv[++i];
    } else if (std::strcmp(argv[i], "--input") == 0 && i + 1 < argc) {
      std::string pair = argv[++i];
      std::size_t eq = pair.find('=');
      if (eq == std::string::npos) {
        Usage();
        return 2;
      }
      inputs.push_back({http::InputKind::kGet, pair.substr(0, eq),
                        pair.substr(eq + 1)});
    } else if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
      config.nti.threshold = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--strict") == 0) {
      config.nti.strict_tokens = true;
      config.pti.strict_tokens = true;
    } else if (std::strcmp(argv[i], "--nti-only") == 0) {
      config.enable_pti = false;
    } else if (std::strcmp(argv[i], "--pti-only") == 0) {
      config.enable_nti = false;
    } else if (argv[i][0] == '-') {
      Usage();
      return 2;
    } else {
      queries.emplace_back(argv[i]);
    }
  }
  if (fragments_path.empty()) {
    Usage();
    return 2;
  }
  auto snapshot = resilience::LoadRulesetSnapshot(fragments_path);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "joza_check: %s\n",
                 snapshot.status().ToString().c_str());
    return 1;
  }
  core::Joza engine(std::move(snapshot->fragments), config);

  if (queries.empty()) {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (!line.empty()) queries.push_back(line);
    }
  }

  int attacks = 0;
  for (const std::string& q : queries) {
    core::Verdict v = engine.Check(q, inputs);
    if (v.attack) ++attacks;
    std::printf("%-7s %s\n",
                v.attack ? core::DetectedByName(v.detected_by) : "safe",
                q.c_str());
    for (const auto& t : v.pti.untrusted_critical_tokens) {
      std::printf("        PTI: untrusted token \"%.*s\" at byte %zu\n",
                  static_cast<int>(t.text.size()), t.text.data(),
                  t.span.begin);
    }
    for (const auto& m : v.nti.markings) {
      std::printf(
          "        NTI: input \"%s\" matched bytes [%zu,%zu) ratio %.3f\n",
          m.input_name.c_str(), m.span.begin, m.span.end, m.ratio);
    }
  }
  return attacks > 0 ? 3 : 0;
}
