// Seeded traffic for the serving benchmark.
//
// Every workload is built by the attack:: generators from the seed the
// benchmark is given; the program under test only ever sees the generated
// requests. A workload has a warm-up (served identically to both twins
// before anything is timed) and a measured part (served in matched,
// interleaved blocks). Why each workload exists is written in README.md
// and BENCHMARK.json.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "http/request.h"

namespace servebench {

struct BenchRequest {
  joza::http::Request request;
  std::string raw;      // keep-alive HTTP/1.1 bytes sent over the wire
  bool attack = false;  // must be answered with the termination response
};

struct Sizes {
  std::size_t warmup = 0;
  std::size_t measured = 0;
  std::size_t block = 0;  // requests per matched block
};

struct Workload {
  Sizes sizes;
  std::vector<BenchRequest> warmup;
  std::vector<BenchRequest> measured;
};

// "read_crawl", "write_mix", "attack_mix".
const std::vector<std::string>& WorkloadNames();

// The full-size shape every workload is measured at.
inline constexpr Sizes kFullSizes{300, 2000, 100};

// Checks the rule that sets a part's traffic shares (README.md): write_mix
// sends as many searches as comment writes, and attack_mix attacks every
// testbed plugin exactly once. Returns what breaks the rule, or "".
std::string CheckShares(std::string_view name,
                        const std::vector<BenchRequest>& part);

// Builds the named workload; nullopt for an unknown name. The same seed
// always yields byte-identical requests.
std::optional<Workload> MakeWorkload(std::string_view name,
                                     std::uint64_t seed, Sizes sizes);

}  // namespace servebench
