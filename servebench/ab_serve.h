// Matched-state A/B over the wire: a plain twin and a protected twin, each
// a one-shard gateway::GatewayServer on loopback, driven by a closed loop of
// keep-alive clients (one thread each) in the benchmark process.
//
// One round:
//   1. builds fresh testbeds for both twins (and the protected engine);
//   2. serves the identical warm-up to both;
//   3. serves the fixed-count measured part in blocks of identical requests,
//      plain and protected alternately, flipping which twin goes first on
//      every block (and on every round);
//   4. checks every response (the output oracle) and the matched-state
//      guards, then tears everything down.
// A round never runs for a fixed duration: comment writes slow every later
// page, so a timed run would let a faster engine slow its own reads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "workload.h"

namespace servebench {

struct AbConfig {
  std::size_t connections = 2;  // client connections = client threads
  std::size_t round_index = 0;  // odd rounds start with the other twin
};

struct RoundResult {
  // Testbed build + Joza::Install + daemon-pool spawn +
  // GatewayServer::Start + protected warm-up.
  double setup_s = 0.0;
  double protected_wall_s = 0.0;  // sum of measured protected blocks
  double plain_wall_s = 0.0;      // sum of measured plain blocks
  std::size_t protected_requests = 0;
  std::vector<double> protected_latency_us;  // measured part, per request
  std::vector<double> plain_latency_us;
  FailureTally failures;  // warm-up and measured, both twins
  // CPU seconds of the client threads vs of the whole benchmark process
  // (clients + gateway shards) over the measured blocks.
  double loadgen_cpu_s = 0.0;
  double process_cpu_s = 0.0;
  std::uint64_t comment_rows = 0;  // wp_comments rows (equal on both twins)
  // Measured-part deltas, read by name.
  Counters protected_gateway;
  Counters plain_gateway;
  Counters engine;
  std::uint64_t pool_waits = 0;
  std::uint64_t pool_failures = 0;
  std::size_t shards = 0;
};

// Serves one matched-state round. Returns false with `error` set when the
// round could not run or a matched-state guard broke; response failures
// are not errors, they are counted in `out->failures`.
bool ServeRound(const Workload& workload, const AbConfig& config,
                RoundResult* out, std::string* error);

}  // namespace servebench
