// The traced run: per-layer attribution without tracing inside the program.
//
// An in-process replay serves the same seeded workload (warm-up, then the
// measured blocks in alternating twin order) straight through
// Application::Handle on a plain and a protected testbed. The traced
// variant records spans from the benchmark's own wrappers around the calls
// into each layer:
//
//   webapp.handle   Application::Handle (plain and protected)
//     core.check    Joza::MakeGate()'s gate, wrapped via SetQueryGate
//       ipc.roundtrip  DaemonPool::AsPtiBackend(), wrapped via SetPtiBackend
//
// Spans are kept in memory and written out at the end (Chrome trace-event
// JSON). A span's self time is its duration minus what its children cover.
// A capture pass records every (query, request) pair the gate sees; the
// isolated probes then time each layer's public functions on that corpus.
#pragma once

#include <string>
#include <vector>

#include "report.h"
#include "workload.h"

namespace servebench {

struct ReplayConfig {
  std::size_t passes = 3;  // untraced/traced replay pairs (and probe passes)
  std::string trace_out;   // span dump path; empty writes nothing
};

struct LayerReport {
  std::vector<Metric> metrics;
  // Engine counter deltas of the measured part; every replay of a seed
  // must produce exactly these.
  Counters engine;
  double handle_plain_median_us = 0.0;
  std::size_t spans = 0;
};

// Runs the replays and probes. Returns false with `error` set when a span
// does not nest, a self time is negative, or traced counts did not repeat
// across passes.
bool AnalyzeLayers(const Workload& workload, const ReplayConfig& config,
                   LayerReport* out, std::string* error);

}  // namespace servebench
