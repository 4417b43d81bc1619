// Measured cost model for matcher strategy selection.
//
// Every tier/strategy decision in the staged matcher used to ride
// hand-tuned magic numbers (automaton amortization, multi-pattern input
// floors, batch-admission cutoffs) scattered across nti, pti and the
// gateway. This subsystem replaces them with one measured model: a
// calibration sweep (calibrate.h) times each matcher stage over an
// input-count x pattern-length x threshold x vocabulary-size grid, fits a
// linear cost curve per stage, and persists the result as a checksummed
// JZCM01 artifact (codec.h). The Planner (planner.h) is the single
// decision API every layer consults; without a model it reproduces the
// legacy hand-tuned heuristics bit-for-bit, so a missing or corrupt
// artifact fails closed to known-good behavior — never to a garbage model.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/status.h"

namespace joza::costmodel {

// The individually measurable stages of the staged NTI/PTI matcher. The
// feature each curve is fit over ("bytes") is stage-specific:
//
//   kAcBuild      total pattern bytes added to the automaton
//   kAcScan       scanned text bytes (query length)
//   kFind         haystack bytes (query length) per std::string::find
//   kQgramBuild   indexed text bytes
//   kQgramReject  probed input bytes
//   kMyers        query bytes streamed through the bit-parallel kernel
//   kSellers      DP cell count (query bytes x input bytes)
enum class Stage {
  kAcBuild = 0,
  kAcScan,
  kFind,
  kQgramBuild,
  kQgramReject,
  kMyers,
  kSellers,
};

inline constexpr std::size_t kStageCount = 7;

const char* StageName(Stage stage);

// Per-stage linear cost curve: predicted nanoseconds for a workload of
// `bytes` feature bytes. Least-squares over simple feature products is
// enough — every stage above is linear in its feature by construction.
struct StageCurve {
  double base_ns = 0.0;      // fixed per-call overhead
  double per_byte_ns = 0.0;  // marginal cost per feature byte

  double Eval(double bytes) const { return base_ns + per_byte_ns * bytes; }
};

struct CostModel {
  StageCurve stages[kStageCount];
  // How many timed samples the fit consumed (provenance; 0 = handcrafted).
  std::uint64_t calibration_samples = 0;

  const StageCurve& curve(Stage stage) const {
    return stages[static_cast<std::size_t>(stage)];
  }
  StageCurve& curve(Stage stage) {
    return stages[static_cast<std::size_t>(stage)];
  }
};

// Coefficients above this are implausible on any hardware this decade and
// mark a corrupt or adversarial artifact (a correctly-checksummed file can
// still carry garbage if it was written by a buggy or hostile producer).
inline constexpr double kMaxPlausibleNs = 1e9;

// Rejects NaN/inf, negative and implausibly large coefficients. Both the
// codec loader and the calibrator run every model through this before it
// can reach a Planner.
Status ValidateModel(const CostModel& model);

// Built-in fallback defaults: the one remaining home of the legacy
// hand-tuned constants. A Planner without a model reproduces the original
// decision rules from these — nti, pti and the gateway must never consult
// them directly.
//
// Fewer unresolved inputs than this always take per-input find() in the
// staged exact stage (legacy NtiConfig::multi_pattern_min_inputs).
inline constexpr std::size_t kDefaultMultiPatternMinInputs = 4;
// One multi-pattern automaton scan only beats memchr-driven per-input
// find() when inputs x query_bytes >= this x total_value_bytes (legacy
// kAutomatonAmortization in nti/pipeline.cpp). The figure was tuned when
// every automaton node was a dense 256-column row, ~1 KiB of zeroed memory
// per pattern byte; the byte-class table fills only distinct-bytes + 1
// columns per node, so the build it amortizes is cheaper now and 64 is
// conservative. It stays so builtin decisions do not move.
inline constexpr std::size_t kDefaultAutomatonAmortization = 64;
// Smallest admission batch worth a shared BatchScope automaton (legacy
// GatewayConfig::batch_min).
inline constexpr std::size_t kDefaultBatchScopeMinRequests = 2;

}  // namespace joza::costmodel
