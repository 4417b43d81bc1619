// Circuit breaker for the PTI analysis backend.
//
// The recovery policy (DSN 2015 §IV-C) demands that a broken analyzer never
// waves a query through — but paying a full IPC timeout per query while
// every daemon is down turns an analyzer outage into a latency outage. The
// breaker bounds that: after `failure_threshold` consecutive backend
// failures it OPENS and callers fail fast into the engine's degraded mode;
// after `cooldown` it admits a bounded number of HALF-OPEN probes, and
// `half_open_successes` consecutive probe successes CLOSE it again.
//
// Thread safety: all methods may race freely; state lives behind one mutex
// (the breaker is consulted once per un-cached PTI analysis, never on the
// cache hit path).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>

#include "util/counters.h"

namespace joza::resilience {

enum class BreakerState { kClosed, kOpen, kHalfOpen };

const char* BreakerStateName(BreakerState state);

struct CircuitBreakerOptions {
  // Consecutive failures that trip the breaker. 0 disables it entirely
  // (Allow always passes, nothing is recorded).
  std::size_t failure_threshold = 5;
  // How long the breaker stays open before admitting half-open probes.
  std::chrono::milliseconds cooldown{1000};
  // Consecutive probe successes required to close from half-open.
  std::size_t half_open_successes = 2;
};

struct BreakerStats {
  std::uint64_t opens = 0;         // closed/half-open -> open transitions
  std::uint64_t closes = 0;        // half-open -> closed transitions
  std::uint64_t fast_rejects = 0;  // calls refused while open
  std::uint64_t probes = 0;        // half-open attempts admitted
  std::uint64_t failures = 0;      // recorded backend failures
  std::uint64_t successes = 0;     // recorded backend successes

  CounterList Counters() const;
};

inline constexpr CounterField<BreakerStats> kBreakerCounters[] = {
    {"opens", &BreakerStats::opens},
    {"closes", &BreakerStats::closes},
    {"fast_rejects", &BreakerStats::fast_rejects},
    {"probes", &BreakerStats::probes},
    {"failures", &BreakerStats::failures},
    {"successes", &BreakerStats::successes},
};
static_assert(sizeof(BreakerStats) ==
              std::size(kBreakerCounters) * sizeof(std::uint64_t));

class CircuitBreaker {
 public:
  explicit CircuitBreaker(CircuitBreakerOptions options = {});

  // True: the caller may attempt the backend call and MUST report the
  // outcome via RecordSuccess/RecordFailure. False: fail fast (degraded).
  bool Allow();

  void RecordSuccess();
  void RecordFailure();

  BreakerState state() const;
  BreakerStats stats() const;
  bool enabled() const { return options_.failure_threshold > 0; }

  // Back to closed with counters intact (transitions are cumulative).
  void Reset();

 private:
  CircuitBreakerOptions options_;

  mutable std::mutex mu_;
  BreakerState state_ = BreakerState::kClosed;
  std::size_t consecutive_failures_ = 0;
  std::size_t probe_successes_ = 0;
  std::size_t probes_in_flight_ = 0;
  std::chrono::steady_clock::time_point opened_at_{};
  BreakerStats stats_;
};

}  // namespace joza::resilience
