#include "resilience/circuit_breaker.h"

namespace joza::resilience {

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "?";
}

CounterList BreakerStats::Counters() const {
  return ExportCounters(*this, kBreakerCounters);
}

CircuitBreaker::CircuitBreaker(CircuitBreakerOptions options)
    : options_(options) {
  if (options_.half_open_successes == 0) options_.half_open_successes = 1;
}

bool CircuitBreaker::Allow() {
  if (!enabled()) return true;
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen: {
      const auto now = std::chrono::steady_clock::now();
      if (now - opened_at_ < options_.cooldown) {
        ++stats_.fast_rejects;
        return false;
      }
      // Cooldown over: this caller becomes the first half-open probe.
      state_ = BreakerState::kHalfOpen;
      probe_successes_ = 0;
      probes_in_flight_ = 1;
      ++stats_.probes;
      return true;
    }
    case BreakerState::kHalfOpen:
      // Admit only as many concurrent probes as it takes to close; the
      // rest fail fast so a still-broken backend cannot absorb a thundering
      // herd of timeouts.
      if (probes_in_flight_ >= options_.half_open_successes) {
        ++stats_.fast_rejects;
        return false;
      }
      ++probes_in_flight_;
      ++stats_.probes;
      return true;
  }
  return true;
}

void CircuitBreaker::RecordSuccess() {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.successes;
  switch (state_) {
    case BreakerState::kClosed:
      consecutive_failures_ = 0;
      break;
    case BreakerState::kOpen:
      // A success recorded while open (call admitted before the trip);
      // leave the open state to the cooldown machinery.
      break;
    case BreakerState::kHalfOpen:
      if (probes_in_flight_ > 0) --probes_in_flight_;
      if (++probe_successes_ >= options_.half_open_successes) {
        state_ = BreakerState::kClosed;
        consecutive_failures_ = 0;
        ++stats_.closes;
      }
      break;
  }
}

void CircuitBreaker::RecordFailure() {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.failures;
  switch (state_) {
    case BreakerState::kClosed:
      if (++consecutive_failures_ >= options_.failure_threshold) {
        state_ = BreakerState::kOpen;
        opened_at_ = std::chrono::steady_clock::now();
        ++stats_.opens;
      }
      break;
    case BreakerState::kOpen:
      break;
    case BreakerState::kHalfOpen:
      // The backend is still broken: reopen and restart the cooldown.
      state_ = BreakerState::kOpen;
      opened_at_ = std::chrono::steady_clock::now();
      probes_in_flight_ = 0;
      probe_successes_ = 0;
      ++stats_.opens;
      break;
  }
}

BreakerState CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

BreakerStats CircuitBreaker::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void CircuitBreaker::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  state_ = BreakerState::kClosed;
  consecutive_failures_ = 0;
  probe_successes_ = 0;
  probes_in_flight_ = 0;
}

}  // namespace joza::resilience
