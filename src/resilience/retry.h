// Retry budgeting and a latency window.
//
// RetryBudget guards the daemon pool's retry-once. Unbounded, retries
// amplify load exactly when the backend is least able to absorb it (an
// outage fails every request, so every request retries, doubling the dying
// backend's load). Retries therefore spend from a bucket that only
// successful attempts replenish: during an outage the budget drains and the
// pool degrades to single attempts, which the circuit breaker then fails
// fast.
//
// LatencyTracker is a sliding window of recent samples with a quantile
// read; the gateway records its deadline-shed handling times in one and
// reports their p99.
//
// Thread safety: both classes are internally locked.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "resilience/backoff.h"

namespace joza::resilience {

struct RetryBudgetOptions {
  // Max retries banked. 0 disables the budget (every retry allowed).
  double capacity = 20;
  // Fraction of a token deposited per successful attempt: 0.1 means
  // sustained retry traffic may be at most ~10% of success traffic.
  double earn_per_success = 0.1;
};

class RetryBudget {
 public:
  explicit RetryBudget(RetryBudgetOptions options = {});

  // Spend one retry. False = denied (amplification guard tripped).
  bool TrySpend();
  // An attempt succeeded: earn back a fraction of a token.
  void RecordSuccess();

  std::size_t denied() const;
  bool enabled() const { return options_.capacity > 0; }

 private:
  RetryBudgetOptions options_;
  mutable std::mutex mu_;
  TokenBucket bucket_;
  std::size_t denied_ = 0;
};

// Sliding-window latency reservoir. Keeps the last `window` samples in a
// ring; Quantile() sorts a copy (the window is small and the call sits on
// the stats path, not per request).
class LatencyTracker {
 public:
  explicit LatencyTracker(std::size_t window = 256);

  void Record(std::chrono::microseconds sample);

  // The q-quantile (0 < q <= 1) of the current window, or `fallback` until
  // `min_samples` observations have accumulated.
  std::chrono::microseconds Quantile(
      double q, std::chrono::microseconds fallback,
      std::size_t min_samples = 16) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::chrono::microseconds> ring_;
  std::size_t next_ = 0;
  std::size_t count_ = 0;
};

}  // namespace joza::resilience
