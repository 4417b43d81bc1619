// A sliding window of recent latencies with a quantile read; the gateway
// records its deadline-shed handling times in one and reports their p99.
//
// Thread safety: internally locked.
#pragma once

#include <chrono>
#include <cstddef>
#include <mutex>
#include <vector>

namespace joza::resilience {

// Keeps the last `window` samples in a ring; Quantile() sorts a copy (the
// window is small and the call sits on the stats path, not per request).
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
