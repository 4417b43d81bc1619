#include "resilience/latency_tracker.h"

#include <algorithm>

namespace joza::resilience {

LatencyTracker::LatencyTracker(std::size_t window)
    : ring_(std::max<std::size_t>(window, 8)) {}

void LatencyTracker::Record(std::chrono::microseconds sample) {
  std::lock_guard<std::mutex> lock(mu_);
  ring_[next_] = sample;
  next_ = (next_ + 1) % ring_.size();
  count_ = std::min(count_ + 1, ring_.size());
}

std::chrono::microseconds LatencyTracker::Quantile(
    double q, std::chrono::microseconds fallback,
    std::size_t min_samples) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ < std::max<std::size_t>(min_samples, 1)) return fallback;
  std::vector<std::chrono::microseconds> sorted(ring_.begin(),
                                                ring_.begin() + count_);
  std::sort(sorted.begin(), sorted.end());
  q = std::clamp(q, 0.0, 1.0);
  const std::size_t idx = std::min(
      count_ - 1, static_cast<std::size_t>(q * static_cast<double>(count_)));
  return sorted[idx];
}

}  // namespace joza::resilience
