#include "resilience/token_bucket.h"

#include <algorithm>

namespace joza::resilience {

TokenBucket::TokenBucket(TokenBucketOptions options, Clock::time_point now)
    : options_(options), last_refill_(now) {
  if (options_.capacity < 0) options_.capacity = 0;
  tokens_ = options_.capacity;
}

void TokenBucket::Refill(Clock::time_point now) {
  if (now <= last_refill_) return;
  const double seconds =
      std::chrono::duration<double>(now - last_refill_).count();
  tokens_ = std::min(options_.capacity,
                     tokens_ + seconds * options_.refill_per_sec);
  last_refill_ = now;
}

bool TokenBucket::TryWithdraw(double cost, Clock::time_point now) {
  Refill(now);
  if (tokens_ < cost) return false;
  tokens_ -= cost;
  return true;
}

}  // namespace joza::resilience
