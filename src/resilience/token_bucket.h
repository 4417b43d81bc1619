// Continuous-refill token bucket: the daemon pool's restart budget.
//
// A pool that respawns a crashing daemon as fast as fork(2) allows turns
// one bad binary into a fork storm. The bucket caps how many restarts the
// pool may spend per unit time no matter how the failures arrive; the
// engine's circuit breaker in front of the pool stops the requests that
// would ask for them.
//
// Not thread-safe on its own (owners lock). Takes explicit time points so
// tests can drive a fake clock; production callers pass Clock::now().
#pragma once

#include <chrono>

namespace joza::resilience {

struct TokenBucketOptions {
  double capacity = 10;         // burst size; the bucket starts full
  double refill_per_sec = 0.5;  // sustained rate
};

class TokenBucket {
 public:
  using Clock = std::chrono::steady_clock;

  explicit TokenBucket(TokenBucketOptions options, Clock::time_point now);

  // Withdraws `cost` tokens if available at `now`. False = budget denied.
  bool TryWithdraw(double cost, Clock::time_point now);

 private:
  void Refill(Clock::time_point now);

  TokenBucketOptions options_;
  double tokens_ = 0;
  Clock::time_point last_refill_;
};

}  // namespace joza::resilience
