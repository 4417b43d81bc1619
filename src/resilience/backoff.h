// Respawn pacing primitives: exponential backoff and token buckets.
//
// Both are policy objects for the self-healing serving tier. A supervisor
// that respawns a crashing daemon as fast as fork(2) allows turns one bad
// binary into a fork storm; backoff spaces the attempts out, and the token
// bucket caps how much respawn (or retry) work the tier may spend per unit
// time no matter how the failures arrive.
//
// Determinism: the jitter is derived from the attempt counter via a fixed
// integer hash, not an RNG, so chaos tests replay identical schedules.
// Both classes take explicit time points so tests can drive a fake clock;
// production callers pass Clock::now().
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>

namespace joza::resilience {

struct BackoffOptions {
  std::chrono::milliseconds base{50};   // delay after the first failure
  std::chrono::milliseconds max{5000};  // cap for the exponential growth
  // Jitter fraction in [0, 1): each delay is scaled into
  // [1 - jitter, 1] * nominal, keyed off the attempt counter.
  double jitter = 0.25;
};

// Exponential backoff with deterministic jitter. Not thread-safe; callers
// (the supervisor) hold their own lock.
class ExponentialBackoff {
 public:
  using Clock = std::chrono::steady_clock;

  explicit ExponentialBackoff(BackoffOptions options = {});

  // Records one failure at `now`: the next attempt is allowed only after
  // Delay(failures) has elapsed.
  void RecordFailure(Clock::time_point now);
  // Success resets the schedule: the next failure starts at `base` again.
  void Reset();

  bool AllowedAt(Clock::time_point now) const;
  Clock::time_point next_allowed() const { return next_allowed_; }
  std::size_t consecutive_failures() const { return consecutive_failures_; }

  // The nominal-with-jitter delay that follows the `failures`-th
  // consecutive failure (1-based). Exposed for tests.
  std::chrono::milliseconds Delay(std::size_t failures) const;

 private:
  BackoffOptions options_;
  std::size_t consecutive_failures_ = 0;
  Clock::time_point next_allowed_{};  // epoch: always allowed initially
};

struct TokenBucketOptions {
  double capacity = 10;          // burst size
  double refill_per_sec = 0.5;   // sustained rate
  double initial = -1;           // < 0 starts full
};

// Continuous-refill token bucket. Not thread-safe on its own (owners lock).
class TokenBucket {
 public:
  using Clock = std::chrono::steady_clock;

  explicit TokenBucket(TokenBucketOptions options, Clock::time_point now);

  // Withdraws `cost` tokens if available at `now`. False = budget denied.
  bool TryWithdraw(double cost, Clock::time_point now);
  // Deposits tokens directly (success-coupled budgets: each success earns
  // back a fraction of a retry). Clamped to capacity.
  void Deposit(double amount);

 private:
  void Refill(Clock::time_point now);

  TokenBucketOptions options_;
  double tokens_ = 0;
  Clock::time_point last_refill_;
};

}  // namespace joza::resilience
