#include "resilience/backoff.h"

#include <algorithm>

namespace joza::resilience {

namespace {

// splitmix64 finalizer: cheap, well-mixed, and pure — the jitter source.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

ExponentialBackoff::ExponentialBackoff(BackoffOptions options)
    : options_(options) {
  options_.jitter = std::clamp(options_.jitter, 0.0, 0.999);
  if (options_.base.count() < 1) options_.base = std::chrono::milliseconds(1);
  if (options_.max < options_.base) options_.max = options_.base;
}

std::chrono::milliseconds ExponentialBackoff::Delay(
    std::size_t failures) const {
  if (failures == 0) return std::chrono::milliseconds(0);
  // base * 2^(failures-1), saturating at max before the multiply overflows.
  std::int64_t nominal = options_.base.count();
  for (std::size_t i = 1; i < failures && nominal < options_.max.count();
       ++i) {
    nominal *= 2;
  }
  nominal = std::min<std::int64_t>(nominal, options_.max.count());
  // Deterministic jitter: scale into [1 - jitter, 1] keyed by the attempt
  // index, so two supervisors crash-looping in sync do not respawn in sync.
  const double unit =
      static_cast<double>(Mix64(failures) >> 11) / 9007199254740992.0;  // 2^53
  const double scale = 1.0 - options_.jitter * unit;
  const auto jittered = static_cast<std::int64_t>(
      static_cast<double>(nominal) * scale);
  return std::chrono::milliseconds(std::max<std::int64_t>(jittered, 1));
}

void ExponentialBackoff::RecordFailure(Clock::time_point now) {
  ++consecutive_failures_;
  next_allowed_ = now + Delay(consecutive_failures_);
}

void ExponentialBackoff::Reset() {
  consecutive_failures_ = 0;
  next_allowed_ = Clock::time_point{};
}

bool ExponentialBackoff::AllowedAt(Clock::time_point now) const {
  return now >= next_allowed_;
}

TokenBucket::TokenBucket(TokenBucketOptions options, Clock::time_point now)
    : options_(options), last_refill_(now) {
  if (options_.capacity < 0) options_.capacity = 0;
  tokens_ = options_.initial < 0
                ? options_.capacity
                : std::min(options_.initial, options_.capacity);
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

void TokenBucket::Deposit(double amount) {
  tokens_ = std::min(options_.capacity, tokens_ + amount);
}

}  // namespace joza::resilience
