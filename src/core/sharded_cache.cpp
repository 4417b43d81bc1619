#include "core/sharded_cache.h"

#include <algorithm>

namespace joza::core {

namespace {

// kShards capped at the largest power of two <= capacity, so the shards
// together never hold more than the capacity.
std::size_t ShardCount(std::size_t capacity) {
  std::size_t n = ShardedSafetyCache::kShards;
  while (n > capacity) n >>= 1;
  return n;
}

std::size_t Log2(std::size_t pow2) {
  std::size_t bits = 0;
  while (pow2 > 1) {
    pow2 >>= 1;
    ++bits;
  }
  return bits;
}

}  // namespace

ShardedSafetyCache::ShardedSafetyCache(std::size_t capacity)
    : shards_(ShardCount(std::max<std::size_t>(capacity, 1))) {
  per_shard_cap_ = std::max<std::size_t>(capacity, 1) / shards_.size();
  shard_shift_ = 64 - Log2(shards_.size());
}

ShardedSafetyCache::Shard& ShardedSafetyCache::ShardFor(std::uint64_t hash) {
  // Multiply-shift spreads FNV hashes evenly over the power-of-two shards;
  // taking high bits keeps shard choice independent of the index buckets.
  const std::uint64_t mixed = hash * 0x9e3779b97f4a7c15ull;
  return shards_[shard_shift_ >= 64 ? 0 : mixed >> shard_shift_];
}

bool ShardedSafetyCache::Lookup(std::uint64_t hash) {
  Shard& shard = ShardFor(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(hash);
  if (it == shard.index.end()) return false;
  shard.slots[it->second].referenced = true;
  return true;
}

void ShardedSafetyCache::Insert(std::uint64_t hash) {
  Shard& shard = ShardFor(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (auto it = shard.index.find(hash); it != shard.index.end()) {
    shard.slots[it->second].referenced = true;
    return;
  }
  if (shard.slots.size() < per_shard_cap_) {
    shard.index.emplace(hash, shard.slots.size());
    shard.slots.push_back(Slot{hash, false});
    return;
  }
  // CLOCK: sweep until a slot with a clear reference bit turns up; each
  // pass clears bits, so the sweep terminates within two revolutions.
  for (;;) {
    Slot& victim = shard.slots[shard.hand];
    if (victim.referenced) {
      victim.referenced = false;
      shard.hand = (shard.hand + 1) % shard.slots.size();
      continue;
    }
    shard.index.erase(victim.hash);
    shard.index.emplace(hash, shard.hand);
    victim = Slot{hash, false};
    shard.hand = (shard.hand + 1) % shard.slots.size();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
}

void ShardedSafetyCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.slots.clear();
    shard.index.clear();
    shard.hand = 0;
  }
}

std::size_t ShardedSafetyCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.slots.size();
  }
  return total;
}

}  // namespace joza::core
