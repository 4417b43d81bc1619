// Sharded, thread-safe, bounded cache of safe-verdict hashes.
//
// The query cache and structure cache hold 64-bit hashes of queries PTI has
// deemed safe. Under the concurrent gateway many worker threads consult and
// update them on every request, and under sustained traffic an unbounded set
// would grow without limit (every distinct search term inserts a new query
// hash). This cache solves both: keys are spread over independently locked
// shards (striped locking, so unrelated lookups never contend), and each
// shard is bounded with CLOCK second-chance eviction — an LRU approximation
// that keeps the hot working set resident with O(1) amortized updates.
// Eviction is safety-preserving: it can only *forget* a safe verdict
// (forcing a redundant PTI re-run), never grant one.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace joza::core {

class ShardedSafetyCache {
 public:
  // Lock-striping width: kShards, or the largest power of two <= capacity
  // when that is smaller, so every shard keeps at least one slot.
  static constexpr std::size_t kShards = 16;

  // `capacity` bounds the total entry count across all shards (a capacity
  // of 0 is taken as 1).
  explicit ShardedSafetyCache(std::size_t capacity);

  ShardedSafetyCache(const ShardedSafetyCache&) = delete;
  ShardedSafetyCache& operator=(const ShardedSafetyCache&) = delete;

  // Returns true iff `hash` is cached; marks the entry recently-used.
  bool Lookup(std::uint64_t hash);

  // Inserts `hash`, evicting the coldest entry of its shard when the shard
  // is at capacity. Idempotent.
  void Insert(std::uint64_t hash);

  // Drops every entry (fragment-vocabulary changes invalidate verdicts).
  void Clear();

  std::size_t size() const;
  std::size_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    bool referenced = false;  // CLOCK second-chance bit
  };
  struct Shard {
    mutable std::mutex mu;
    // Ring of slots walked by the clock hand, plus an index.
    std::vector<Slot> slots;
    std::unordered_map<std::uint64_t, std::size_t> index;  // hash -> slot
    std::size_t hand = 0;
  };

  Shard& ShardFor(std::uint64_t hash);

  std::size_t per_shard_cap_;  // >= 1
  std::size_t shard_shift_;    // 64 - log2(shard count)
  std::atomic<std::size_t> evictions_{0};
  std::vector<Shard> shards_;
};

}  // namespace joza::core
