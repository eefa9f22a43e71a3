// Sharded, generation-stamped lookup cache — the primitive behind the
// serving layer's fingerprint-keyed plan cache. Three properties matter
// there and are built in here:
//
//   * Sharding: the 64-bit key picks one of N independently locked
//     shards, so concurrent serving threads rarely contend on one mutex.
//   * Aliasing guard: a 64-bit fingerprint is not an identity — two
//     structurally different queries can collide. Every entry therefore
//     stores an exact identity string (for queries: the reconstructed
//     SQL, which is name-independent) and a Lookup whose identity does
//     not match byte-for-byte is a miss. A colliding Insert overwrites,
//     so at most one identity ever occupies a key.
//   * Generation stamping: entries record the policy generation that
//     produced the value; a Lookup from a newer generation treats the
//     entry as stale (a miss), which is how a published policy swap
//     invalidates the whole cache lazily, without a stop-the-world sweep.
#ifndef HFQ_UTIL_SHARDED_CACHE_H_
#define HFQ_UTIL_SHARDED_CACHE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/check.h"

namespace hfq {

/// Aggregate counters of one cache instance (monotonic, approximate
/// ordering under concurrency but exact totals).
struct ShardedCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;          ///< Key absent.
  uint64_t stale_misses = 0;    ///< Key present, older policy generation.
  uint64_t alias_rejects = 0;   ///< Key present, identity mismatch.
  uint64_t insertions = 0;
  uint64_t evictions = 0;
};

/// Fixed-shard-count cache from (uint64 key, identity string, generation)
/// to V. V must be copyable (the serving layer stores
/// shared_ptr<const PlanNode>, so a "copy" is a refcount bump). Each shard
/// holds at most `capacity_per_shard` entries; inserting into a full shard
/// evicts the least-recently-used entry of that shard.
template <typename V>
class ShardedGenCache {
 public:
  /// `num_shards` is rounded up to a power of two (>= 1) so the shard
  /// index is a mask, not a division.
  explicit ShardedGenCache(int num_shards = 16, int capacity_per_shard = 256)
      : capacity_per_shard_(capacity_per_shard) {
    HFQ_CHECK(num_shards >= 1 && capacity_per_shard >= 1);
    int rounded = 1;
    while (rounded < num_shards) rounded <<= 1;
    shards_ = std::vector<Shard>(static_cast<size_t>(rounded));
  }

  /// True (and *out filled) only when `key` is present with an entry whose
  /// identity matches byte-for-byte AND whose generation equals
  /// `generation`. An identity mismatch (fingerprint aliasing) or an older
  /// generation (policy swapped since the entry was cached) is a miss.
  bool Lookup(uint64_t key, const std::string& identity, uint64_t generation,
              V* out) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(key);
    if (it == shard.entries.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (it->second.identity != identity) {
      alias_rejects_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (it->second.generation != generation) {
      stale_misses_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    it->second.last_use = ++shard.tick;
    *out = it->second.value;
    hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Installs (key -> value) stamped with `identity` + `generation`,
  /// overwriting any previous occupant of the key (including an aliasing
  /// or stale one). Evicts the shard's LRU entry when the shard is full.
  void Insert(uint64_t key, std::string identity, uint64_t generation,
              V value) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(key);
    if (it == shard.entries.end() &&
        static_cast<int>(shard.entries.size()) >= capacity_per_shard_) {
      EvictLruLocked(&shard);
    }
    Entry& entry = shard.entries[key];
    entry.identity = std::move(identity);
    entry.generation = generation;
    entry.value = std::move(value);
    entry.last_use = ++shard.tick;
    insertions_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Drops every entry (stats survive).
  void Clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.entries.clear();
    }
  }

  size_t size() const {
    size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total += shard.entries.size();
    }
    return total;
  }

  int num_shards() const { return static_cast<int>(shards_.size()); }

  ShardedCacheStats stats() const {
    ShardedCacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.stale_misses = stale_misses_.load(std::memory_order_relaxed);
    s.alias_rejects = alias_rejects_.load(std::memory_order_relaxed);
    s.insertions = insertions_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  struct Entry {
    std::string identity;
    uint64_t generation = 0;
    V value{};
    uint64_t last_use = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, Entry> entries;
    uint64_t tick = 0;

    Shard() = default;
    // vector<Shard> construction only; shards are never copied while live.
    Shard(const Shard&) {}
  };

  Shard& ShardFor(uint64_t key) {
    // Upper bits: the low bits of a structural fingerprint are already
    // well mixed, but masking high bits keeps us honest for weaker keys.
    const uint64_t mixed = key ^ (key >> 32);
    return shards_[static_cast<size_t>(mixed) &
                   (shards_.size() - 1)];
  }

  void EvictLruLocked(Shard* shard) {
    auto victim = shard->entries.begin();
    for (auto it = shard->entries.begin(); it != shard->entries.end(); ++it) {
      if (it->second.last_use < victim->second.last_use) victim = it;
    }
    shard->entries.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }

  int capacity_per_shard_;
  std::vector<Shard> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> stale_misses_{0};
  std::atomic<uint64_t> alias_rejects_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace hfq

#endif  // HFQ_UTIL_SHARDED_CACHE_H_
