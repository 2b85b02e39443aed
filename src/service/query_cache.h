#ifndef TSB_SERVICE_QUERY_CACHE_H_
#define TSB_SERVICE_QUERY_CACHE_H_

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "engine/nquery.h"
#include "engine/query.h"

namespace tsb {
namespace service {

/// --- Canonical fingerprints ------------------------------------------------
///
/// A fingerprint is the canonical binary image of (query, method, options):
/// two requests that must produce identical results map to the same bytes,
/// and requests that differ in any predicate value never do. A query side is its entity set plus its
/// predicate's wire image (Predicate::EncodeWire; a missing predicate is
/// TRUE), and the sides are sorted as byte strings, so
///   { (A, p1), (B, p2) }  and  { (B, p2), (A, p1) }
/// hit the same cache entry (the engine guarantees orientation-independent
/// results; see engine_test's QuerySwappedEntityOrderGivesSameSet). The
/// ranking scheme, k (normalized to 0 for non-top-k methods),
/// weak-exclusion, the method and the plan-shaping ExecOptions follow.
std::string FingerprintQuery(const engine::TopologyQuery& query,
                             engine::MethodKind method,
                             const engine::ExecOptions& options);

/// Same image for 3-queries: the three sorted sides, then the two caps.
std::string FingerprintTripleQuery(const engine::TripleQuery& query);

/// Compact 128-bit digest of a fingerprint: the cache's shard selector
/// (and any logging that wants a short stable id). The cache itself keys
/// entries on the full string for exactness.
Hash128 FingerprintDigest(const std::string& fingerprint);

/// Approximate heap footprint of a cached value, for the byte budget.
size_t CachedCost(const engine::QueryResult& result);
size_t CachedCost(const engine::TripleQueryResult& result);

/// --- The cache -------------------------------------------------------------

struct QueryCacheConfig {
  /// Independent LRU shards; a key's shard is a hash of its fingerprint.
  /// More shards reduce lock contention under concurrent clients.
  size_t num_shards = 8;
  /// Total byte budget across shards (each shard gets an equal slice).
  /// Inserting a value evicts least-recently-used entries until the shard
  /// fits; a single value larger than a shard's slice is not admitted.
  size_t max_bytes = 64ull << 20;
};

/// A sharded, byte-budgeted LRU mapping canonical fingerprints to immutable
/// results. Values are shared_ptr<const V>: hits hand out refcounted
/// pointers, so eviction never invalidates a result a client still holds.
///
/// Thread safety: all operations are safe from any thread (per-shard
/// mutexes). Clear() is the explicit invalidation hook — the owner must
/// call it whenever the underlying store/tables are rebuilt, since entries
/// derive from that data.
template <typename V>
class ShardedLruCache {
 public:
  struct Stats {
    size_t entries = 0;
    size_t bytes = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    uint64_t clears = 0;
  };

  explicit ShardedLruCache(QueryCacheConfig config = QueryCacheConfig{})
      : config_(config),
        shards_(std::max<size_t>(1, config.num_shards)) {
    shard_budget_ = config_.max_bytes / shards_.size();
  }

  /// Returns the cached value and refreshes its recency, or nullptr.
  std::shared_ptr<const V> Lookup(const std::string& key) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      ++shard.misses;
      return nullptr;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
    ++shard.hits;
    return it->second.value;
  }

  /// Inserts (or replaces) `value` under `key`, evicting LRU entries to
  /// stay within the shard budget. Returns false if the value alone
  /// exceeds the budget (not admitted).
  bool Insert(const std::string& key, std::shared_ptr<const V> value) {
    const size_t cost = key.size() + CachedCost(*value) + kEntryOverhead;
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (cost > shard_budget_) return false;
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      shard.bytes -= it->second.cost;
      shard.lru.erase(it->second.lru_pos);
      shard.map.erase(it);
    }
    while (shard.bytes + cost > shard_budget_ && !shard.lru.empty()) {
      EvictOneLocked(&shard);
    }
    shard.lru.push_front(key);
    shard.map.emplace(key,
                      Entry{std::move(value), shard.lru.begin(), cost});
    shard.bytes += cost;
    ++shard.insertions;
    return true;
  }

  /// Drops every entry whose key starts with `prefix` — the targeted
  /// invalidation hook of the mutation path, which prefixes keys with a
  /// per-pair generation stamp. Scans all shards (a prefix spans them, as
  /// shard selection hashes the full key); with entry counts bounded by
  /// the byte budget this stays far cheaper than re-running the evicted
  /// queries. Returns the number of entries dropped.
  size_t EvictByPrefix(const std::string& prefix) {
    size_t dropped = 0;
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (auto it = shard.map.begin(); it != shard.map.end();) {
        if (it->first.compare(0, prefix.size(), prefix) == 0) {
          shard.bytes -= it->second.cost;
          shard.lru.erase(it->second.lru_pos);
          it = shard.map.erase(it);
          ++shard.evictions;
          ++dropped;
        } else {
          ++it;
        }
      }
    }
    return dropped;
  }

  /// Drops every entry (invalidation on store rebuild).
  void Clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.map.clear();
      shard.lru.clear();
      shard.bytes = 0;
    }
    clears_.fetch_add(1, std::memory_order_relaxed);
  }

  Stats GetStats() const {
    Stats total;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total.entries += shard.map.size();
      total.bytes += shard.bytes;
      total.hits += shard.hits;
      total.misses += shard.misses;
      total.insertions += shard.insertions;
      total.evictions += shard.evictions;
    }
    total.clears = clears_.load(std::memory_order_relaxed);
    return total;
  }

  size_t shard_budget() const { return shard_budget_; }
  size_t num_shards() const { return shards_.size(); }

  /// Fixed bookkeeping charge per entry (map node, list node, pointers);
  /// public so tests and capacity planning can compute exact budgets.
  static constexpr size_t kEntryOverhead = 128;

 private:
  struct Entry {
    std::shared_ptr<const V> value;
    typename std::list<std::string>::iterator lru_pos;
    size_t cost = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    std::list<std::string> lru;  // Front = most recent.
    std::unordered_map<std::string, Entry> map;
    size_t bytes = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
  };

  Shard& ShardFor(const std::string& key) {
    return shards_[FingerprintDigest(key).lo % shards_.size()];
  }

  void EvictOneLocked(Shard* shard) {
    const std::string& victim = shard->lru.back();
    auto it = shard->map.find(victim);
    shard->bytes -= it->second.cost;
    shard->map.erase(it);
    shard->lru.pop_back();
    ++shard->evictions;
  }

  QueryCacheConfig config_;
  size_t shard_budget_ = 0;
  std::vector<Shard> shards_;
  std::atomic<uint64_t> clears_{0};
};

using QueryCache = ShardedLruCache<engine::QueryResult>;
using TripleQueryCache = ShardedLruCache<engine::TripleQueryResult>;

}  // namespace service
}  // namespace tsb

#endif  // TSB_SERVICE_QUERY_CACHE_H_
