#ifndef TSB_SHARD_SHARDED_STORE_H_
#define TSB_SHARD_SHARDED_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/builder.h"
#include "core/store.h"
#include "service/thread_pool.h"
#include "storage/catalog.h"

namespace tsb {
namespace shard {

/// N independent TopologyStore instances holding a hash partition of the
/// precomputed pair topologies — the multi-store substrate the ROADMAP
/// names as the step toward multi-node scale.
///
/// Partitioning unit: the canonical *entity* pair. Every AllTops (and
/// derived LeftTops) row (E1, E2, TID) lives on exactly the shard
/// core::ShardOfEntityPair(E1, E2, N) names. Everything ranking and online
/// verification depend on is replicated on every shard, so a shard answers
/// a sub-query exactly like the whole store would over its slice:
///
///   - the topology catalog: each shard interns every topology in the same
///     first-encounter order, so the N catalogs are identical to an
///     unsharded build's catalog and TIDs are globally consistent;
///   - per-pair frequency maps (and class instance counts): global counts,
///     so scores — and therefore ranks — never depend on which shard
///     computes them;
///   - PairClasses and the pruner's ExcpTops: the online pruned check runs
///     against the shared (unsharded) data graph and must consult the
///     complete exception set.
///
/// A query therefore scatters over the shards owning its rows, each shard
/// returns a locally-ranked partial, and a k-way merge reconstructs the
/// global ranking byte-identically (see ScatterGatherExecutor).
///
/// Each shard sits behind its own core::StoreHandle, so a live rebuild can
/// roll shards independently: readers pin per-shard snapshots, and a swap
/// of shard i never disturbs in-flight sub-queries on shard j.
class ShardedTopologyStore {
 public:
  /// Wraps `shards` (typically fresh empty stores to be built into, or the
  /// output of a sharded TopologyBuilder::BuildAllPairs).
  explicit ShardedTopologyStore(
      std::vector<std::shared_ptr<core::TopologyStore>> shards);

  /// Wraps existing epoch handles, e.g. one engine's own handle, so a
  /// one-shard store reads and swaps exactly the store that engine serves.
  explicit ShardedTopologyStore(
      std::vector<std::shared_ptr<core::StoreHandle>> handles);

  /// Convenience: `num_shards` fresh empty stores.
  explicit ShardedTopologyStore(size_t num_shards);

  ShardedTopologyStore(const ShardedTopologyStore&) = delete;
  ShardedTopologyStore& operator=(const ShardedTopologyStore&) = delete;

  size_t num_shards() const { return handles_.size(); }

  /// The partitioning function (delegates to core::ShardOfEntityPair).
  static size_t OwnerShard(int64_t e1, int64_t e2, size_t num_shards) {
    return core::ShardOfEntityPair(e1, e2, num_shards);
  }

  /// Shard i's epoch handle (shared with the per-shard engines, so swaps
  /// propagate to query execution).
  const std::shared_ptr<core::StoreHandle>& handle(size_t shard) const {
    return handles_[shard];
  }

  /// Current snapshot of shard i.
  std::shared_ptr<core::TopologyStore> Snapshot(size_t shard) const {
    return handles_[shard]->Snapshot();
  }

  /// One consistent-read set: the current snapshot of every shard.
  std::vector<std::shared_ptr<core::TopologyStore>> SnapshotAll() const;

  /// The primary (shard 0) snapshot: the catalog replica that 3-queries
  /// intern new triple topologies into and that TopInfo exports read.
  std::shared_ptr<core::TopologyStore> Primary() const {
    return handles_[0]->Snapshot();
  }

  /// Builds all pairs into the current shard stores with the shard-aware
  /// TopologyBuilder overload; tables land under
  /// storage::ShardNamespace(config.table_namespace, i) per shard (a
  /// single shard keeps the base namespace).
  Status Build(core::TopologyBuilder* builder,
               const core::BuildConfig& config,
               service::ThreadPool* pool = nullptr);

  /// Per-shard epoch swap: publishes `next` as shard i and returns the
  /// retired store (alive until its last snapshot releases).
  std::shared_ptr<core::TopologyStore> SwapShard(
      size_t shard, std::shared_ptr<core::TopologyStore> next) {
    return handles_[shard]->Swap(next);
  }

  /// Compact per-shard epoch stamp, e.g. "s2[0,0]" for 2 fresh shards —
  /// the shard-aware component of the service's cache fingerprints. Any
  /// shard rolling forward changes the stamp, so post-swap lookups can
  /// never hit a retired epoch's cached result. One shard is the whole
  /// store and stamps like one: "e<epoch>".
  std::string EpochStamp() const;

 private:
  std::vector<std::shared_ptr<core::StoreHandle>> handles_;
};

/// AllTops rows per shard store — the partition-skew observable the
/// service metrics and RebuildStats report (first half of the ROADMAP
/// shard-rebalancing item). Tables absent from `db` count zero.
std::vector<uint64_t> ShardAllTopsRowCounts(
    const storage::Catalog& db,
    const std::vector<const core::TopologyStore*>& stores);

}  // namespace shard
}  // namespace tsb

#endif  // TSB_SHARD_SHARDED_STORE_H_
