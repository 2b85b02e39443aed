#ifndef TSB_CORE_BUILDER_H_
#define TSB_CORE_BUILDER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/pair_topologies.h"
#include "core/store.h"
#include "graph/data_graph.h"
#include "graph/schema_graph.h"
#include "service/thread_pool.h"
#include "storage/catalog.h"

namespace tsb {
namespace core {

/// Offline topology-computation configuration (Section 4.1).
struct BuildConfig {
  /// The l of l-topologies: instance paths of length <= l are considered.
  size_t max_path_length = 3;
  /// Representatives retained per (pair, class); further instances only
  /// bump counters. Definition 2 needs one per class, but all *choices* of
  /// representatives; the cap bounds that product (see UnionLimits).
  size_t max_class_representatives = 32;
  /// Union combinations explored per pair.
  size_t max_union_combinations = 4096;
  /// Cap on simple paths enumerated per source entity (weak-relationship
  /// hubs; Section 6.2.3).
  size_t max_paths_per_source = SIZE_MAX;
  /// Prefix for every precompute table name this build creates (AllTops_*,
  /// PairClasses_*, and the pruner's LeftTops_*/ExcpTops_*). Live rebuilds
  /// stage each epoch under a distinct namespace (e.g. "e1.") so old and
  /// new tables coexist until the old epoch drains.
  std::string table_namespace;
};

/// InvalidArgument for configurations that would silently produce empty
/// pairs (zero path length or zero representative/union caps).
Status ValidateBuildConfig(const BuildConfig& config);

/// The privately staged result of one pair's sweep — everything BuildPair
/// used to write into shared state, buffered instead. Topologies are kept
/// in first-encounter order and addressed by a pair-local TID (the vector
/// index); the commit step interns them into the shared catalog and remaps
/// local to global ids. Staging touches no shared mutable state, so many
/// pairs stage concurrently.
struct PairBuildStaging {
  /// Pair metadata, class registry, and truncation counters; freq and
  /// ClassInfo::path_tid stay in local TID space until commit.
  PairTopologyData data;

  struct StagedTopology {
    graph::LabeledGraph graph;
    std::string code;
    size_t num_classes = 0;
    /// Constituent class keys, merged across local re-observations exactly
    /// like TopologyCatalog::InternWithCode merges them (unseen keys
    /// appended in order), so staged+committed equals direct interning.
    std::vector<std::string> class_keys;
    size_t frequency = 0;  // Staged AllTops rows carrying this topology.
  };
  std::vector<StagedTopology> topologies;  // Index == local TID.
  std::unordered_map<std::string, size_t> local_by_code;

  struct Row {
    int64_t e1 = 0;
    int64_t e2 = 0;
    int64_t v = 0;  // Local TID (AllTops) or class id (PairClasses).
  };
  std::vector<Row> alltops_rows;
  std::vector<Row> pairclasses_rows;

  /// Per class id: local TID of its single-class path topology (kNoTid
  /// when unobserved); remapped into ClassInfo::path_tid at commit.
  std::vector<Tid> class_path_local_tid;
};

/// One pair's swept sources, kept between stagings so a restage re-sweeps
/// only the sources a graph change can reach. A source's sweep (its paths,
/// class keys, union topologies and truncation flags) reads the adjacency
/// of nodes within l-1 hops of the source and nothing else, so its slice
/// stays valid until one of those nodes changes its adjacency; the owner
/// erases such slices before the next StagePair. Class keys (with their
/// canonical schema path) and topologies are pooled once per pair, and a
/// slice holds only pool indices.
///
/// The topology pool carries a shape index: the exact bytes of a union
/// graph as ForEachUnion builds it (node labels in construction order, then
/// the deduplicated (u, v, label) edge triples) map to the pooled topology.
/// A canonical code is a function of that graph, so a sweep canonicalizes
/// only on a shape-index miss (the 28 pairs of a scale-1.0 Biozon build
/// form about 679 k unions of 618 distinct shapes). Keys are compared in
/// full, never by hash alone, and stay valid for any view, so the index
/// survives slice erasure and restaging.
struct SourceMemo {
  /// Pool entry of a path class: the key plus the canonical-direction
  /// schema path of the instance that first produced it. The key fixes
  /// that path unless it steps over a relationship between one entity type
  /// and itself, which can be walked either way; such a key gets one entry
  /// per step direction seen.
  struct PooledClass {
    uint32_t key = 0;  // Index into `keys`.
    graph::SchemaPath path;
  };
  struct PooledTopology {
    std::string code;
    graph::LabeledGraph graph;
  };
  /// One destination of a sweep; its class and topology pool indices are
  /// the next `num_classes` / `num_topologies` entries of the slice.
  struct Dest {
    graph::EntityId b = 0;
    uint32_t num_classes = 0;
    uint32_t num_topologies = 0;
    bool union_truncated = false;
  };
  struct Slice {
    std::vector<Dest> dests;           // Destination order.
    std::vector<uint32_t> classes;     // Class-key order within a dest.
    std::vector<uint32_t> topologies;  // ForEachUnion first-seen order.
    bool source_truncated = false;     // max_paths_per_source fired.
    bool reps_truncated = false;       // max_class_representatives fired.
  };

  /// The pair and caps the slices were swept under. StagePair starts the
  /// memo over when they differ from its own.
  storage::EntityTypeId t1 = 0;
  storage::EntityTypeId t2 = 0;
  BuildConfig config;

  std::vector<std::string> keys;
  std::unordered_map<std::string, uint32_t> key_index;
  std::vector<std::vector<uint32_t>> classes_of_key;  // Parallel to keys.
  std::vector<PooledClass> classes;
  std::vector<PooledTopology> topologies;
  std::unordered_map<std::string, uint32_t> topology_index;  // By code.
  std::unordered_map<std::string, uint32_t> shape_index;     // By shape.

  std::unordered_map<graph::EntityId, Slice> slices;

  /// Sources the last StagePair swept afresh and took from `slices`, and
  /// the canonical searches its sweeps ran (shape-index misses).
  size_t sources_swept = 0;
  size_t sources_reused = 0;
  size_t canonicalized = 0;

  /// Heap footprint estimate (pools, indexes, slices and hash-table nodes).
  size_t ApproxBytes() const;
};

/// Computes the AllTops and PairClasses tables for entity-set pairs: the
/// Topology Computation module of Figure 10. For each source entity it
/// enumerates all simple paths of length <= l to entities of the partner
/// type, groups them into path equivalence classes per destination
/// (Definition 1), unions one representative per class over all choices
/// (Definition 2), interns the resulting canonical graphs, and appends
/// (E1, E2, TID) rows.
///
/// The build is a staged pipeline: StagePair is a pure function of the
/// data graph (no shared-state writes, safe to fan out over a thread
/// pool), and CommitStaged interns staged topologies in deterministic
/// order, remaps local to global TIDs, and registers the tables. Because
/// commits always happen in canonical pair order, a parallel BuildAllPairs
/// produces a store byte-identical (TIDs, class ids, table contents,
/// frequency maps) to the sequential build.
class TopologyBuilder {
 public:
  TopologyBuilder(storage::Catalog* db, const graph::SchemaGraph* schema,
                  const graph::DataGraphView* view)
      : db_(db), schema_(schema), view_(view) {}

  /// Stage step: sweeps one entity-set pair (order-insensitive) into a
  /// private staging buffer. Reads only the immutable data-graph and
  /// schema views — safe to run concurrently for different pairs.
  ///
  /// Two halves: each source entity of t1 is swept on its own (SweepSource,
  /// a pure function of the source's neighbourhood), then an
  /// order-dependent fold walks the sources in EntitiesOfType order,
  /// assigning class ids and local TIDs in first-encounter order. Without
  /// a memo each slice is folded and dropped. With one, slices present in
  /// `memo` are folded as they are and missing ones are swept and kept;
  /// the staging is identical either way as long as every kept slice is
  /// still valid for this view (see SourceMemo).
  Result<PairBuildStaging> StagePair(storage::EntityTypeId ta,
                                     storage::EntityTypeId tb,
                                     const BuildConfig& config,
                                     SourceMemo* memo = nullptr) const;

  /// Commit step: interns staged topologies (first-encounter order),
  /// remaps local TIDs, creates and fills the pair's tables in the storage
  /// catalog, and registers the pair in `store`. Single-threaded by
  /// contract; callers serialize commits (canonical pair order for
  /// determinism). Fails without side effects if the pair already exists;
  /// created tables are dropped again on downstream failure.
  Status CommitStaged(PairBuildStaging staging, TopologyStore* store);

  /// Stage + commit of one pair. Fails if the pair was already built.
  Status BuildPair(storage::EntityTypeId ta, storage::EntityTypeId tb,
                   const BuildConfig& config, TopologyStore* store);

  /// Sharded stage + commit of one pair: one staged sweep, split with
  /// SplitStagingForShards, one commit per shard (see the sharded
  /// BuildAllPairs for the replication contract).
  Status BuildPair(storage::EntityTypeId ta, storage::EntityTypeId tb,
                   const BuildConfig& config,
                   const std::vector<TopologyStore*>& shards);

  /// Builds every unordered pair of entity types that the schema connects
  /// with at least one path of length <= l. With a pool, stage steps fan
  /// out over its workers while this thread commits results in canonical
  /// pair order; without one (or with a single-threaded pool) the build
  /// runs sequentially. Both paths produce byte-identical stores.
  Status BuildAllPairs(const BuildConfig& config, TopologyStore* store,
                       service::ThreadPool* pool = nullptr);

  /// Shard-aware overload: stages each pair exactly once, splits the staged
  /// result with SplitStagingForShards, and routes each slice's
  /// CommitStaged to its owning shard store (slice i's AllTops rows are the
  /// rows ShardOfEntityPair assigns to shard i). Every shard interns every
  /// topology in the same first-encounter order, so the N shard catalogs
  /// are identical to each other and to an unsharded build's catalog —
  /// TIDs are globally consistent, and per-shard freq maps stay *global*
  /// (scores must not depend on which shard scores them). Tables land
  /// under storage::ShardNamespace(config.table_namespace, i); a single
  /// shard keeps config.table_namespace itself (it is the whole store).
  Status BuildAllPairs(const BuildConfig& config,
                       const std::vector<TopologyStore*>& shards,
                       service::ThreadPool* pool = nullptr);

 private:
  /// Splits `staging` with SplitStagingForShards and commits slice i to
  /// shards[i]; the shared commit step of the sharded build flavors.
  Status CommitStagingToShards(PairBuildStaging staging,
                               const std::vector<TopologyStore*>& shards);

  /// Shared staged pipeline of the two BuildAllPairs flavors: enumerates
  /// buildable pairs (skipping ones `built` says exist), stages over the
  /// pool (windowed), and hands each staging to `commit` in canonical pair
  /// order on this thread.
  Status StageAndCommitAll(
      const BuildConfig& config, service::ThreadPool* pool,
      const std::function<bool(storage::EntityTypeId, storage::EntityTypeId)>&
          built,
      const std::function<Status(PairBuildStaging)>& commit);

  /// Sweeps one source into a slice, interning its class keys and
  /// topologies into `pools`.
  SourceMemo::Slice SweepSource(graph::EntityId a,
                                storage::EntityTypeId partner_type,
                                bool self_pair, const BuildConfig& config,
                                SourceMemo* pools) const;
  /// Pool index of the class `key` with `first` as its first instance.
  uint32_t InternClass(const std::string& key,
                       const graph::PathInstance& first,
                       SourceMemo* pools) const;

  storage::Catalog* db_;
  const graph::SchemaGraph* schema_;
  const graph::DataGraphView* view_;
};

/// Splits one pair's staging into `num_shards` per-shard slices. AllTops
/// rows are partitioned by ShardOfEntityPair; everything rankings and
/// online checks depend on is *replicated* so every shard answers exactly
/// like the whole store would:
///   - the staged topology list (slice catalogs intern all of it, keeping
///     TID assignment identical across shards),
///   - per-topology frequencies (committed freq maps stay global),
///   - the class registry with global instance_pairs / num_related_pairs,
///   - PairClasses rows (so per-shard pruning derives the *complete*
///     exception table — the online pruned check consults it against the
///     shared data graph, which is not sharded).
/// Slice i's tables are renamed under ShardNamespace(base namespace, i).
/// Each row is copied once, into its slice; with one shard the staging
/// itself is the only slice, table names unchanged.
std::vector<PairBuildStaging> SplitStagingForShards(PairBuildStaging staging,
                                                   size_t num_shards);

}  // namespace core
}  // namespace tsb

#endif  // TSB_CORE_BUILDER_H_
