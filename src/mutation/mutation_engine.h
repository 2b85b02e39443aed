#ifndef TSB_MUTATION_MUTATION_ENGINE_H_
#define TSB_MUTATION_MUTATION_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "core/builder.h"
#include "core/store.h"
#include "graph/data_graph.h"
#include "graph/schema_graph.h"
#include "mutation/delta_log.h"
#include "mutation/dirty_tracker.h"
#include "mutation/mutation.h"
#include "obs/registry.h"
#include "storage/catalog.h"

namespace tsb {
namespace mutation {

/// Outcome of one applied batch.
struct ApplyStats {
  uint64_t generation = 0;     // Monotonic batch counter (1-based).
  size_t applied_ops = 0;      // Ops in the batch (cascades not counted).
  size_t structural_pairs = 0; // Pairs re-staged into the overlay epoch.
  size_t cache_only_pairs = 0; // Pairs needing only cache eviction.
  size_t sources_swept = 0;    // Restaged pairs' sources swept afresh.
  size_t sources_reused = 0;   // ... and folded from the source memo.
  double apply_seconds = 0.0;
  DirtyPairs dirty;            // For the caller's cache invalidation.
};

/// Outcome of one compaction fold.
struct CompactionStats {
  uint64_t round = 0;
  uint64_t generations_folded = 0;
  size_t pairs_folded = 0;   // Pair table sets copied (summed over shards).
  size_t tables_copied = 0;
  double fold_seconds = 0.0;
};

/// The incremental write path: applies mutation batches to the live store
/// WITHOUT a full rebuild, keeping every query method byte-identical to a
/// from-scratch rebuild of the mutated graph.
///
/// LSM shape over precomputed topology data:
///  - WAL (DeltaLog, optional): ApplyLogged validates the batch once,
///    fsyncs it, then publishes it; Replay() re-applies recovered batches
///    on startup.
///  - Overlay: Apply composes a NEW TopologyStore per shard — clean pairs'
///    PairTopologyData copied verbatim (their tables stay owned by the
///    previous epoch, which the new store keeps alive via its cleanup
///    chain), dirty pairs re-staged from the mutated graph under an
///    "m<generation>." namespace — and publishes it through the existing
///    StoreHandle swap. Data tables are never edited in place: a touched
///    entity/relationship table is copy-on-write versioned and reached
///    through TopologyStore::ResolveDataTable, so retired snapshots keep
///    reading their own bytes.
///  - Source memo: a pair's rows are built one source entity at a time
///    from paths of length <= l, and a source's sweep reads only nodes
///    within l-1 hops of it, so the engine keeps every restaged pair's
///    swept sources (a core::SourceMemo, filled the first time the pair is
///    restaged). Each batch erases, from every memo, the sources within
///    l-1 hops of a node whose adjacency the batch changes, measured in
///    both the old and the new graph; the restage re-sweeps only those and
///    re-folds the rest, yielding the same tables and TIDs as a fresh
///    StagePair. Memos follow the stores this engine publishes: a failed
///    batch drops its dirty pairs' memos, a store swapped in by anyone
///    else (a service Rebuild) drops them all, and compaction keeps them
///    (the graph is unchanged).
///  - Compaction: CompactNow (or the background lane) folds the live
///    overlay chain into a self-contained "c<round>." epoch per shard, so
///    retired generations and their tables can unwind.
///
/// Sharding: construct with one StoreHandle for the single-store engine or
/// N handles for the sharded store; dirty pairs are re-staged once and
/// split with the same SplitStagingForShards routing as the base build.
///
/// Thread safety: Apply/ApplyLogged/Replay/CompactNow serialize on an
/// internal mutex; queries are never blocked (they read snapshots). The
/// engine must be the only writer swapping these handles (a concurrent
/// full Rebuild must be externally serialized against it).
class MutationEngine : public obs::MetricsSource {
 public:
  struct Options {
    /// Must match the config the base store was built with; the per-pair
    /// recorded caps (l, representatives, unions) take precedence when
    /// re-staging each pair.
    core::BuildConfig build;
    /// Fold automatically once this many generations accumulate (checked
    /// every `compaction_poll` by the background lane).
    size_t compaction_min_generations = 4;
    std::chrono::milliseconds compaction_poll{100};
    /// Pause between per-pair folds — the low-priority throttle that keeps
    /// compaction from starving interactive traffic.
    std::chrono::microseconds compaction_pair_pause{500};
  };

  MutationEngine(storage::Catalog* db, const graph::SchemaGraph* schema,
                 std::vector<std::shared_ptr<core::StoreHandle>> handles,
                 Options options);
  ~MutationEngine() override;

  MutationEngine(const MutationEngine&) = delete;
  MutationEngine& operator=(const MutationEngine&) = delete;

  /// Attaches the WAL used by ApplyLogged (not owned; may be null).
  void set_delta_log(DeltaLog* log) { log_ = log; }

  /// Called after each successful apply with the batch's dirty pairs, on
  /// the applying thread — the service hooks per-pair cache eviction here.
  using InvalidationCallback = std::function<void(const DirtyPairs&)>;
  void set_invalidation_callback(InvalidationCallback cb) {
    invalidate_ = std::move(cb);
  }

  /// Validates and applies one batch, swapping the overlay epoch in. No
  /// side effects on failure. Does not touch the WAL.
  Result<ApplyStats> Apply(const MutationBatch& batch);

  /// Apply + WAL append: the batch is durable when this returns OK (a
  /// crash before the append loses only the unacknowledged batch).
  Result<ApplyStats> ApplyLogged(const MutationBatch& batch);

  /// Re-applies batches recovered by DeltaLog::Open, in order, without
  /// re-logging them.
  Status Replay(const std::vector<MutationBatch>& batches);

  /// Folds the live overlay chain into a fresh self-contained epoch.
  /// No-op (zero stats) when nothing accumulated. Serialized against
  /// Apply; queries keep flowing off snapshots throughout.
  Result<CompactionStats> CompactNow();

  /// Background compaction lane (idempotent start/stop).
  void StartCompaction();
  void StopCompaction();

  size_t num_shards() const { return handles_.size(); }
  uint64_t generation() const {
    return generation_.load(std::memory_order_relaxed);
  }
  uint64_t uncompacted_generations() const {
    return uncompacted_generations_.load(std::memory_order_relaxed);
  }
  bool compaction_running() const {
    return compacting_.load(std::memory_order_relaxed);
  }
  uint64_t batches_applied() const {
    return batches_applied_.load(std::memory_order_relaxed);
  }
  uint64_t ops_applied() const {
    return ops_applied_.load(std::memory_order_relaxed);
  }
  uint64_t compaction_rounds() const {
    return compaction_round_.load(std::memory_order_relaxed);
  }
  /// Estimated heap bytes of the source memos, as of the last apply.
  size_t source_memo_bytes() const {
    return source_memo_bytes_.load(std::memory_order_relaxed);
  }

  /// A copy of one pair's source memo (nullopt before its first restage).
  std::optional<core::SourceMemo> SourceMemoOf(const TypePair& pair) const;

  /// Human-readable status block for `topctl compaction`.
  std::string StatusString() const;

  /// obs::MetricsSource: delta/overlay/compaction counters, exported
  /// under tsb_mutation_*.
  void Collect(obs::MetricsRead* read) const override;

  /// The tsb_mutation_* families the fleet cost snapshot reads
  /// (service::FleetSnapshotOf); the rest are declared in the .cc.
  static inline const obs::MetricFamily kBatchesApplied{
      "tsb_mutation_batches_applied_total",
      "Mutation batches applied without a full rebuild",
      obs::MetricKind::kCounter};
  static inline const obs::MetricFamily kOpsApplied{
      "tsb_mutation_ops_applied_total", "Individual mutations applied",
      obs::MetricKind::kCounter};
  static inline const obs::MetricFamily kUncompactedGenerations{
      "tsb_mutation_uncompacted_generations",
      "Overlay generations awaiting compaction", obs::MetricKind::kGauge};
  static inline const obs::MetricFamily kCompactionRounds{
      "tsb_mutation_compaction_rounds_total",
      "Background compaction folds completed", obs::MetricKind::kCounter};
  static inline const obs::MetricFamily kWalRecords{
      "tsb_mutation_wal_records_total",
      "Mutation batches appended to the delta log",
      obs::MetricKind::kCounter};
  static inline const obs::MetricFamily kWalBytes{
      "tsb_mutation_wal_bytes_total", "Bytes appended to the delta log",
      obs::MetricKind::kCounter};

 private:
  /// Validates, classifies, logs (when `log` is set) and publishes one
  /// batch.
  Result<ApplyStats> ApplyLocked(const MutationBatch& batch, DeltaLog* log);
  Result<CompactionStats> CompactLocked();
  void CompactionLoop();

  /// Drops every memo unless `live` is what this engine last published.
  void ForgetMemosUnlessPublished(
      const std::vector<std::shared_ptr<core::TopologyStore>>& live);
  /// Erases, from every memo, the sources within l-1 hops of `touched` in
  /// either view.
  void DropReachableSources(const std::vector<int64_t>& touched,
                            const graph::DataGraphView* old_view,
                            const graph::DataGraphView& new_view);
  void UpdateMemoBytes();

  /// The counters and gauges Collect reads straight off the atomics.
  static const obs::CellTable<MutationEngine> kMetricCells;

  storage::Catalog* db_;
  const graph::SchemaGraph* schema_;
  std::vector<std::shared_ptr<core::StoreHandle>> handles_;
  Options options_;
  DirtyPairTracker tracker_;
  DeltaLog* log_ = nullptr;
  InvalidationCallback invalidate_;

  /// Serializes writers (apply, compaction). Never held by query threads.
  mutable std::mutex apply_mu_;

  /// Guarded by apply_mu_: per-pair source memos, valid for the stores in
  /// `published_` (the last this engine swapped in, per shard).
  std::map<TypePair, core::SourceMemo> memos_;
  std::vector<std::weak_ptr<core::TopologyStore>> published_;

  std::atomic<uint64_t> generation_{0};
  std::atomic<uint64_t> compaction_round_{0};
  std::atomic<uint64_t> uncompacted_generations_{0};
  std::atomic<uint64_t> batches_applied_{0};
  std::atomic<uint64_t> ops_applied_{0};
  std::atomic<uint64_t> pairs_restaged_total_{0};
  std::atomic<uint64_t> cache_only_pairs_total_{0};
  std::atomic<uint64_t> pairs_folded_total_{0};
  std::atomic<uint64_t> sources_swept_total_{0};
  std::atomic<uint64_t> sources_reused_total_{0};
  std::atomic<size_t> source_memo_bytes_{0};
  std::atomic<bool> compacting_{false};

  /// Pending-pair set and last-fold/apply snapshots for the admin view.
  mutable std::mutex status_mu_;
  std::set<TypePair> pending_pairs_;
  CompactionStats last_fold_;
  double last_apply_seconds_ = 0.0;

  std::thread compactor_;
  std::mutex cv_mu_;
  std::condition_variable cv_;
  bool stop_compactor_ = true;  // True while no thread is running.
};

}  // namespace mutation
}  // namespace tsb

#endif  // TSB_MUTATION_MUTATION_ENGINE_H_
