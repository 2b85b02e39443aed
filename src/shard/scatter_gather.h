#ifndef TSB_SHARD_SCATTER_GATHER_H_
#define TSB_SHARD_SCATTER_GATHER_H_

#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/scorer.h"
#include "engine/engine.h"
#include "engine/nquery.h"
#include "engine/query.h"
#include "obs/trace.h"
#include "replica/replica_set.h"
#include "service/metrics.h"
#include "shard/router.h"
#include "shard/sharded_store.h"
#include "wire/transport.h"

namespace tsb {
namespace shard {

/// Merges locally-ranked partial results into the global ranking: a k-way
/// heap merge on (score desc, tid asc) with duplicate TIDs collapsed.
/// Every partial must be sorted in that order (the engine's global result
/// order). In steady state a TID appearing in several partials carries the
/// same score in each (shards rank with replicated global frequency maps),
/// so ties beyond (score, tid) cannot occur across distinct entries and
/// the merged order — hence the byte identity with the single-store
/// engine — is fully determined. Should scores ever diverge (a query
/// scattering across a mid-roll epoch boundary after a rebuild that
/// *changed* build options), the TID-keyed collapse still emits each
/// topology once, keeping its highest-ranked occurrence. `limit` caps the
/// merged size (the query's k; SIZE_MAX for non-top-k methods).
///
/// Why the union of per-shard top-k lists suffices for a global top-k: a
/// shard's qualifying set is a subset of the global one, so any entry of
/// the global top-k outranks all but < k entries on whichever shard holds
/// one of its witness rows — it is therefore inside that shard's top-k.
std::vector<engine::ResultEntry> MergeRankedPartials(
    const std::vector<std::vector<engine::ResultEntry>>& partials,
    size_t limit);

/// Cumulative scatter telemetry (for the scaling bench and ops visibility).
struct ScatterStats {
  uint64_t queries = 0;              // Scatter-gather executions.
  uint64_t single_shard_queries = 0; // Routed to exactly one shard.
  uint64_t subqueries = 0;           // Per-shard sub-queries issued.
  double subquery_seconds = 0.0;     // Summed engine time across shards.
  double merge_seconds = 0.0;        // Time in MergeRankedPartials.
  /// Wire-transport telemetry: sub-queries that crossed the transport seam
  /// as encoded frames, and the frame bytes both ways.
  uint64_t transport_subqueries = 0;
  uint64_t transport_bytes_sent = 0;
  uint64_t transport_bytes_received = 0;
  /// Degradation: shards that failed / exceeded the sub-query timeout, and
  /// queries answered with partial=true because of it.
  uint64_t failed_subqueries = 0;
  uint64_t timed_out_subqueries = 0;
  uint64_t degraded_queries = 0;
};

struct ScatterGatherConfig {
  /// Per-shard sub-query deadline in seconds; 0 waits indefinitely. A
  /// sub-query still pending at the deadline counts as a failed shard.
  double subquery_timeout_seconds = 0.0;
  /// When true (default), a failed or timed-out non-designated shard
  /// degrades the answer — the merge runs over the shards that responded
  /// and the result carries partial=true — instead of failing the query.
  /// The designated shard always runs inline and its failure is fatal (it
  /// alone carries the shard-independent pruned checks).
  bool tolerate_shard_failures = true;
};

/// Fans a query out over the shards that own its rows, runs each sub-query
/// against a per-shard Engine pinned to that shard's snapshot, and merges
/// the ranked partials into the global result — byte-identical to a
/// single-store engine for every method:
///
///   - each shard ranks its slice with replicated global scores, so
///     partial rankings agree on every common entry;
///   - the designated shard alone runs shard-independent work (pruned
///     online checks; the whole SQL baseline), so that work is paid once;
///   - the k-way merge (MergeRankedPartials) reassembles the global order.
///
/// 3-queries scatter their AllTops scan phase (CollectTripleRelated) and
/// union the per-shard relations; the join/witness-union phase then runs
/// once, interning new triple topologies into the primary shard's
/// thread-safe catalog.
///
/// Transport seam: every non-designated sub-query (and every triple scan
/// slice) travels as an encoded wire frame through a wire::ShardTransport
/// — by default an R=1 replica::ReplicaSetTransport whose one replica per
/// shard is a LoopbackReplicaChannel over this executor's own engine, so
/// the serialize → dispatch → deserialize path in-process is the one a
/// socket replica set runs, minus the byte shipping. A shard that fails
/// or misses the sub-query deadline degrades the answer (partial=true)
/// instead of failing it when tolerate_shard_failures is set.
///
/// Thread safety: Execute/ExecuteTriple are safe from any number of
/// threads; per-shard engines are concurrency-safe. Sub-queries ride the
/// transport's own coordinator pool, never the caller's: an outer query
/// blocks on its sub-queries, and blocking pool tasks on tasks queued
/// behind them in the same pool deadlocks once every worker holds an
/// outer query.
class ScatterGatherExecutor {
 public:
  ScatterGatherExecutor(storage::Catalog* db,
                        std::shared_ptr<ShardedTopologyStore> store,
                        const graph::SchemaGraph* schema,
                        const graph::DataGraphView* view,
                        core::DomainKnowledge knowledge,
                        engine::SqlBaselineOptions sql_options =
                            engine::SqlBaselineOptions{},
                        ScatterGatherConfig config = ScatterGatherConfig{});
  /// One-shard construction over a caller's engine: the store is a
  /// one-shard ShardedTopologyStore over `engine`'s own StoreHandle, and
  /// shard 0's engine is `engine` itself (borrowed; it must outlive the
  /// executor). Schema and view are the engine's. With one shard every
  /// query is the engine's own answer, returned untouched.
  ScatterGatherExecutor(storage::Catalog* db, const engine::Engine* engine,
                        ScatterGatherConfig config = ScatterGatherConfig{});

  ScatterGatherExecutor(const ScatterGatherExecutor&) = delete;
  ScatterGatherExecutor& operator=(const ScatterGatherExecutor&) = delete;

  /// Scatter-gather evaluation of a 2-query. Result entries are
  /// byte-identical to single-store Engine::Execute; stats are summed over
  /// the sub-queries (plus wall-clock seconds and a scatter plan line).
  /// With one shard the shard's own result comes back untouched: its plan
  /// text, its seconds, no scatter spans.
  ///
  /// With `trace` set the execution records its span tree into it —
  /// scatter fan-out, one rpc span per remote sub-query (the sub-request
  /// carries the rpc span as its trace parent, so shard-side spans
  /// piggybacked on the response nest under it), the designated shard's
  /// inline execution, and the k-way merge. Tracing never changes the
  /// result bytes.
  Result<engine::QueryResult> Execute(
      const engine::TopologyQuery& query, engine::MethodKind method,
      const engine::ExecOptions& options = engine::ExecOptions{},
      const std::shared_ptr<obs::QueryTrace>& trace = nullptr) const;

  /// Scatter-gather evaluation of a 3-query (see class comment).
  Result<engine::TripleQueryResult> ExecuteTriple(
      const engine::TripleQuery& query) const;

  /// Pre-builds the hash indexes every shard's plans use for this pair.
  void PrepareIndexes(const std::string& entity_set1,
                      const std::string& entity_set2) const;

  ShardedTopologyStore* mutable_store() { return store_.get(); }
  const ShardedTopologyStore& store() const { return *store_; }
  size_t num_shards() const { return store_->num_shards(); }
  const graph::SchemaGraph* schema() const { return schema_; }
  const graph::DataGraphView* view() const { return view_; }
  /// Shard i's engine (its snapshot read path follows shard i's handle).
  const engine::Engine& shard_engine(size_t shard) const {
    return *engines_[shard];
  }

  /// Overrides the sub-query transport (tests inject failing/slow
  /// wrappers; a ReplicaSetTransport over SocketReplicaChannels routes
  /// sub-queries to shard server processes). Non-owning; the transport
  /// must outlive the executor. Pass nullptr to restore the default
  /// transport. Not safe to call concurrently with queries.
  void set_transport(wire::ShardTransport* transport) {
    transport_ = transport != nullptr ? transport : &default_transport_;
  }
  wire::ShardTransport* transport() const { return transport_; }
  /// The built-in in-process transport (see class comment).
  replica::ReplicaSetTransport& default_transport() {
    return default_transport_;
  }

  /// Per-shard transport telemetry (bytes, RTT p50/p95, reconnects). The
  /// default transport records into it; hand it to an injected
  /// ReplicaSetTransport so a transport swap keeps one telemetry stream.
  service::TransportMetrics* transport_metrics() const {
    return &transport_metrics_;
  }

  ScatterStats GetScatterStats() const;

 private:
  /// One absolute sub-query deadline per query, fixed at scatter time so
  /// every shard gets the same wall-clock budget (waiting per-future with
  /// a relative timeout would grant shard i an extra i × timeout of
  /// grace). Unset when no timeout is configured.
  using GatherDeadline =
      std::optional<std::chrono::steady_clock::time_point>;
  GatherDeadline StartGatherDeadline() const;

  /// The shared tail of both public constructors: `engines` holds one
  /// engine per shard of `store`, owned or (with a no-op deleter) borrowed.
  ScatterGatherExecutor(
      storage::Catalog* db, std::shared_ptr<ShardedTopologyStore> store,
      const graph::SchemaGraph* schema, const graph::DataGraphView* view,
      std::vector<std::shared_ptr<const engine::Engine>> engines,
      ScatterGatherConfig config);

  /// Waits for one transport response until `deadline`. On timeout
  /// returns an error and sets *timed_out (the abandoned future stays
  /// valid — the transport task owns its data).
  Result<std::string> AwaitFrame(std::future<Result<std::string>>* future,
                                 const GatherDeadline& deadline,
                                 bool* timed_out) const;

  storage::Catalog* db_;
  std::shared_ptr<ShardedTopologyStore> store_;
  const graph::SchemaGraph* schema_;
  const graph::DataGraphView* view_;
  ScatterGatherConfig config_;
  ShardRouter router_;
  std::vector<std::shared_ptr<const engine::Engine>> engines_;
  /// Shared per-shard transport telemetry (the default transport records
  /// into it; an injected one should too — see transport_metrics()).
  mutable service::TransportMetrics transport_metrics_;
  /// Default in-process transport over engines_ and store_; declared after
  /// them so it is destroyed (its pools joined) first. transport_ points
  /// at it unless a test or a socket replica set overrides.
  replica::ReplicaSetTransport default_transport_;
  wire::ShardTransport* transport_;

  mutable std::mutex stats_mu_;
  mutable ScatterStats stats_;
};

}  // namespace shard
}  // namespace tsb

#endif  // TSB_SHARD_SCATTER_GATHER_H_
