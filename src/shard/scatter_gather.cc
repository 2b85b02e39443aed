#include "shard/scatter_gather.h"

#include <chrono>
#include <future>
#include <limits>
#include <queue>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "obs/cost.h"
#include "shard/replica_loopback.h"
#include "wire/codec.h"

namespace tsb {
namespace shard {

namespace {

std::vector<std::shared_ptr<const engine::Engine>> MakeShardEngines(
    storage::Catalog* db, const ShardedTopologyStore& store,
    const graph::SchemaGraph* schema, const graph::DataGraphView* view,
    const core::DomainKnowledge& knowledge,
    const engine::SqlBaselineOptions& sql_options) {
  std::vector<std::shared_ptr<const engine::Engine>> engines;
  engines.reserve(store.num_shards());
  for (size_t i = 0; i < store.num_shards(); ++i) {
    const std::shared_ptr<core::StoreHandle>& handle = store.handle(i);
    engines.push_back(std::make_shared<const engine::Engine>(
        db, handle, schema, view,
        core::ScoreModel(&handle->Snapshot()->catalog(), knowledge),
        sql_options));
  }
  return engines;
}

/// One R=1 loopback channel per shard, each over that shard's engine.
replica::ReplicaChannelGrid DefaultChannels(
    storage::Catalog* db, const ShardedTopologyStore* store,
    const std::vector<std::shared_ptr<const engine::Engine>>& engines) {
  std::vector<const engine::Engine*> engine_ptrs;
  engine_ptrs.reserve(engines.size());
  for (const std::shared_ptr<const engine::Engine>& e : engines) {
    engine_ptrs.push_back(e.get());
  }
  return MakeLoopbackReplicaGrid(db, store, engine_ptrs, 1).channels;
}

}  // namespace

std::vector<engine::ResultEntry> MergeRankedPartials(
    const std::vector<std::vector<engine::ResultEntry>>& partials,
    size_t limit) {
  // Cursor into one partial; ordering is the global result order with the
  // partial index as the final (duplicate-resolving) tie-break.
  struct Cursor {
    const std::vector<engine::ResultEntry>* list;
    size_t pos;
    size_t origin;
  };
  auto after = [](const Cursor& a, const Cursor& b) {
    const engine::ResultEntry& x = (*a.list)[a.pos];
    const engine::ResultEntry& y = (*b.list)[b.pos];
    if (x.score != y.score) return x.score < y.score;
    if (x.tid != y.tid) return x.tid > y.tid;
    return a.origin > b.origin;
  };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(after)> heap(
      after);
  for (size_t i = 0; i < partials.size(); ++i) {
    if (!partials[i].empty()) heap.push({&partials[i], 0, i});
  }

  std::vector<engine::ResultEntry> merged;
  // Duplicates (the same topology witnessed on several shards) normally
  // carry identical (score, tid) keys and pop back-to-back; the seen-set
  // keeps the collapse correct even if scores diverge (a query scattering
  // across a mid-roll epoch boundary after a rebuild that changed build
  // options) — the first, highest-ranked occurrence wins.
  std::unordered_set<core::Tid> seen;
  while (!heap.empty() && merged.size() < limit) {
    Cursor top = heap.top();
    heap.pop();
    const engine::ResultEntry& entry = (*top.list)[top.pos];
    if (seen.insert(entry.tid).second) merged.push_back(entry);
    if (++top.pos < top.list->size()) heap.push(top);
  }
  return merged;
}

ScatterGatherExecutor::ScatterGatherExecutor(
    storage::Catalog* db, std::shared_ptr<ShardedTopologyStore> store,
    const graph::SchemaGraph* schema, const graph::DataGraphView* view,
    core::DomainKnowledge knowledge, engine::SqlBaselineOptions sql_options,
    ScatterGatherConfig config)
    : ScatterGatherExecutor(
          db, store, schema, view,
          MakeShardEngines(db, *store, schema, view, knowledge, sql_options),
          config) {}

ScatterGatherExecutor::ScatterGatherExecutor(storage::Catalog* db,
                                             const engine::Engine* engine,
                                             ScatterGatherConfig config)
    : ScatterGatherExecutor(
          db,
          std::make_shared<ShardedTopologyStore>(
              std::vector<std::shared_ptr<core::StoreHandle>>{
                  engine->store_handle()}),
          engine->schema(), engine->view(),
          {std::shared_ptr<const engine::Engine>(
              engine, [](const engine::Engine*) {})},
          config) {}

ScatterGatherExecutor::ScatterGatherExecutor(
    storage::Catalog* db, std::shared_ptr<ShardedTopologyStore> store,
    const graph::SchemaGraph* schema, const graph::DataGraphView* view,
    std::vector<std::shared_ptr<const engine::Engine>> engines,
    ScatterGatherConfig config)
    : db_(db),
      store_(std::move(store)),
      schema_(schema),
      view_(view),
      config_(config),
      engines_(std::move(engines)),
      transport_metrics_(store_->num_shards()),
      default_transport_(DefaultChannels(db_, store_.get(), engines_),
                         replica::ReplicaSetConfig{}, &transport_metrics_),
      transport_(&default_transport_) {
  TSB_CHECK(db_ != nullptr);
}

ScatterGatherExecutor::GatherDeadline
ScatterGatherExecutor::StartGatherDeadline() const {
  if (config_.subquery_timeout_seconds <= 0.0) return std::nullopt;
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(
                 config_.subquery_timeout_seconds));
}

Result<std::string> ScatterGatherExecutor::AwaitFrame(
    std::future<Result<std::string>>* future, const GatherDeadline& deadline,
    bool* timed_out) const {
  *timed_out = false;
  if (deadline.has_value() &&
      future->wait_until(*deadline) != std::future_status::ready) {
    *timed_out = true;
    // Abandon: the transport task owns its data and will complete into
    // the shared state nobody reads.
    return Status::ResourceExhausted(
        "shard sub-query exceeded deadline of " +
        std::to_string(config_.subquery_timeout_seconds) + "s");
  }
  return future->get();
}

Result<engine::QueryResult> ScatterGatherExecutor::Execute(
    const engine::TopologyQuery& query, engine::MethodKind method,
    const engine::ExecOptions& options,
    const std::shared_ptr<obs::QueryTrace>& trace) const {
  if (num_shards() == 1) {
    // One shard is the whole store: its answer is the answer, untouched
    // (plan text and seconds included); nothing to route or merge.
    Result<engine::QueryResult> result =
        engines_[0]->Execute(query, method, options);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.queries;
    ++stats_.single_shard_queries;
    ++stats_.subqueries;
    if (result.ok()) stats_.subquery_seconds += result->stats.seconds;
    return result;
  }
  Stopwatch watch;
  const bool traced = trace != nullptr;
  const double start_unix = traced ? obs::UnixSeconds() : 0.0;
  const storage::EntitySetDef* es1 = db_->FindEntitySet(query.entity_set1);
  const storage::EntitySetDef* es2 = db_->FindEntitySet(query.entity_set2);
  if (es1 == nullptr) {
    return Status::NotFound("unknown entity set '" + query.entity_set1 +
                            "'");
  }
  if (es2 == nullptr) {
    return Status::NotFound("unknown entity set '" + query.entity_set2 +
                            "'");
  }

  std::vector<std::shared_ptr<core::TopologyStore>> snapshots =
      store_->SnapshotAll();
  ShardRoute route =
      router_.Route(*db_, snapshots, es1->id, es2->id, method);

  if (route.single_shard()) {
    // Degenerate scatter: the owning shard computes the global answer
    // directly (the designated role implies full pruned checks).
    Result<engine::QueryResult> result =
        engines_[route.designated]->Execute(query, method, options);
    if (traced) {
      std::string tags = "shard=" + std::to_string(route.designated);
      if (result.ok()) {
        tags += "," + wire::ExecStatsTraceTags(result->stats);
      } else {
        tags += ",ok=0,error=" +
                obs::TagValueSafe(result.status().message());
      }
      trace->AddSpan("designated.exec", trace->root_span_id(), start_unix,
                     watch.ElapsedSeconds(), std::move(tags),
                     result.ok() ? result->stats.cpu_ns : 0);
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.queries;
      ++stats_.single_shard_queries;
      ++stats_.subqueries;
      if (result.ok()) stats_.subquery_seconds += result->stats.seconds;
    }
    if (result.ok()) {
      result->stats.plan = "scatter[1/" + std::to_string(num_shards()) +
                           " shard] " + result->stats.plan;
      result->stats.seconds = watch.ElapsedSeconds();
    }
    return result;
  }

  // Scatter: the designated shard runs on this thread (guaranteed
  // progress); every other shard's sub-query crosses the transport seam
  // as an encoded wire frame.
  // Non-designated shards skip the pruned online checks — those verify
  // against the shared data graph and replicated exception tables, so the
  // designated shard's verdicts already cover the whole store.
  struct SubQuery {
    size_t shard;
    uint64_t rpc_span_id;
    std::future<Result<std::string>> future;
  };
  std::vector<SubQuery> scattered;
  scattered.reserve(route.shards.size() - 1);
  const GatherDeadline deadline = StartGatherDeadline();
  // The scatter span id is allocated before fan-out so every rpc span —
  // and through the sub-request's trace context, every shard-side span —
  // can parent under it before the span itself is recorded.
  const uint64_t scatter_span_id = traced ? obs::NewSpanId() : 0;
  uint64_t bytes_sent = 0;
  for (size_t shard : route.shards) {
    if (shard == route.designated) continue;
    wire::WireRequest sub;
    sub.id = shard;  // Correlation only; the gather indexes by slot.
    sub.query = query;
    sub.method = method;
    sub.options = options;
    sub.options.skip_pruned_checks = true;
    uint64_t rpc_span_id = 0;
    if (traced) {
      rpc_span_id = obs::NewSpanId();
      sub.trace = trace->ContextUnder(rpc_span_id);
    }
    std::string encoded;
    wire::EncodeQueryRequest(sub, &encoded);
    bytes_sent += encoded.size();
    scattered.push_back({shard, rpc_span_id,
                         transport_->SendTraced(shard, std::move(encoded),
                                                trace, rpc_span_id)});
  }
  const double designated_start_unix = traced ? obs::UnixSeconds() : 0.0;
  Stopwatch designated_watch;
  Result<engine::QueryResult> designated =
      engines_[route.designated]->Execute(query, method, options);
  if (traced) {
    std::string tags = "shard=" + std::to_string(route.designated);
    if (designated.ok()) {
      tags += "," + wire::ExecStatsTraceTags(designated->stats);
    } else {
      tags += ",ok=0,error=" +
              obs::TagValueSafe(designated.status().message());
    }
    trace->AddSpan("designated.exec", scatter_span_id,
                   designated_start_unix, designated_watch.ElapsedSeconds(),
                   std::move(tags),
                   designated.ok() ? designated->stats.cpu_ns : 0);
  }

  // Gather every partial (drain even after an error so no future leaks).
  std::vector<std::vector<engine::ResultEntry>> partials;
  partials.reserve(route.shards.size());
  engine::ExecStats total;
  Status first_error = designated.ok() ? Status::OK() : designated.status();
  double subquery_seconds = 0.0;
  std::string designated_plan;
  uint64_t bytes_received = 0;
  uint64_t failed = 0;
  uint64_t timed_out = 0;
  size_t lost_shards = 0;
  if (designated.ok()) {
    total += designated->stats;
    subquery_seconds += designated->stats.seconds;
    designated_plan = std::move(designated->stats.plan);
    partials.push_back(std::move(designated->entries));
  }
  for (SubQuery& sub : scattered) {
    bool sub_timed_out = false;
    Result<std::string> frame =
        AwaitFrame(&sub.future, deadline, &sub_timed_out);
    Result<engine::QueryResult> partial =
        frame.ok() ? [&]() -> Result<engine::QueryResult> {
          bytes_received += frame->size();
          TSB_ASSIGN_OR_RETURN(wire::WireResponse response,
                               wire::DecodeQueryResponse(*frame));
          // Shard-side spans piggybacked on the response join this
          // frontend's trace (they already parent under the rpc span).
          if (traced) trace->Absorb(std::move(response.spans));
          if (!response.error.ok()) {
            return wire::StatusFromWireError(response.error);
          }
          return std::move(response.result);
        }()
                   : Result<engine::QueryResult>(frame.status());
    if (traced) {
      // Duration is gather-observed: from fan-out to the moment this
      // slot's frame was consumed (includes any wait behind earlier
      // slots — the latency the merge actually paid).
      obs::Span rpc;
      rpc.span_id = sub.rpc_span_id;
      rpc.parent_span_id = scatter_span_id;
      rpc.name = "rpc";
      rpc.start_unix_seconds = designated_start_unix;
      rpc.duration_seconds = watch.ElapsedSeconds();
      rpc.tags = "shard=" + std::to_string(sub.shard) +
                 (partial.ok() ? ",ok=1" : ",ok=0") +
                 (sub_timed_out ? ",timeout=1" : "");
      trace->AddSpanWithId(std::move(rpc));
    }
    if (!partial.ok()) {
      if (sub_timed_out) ++timed_out;
      ++failed;
      ++lost_shards;
      if (!config_.tolerate_shard_failures && first_error.ok()) {
        first_error = partial.status();
      }
      continue;
    }
    total += partial->stats;
    // The router paid to deserialize this shard's response frame; bill it
    // to the query alongside the shard-side charges the stats carry.
    if (obs::CostTracker::enabled()) {
      total.bytes_deserialized += frame->size();
    }
    subquery_seconds += partial->stats.seconds;
    partials.push_back(std::move(partial->entries));
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.transport_subqueries += scattered.size();
    stats_.transport_bytes_sent += bytes_sent;
    stats_.transport_bytes_received += bytes_received;
    stats_.failed_subqueries += failed;
    stats_.timed_out_subqueries += timed_out;
  }
  if (!first_error.ok()) return first_error;

  Stopwatch merge_watch;
  const double merge_start_unix = traced ? obs::UnixSeconds() : 0.0;
  const size_t limit =
      engine::MethodIsTopK(method) ? query.k : std::numeric_limits<size_t>::max();
  engine::QueryResult result;
  result.entries = MergeRankedPartials(partials, limit);
  result.partial = lost_shards > 0;
  const double merge_seconds = merge_watch.ElapsedSeconds();
  if (traced) {
    trace->AddSpan("merge", scatter_span_id, merge_start_unix,
                   merge_seconds,
                   "partials=" + std::to_string(partials.size()) +
                       ",entries=" + std::to_string(result.entries.size()));
    obs::Span scatter;
    scatter.span_id = scatter_span_id;
    scatter.parent_span_id = trace->root_span_id();
    scatter.name = "scatter";
    scatter.start_unix_seconds = start_unix;
    scatter.duration_seconds = watch.ElapsedSeconds();
    scatter.tags = "shards=" + std::to_string(route.shards.size()) +
                   ",designated=" + std::to_string(route.designated) +
                   ",lost=" + std::to_string(lost_shards);
    trace->AddSpanWithId(std::move(scatter));
  }

  result.stats = total;
  result.stats.seconds = watch.ElapsedSeconds();
  result.stats.plan =
      "scatter[" + std::to_string(route.shards.size() - lost_shards) + "/" +
      std::to_string(num_shards()) + " shards, designated s" +
      std::to_string(route.designated) +
      (result.partial ? ", PARTIAL" : "") + "] merge(k-way heap) | " +
      designated_plan;

  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.queries;
  stats_.subqueries += route.shards.size();
  stats_.subquery_seconds += subquery_seconds;
  stats_.merge_seconds += merge_seconds;
  if (result.partial) ++stats_.degraded_queries;
  return result;
}

Result<engine::TripleQueryResult> ScatterGatherExecutor::ExecuteTriple(
    const engine::TripleQuery& query) const {
  TSB_ASSIGN_OR_RETURN(engine::TripleSelection selection,
                       engine::ResolveTripleSelection(db_, query));
  std::vector<std::shared_ptr<core::TopologyStore>> snapshots =
      store_->SnapshotAll();

  // Scatter the AllTops scan phase over the transport: every shard
  // contributes its slice of each slot pair's relation. Shard 0 scans on
  // this thread (guaranteed progress; it is also the catalog the finish
  // phase interns into).
  std::string encoded_collect;
  if (snapshots.size() > 1) {
    wire::EncodeTripleCollectRequest(selection, &encoded_collect);
  }
  struct SubScan {
    size_t shard;
    std::future<Result<std::string>> future;
  };
  std::vector<SubScan> scans;
  scans.reserve(snapshots.size() > 0 ? snapshots.size() - 1 : 0);
  const GatherDeadline deadline = StartGatherDeadline();
  uint64_t bytes_sent = 0;
  for (size_t i = 1; i < snapshots.size(); ++i) {
    bytes_sent += encoded_collect.size();
    scans.push_back({i, transport_->Send(i, encoded_collect)});
  }
  engine::TripleRelatedSets related =
      engine::CollectTripleRelated(*db_, *snapshots[0], selection);

  Status first_error = Status::OK();
  uint64_t bytes_received = 0;
  uint64_t failed = 0;
  uint64_t timed_out = 0;
  size_t lost_shards = 0;
  for (SubScan& scan : scans) {
    bool scan_timed_out = false;
    Result<std::string> frame =
        AwaitFrame(&scan.future, deadline, &scan_timed_out);
    Result<engine::TripleRelatedSets> partial =
        frame.ok() ? [&]() -> Result<engine::TripleRelatedSets> {
          bytes_received += frame->size();
          return wire::DecodeTripleCollectResponse(*frame);
        }()
                   : Result<engine::TripleRelatedSets>(frame.status());
    if (!partial.ok()) {
      if (scan_timed_out) ++timed_out;
      ++failed;
      ++lost_shards;
      if (!config_.tolerate_shard_failures && first_error.ok()) {
        first_error = partial.status();
      }
      continue;
    }
    for (int p = 0; p < 3; ++p) {
      related[p].insert((*partial)[p].begin(), (*partial)[p].end());
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.transport_subqueries += scans.size();
    stats_.transport_bytes_sent += bytes_sent;
    stats_.transport_bytes_received += bytes_received;
    stats_.failed_subqueries += failed;
    stats_.timed_out_subqueries += timed_out;
    if (lost_shards > 0 && config_.tolerate_shard_failures) {
      ++stats_.degraded_queries;
    }
  }
  if (!first_error.ok()) return first_error;

  // Join + witness-union phase runs once; new triple topologies intern
  // into the primary shard's thread-safe catalog (the same first-encounter
  // order a single-store execution would produce).
  Result<engine::TripleQueryResult> result = engine::FinishTripleQuery(
      db_, snapshots[0].get(), *schema_, *view_, query, selection, related);
  if (result.ok() && lost_shards > 0) result->partial = true;
  return result;
}

void ScatterGatherExecutor::PrepareIndexes(
    const std::string& entity_set1, const std::string& entity_set2) const {
  for (const std::shared_ptr<const engine::Engine>& shard_engine : engines_) {
    shard_engine->PrepareIndexes(entity_set1, entity_set2);
  }
}

ScatterStats ScatterGatherExecutor::GetScatterStats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace shard
}  // namespace tsb
