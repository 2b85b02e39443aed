#include "service/service.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "core/pruner.h"
#include "service/request_parser.h"

namespace tsb {
namespace service {

namespace {

size_t ResolveThreads(size_t requested) {
  if (requested > 0) return requested;
  size_t hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 4;
}

/// The configured budget covers both caches: 2-query results get the
/// lion's share, 3-query results (rarer, bulkier per entry) an eighth.
service::QueryCacheConfig MainCacheConfig(service::QueryCacheConfig cache) {
  cache.max_bytes -= cache.max_bytes / 8;
  return cache;
}

service::QueryCacheConfig TripleCacheConfig(service::QueryCacheConfig cache) {
  cache.max_bytes /= 8;
  return cache;
}

}  // namespace

double RebuildStats::ShardSkew() const {
  return obs::ShardSkew(shard_rows);
}

TopologyService::TopologyService(const engine::Engine* engine,
                                 storage::Catalog* db, ServiceConfig config)
    : TopologyService(
          std::make_unique<shard::ScatterGatherExecutor>(db, engine), db,
          std::move(config)) {}

TopologyService::TopologyService(
    std::unique_ptr<shard::ScatterGatherExecutor> owned, storage::Catalog* db,
    ServiceConfig config)
    : TopologyService(owned.get(), db, std::move(config)) {
  owned_executor_ = std::move(owned);
}

TopologyService::TopologyService(shard::ScatterGatherExecutor* executor,
                                 storage::Catalog* db, ServiceConfig config)
    : executor_(executor),
      db_(db),
      config_(config),
      cache_(MainCacheConfig(config.cache)),
      triple_cache_(TripleCacheConfig(config.cache)),
      tracer_(config.trace),
      slow_log_(config.slow_query),
      pool_(ResolveThreads(config.num_threads)) {
  TSB_CHECK(executor_ != nullptr);
  TSB_CHECK(db_ != nullptr);
  // Seed the shard-skew observables from the serving shard set.
  std::vector<std::shared_ptr<core::TopologyStore>> snapshots =
      executor_->store().SnapshotAll();
  std::vector<const core::TopologyStore*> raw;
  raw.reserve(snapshots.size());
  for (const std::shared_ptr<core::TopologyStore>& s : snapshots) {
    raw.push_back(s.get());
  }
  metrics_.SetShardRows(shard::ShardAllTopsRowCounts(*db_, raw));
}

TopologyService::~TopologyService() { Shutdown(); }

Status TopologyService::CheckStoreSwappable() const {
  // Executor-built shard engines are always handle-backed; only a borrowed
  // caller engine can wrap a raw store, and it is always shard 0.
  if (executor_->shard_engine(0).store_is_swappable()) return Status::OK();
  return Status::FailedPrecondition(
      "live rebuilds and mutations need an engine constructed over a "
      "shared_ptr StoreHandle; the raw-pointer Engine constructor wraps a "
      "caller-owned store that cannot be retired safely");
}

Status TopologyService::AttachLiveStore(const graph::SchemaGraph* schema,
                                        const graph::DataGraphView* view) {
  TSB_RETURN_IF_ERROR(CheckStoreSwappable());
  if (schema != executor_->schema() || view != executor_->view()) {
    return Status::InvalidArgument(
        "AttachLiveStore must name the schema and view the engine queries");
  }
  return Status::OK();
}

std::string TopologyService::EpochFingerprint(std::string fingerprint) const {
  // Shard-aware keys: rolling any one shard forward orphans cached
  // results derived from its retired slice (a late Insert from an
  // in-flight pre-roll query lands under the old stamp, which no post-roll
  // lookup reads). Only the 3-query path keys on epochs — 2-queries key on
  // PairStamp, whose rebuild/pair generations invalidate selectively
  // across mutation swaps.
  return executor_->store().EpochStamp() + "|" + std::move(fingerprint);
}

std::string TopologyService::PairPrefix(const mutation::TypePair& pair,
                                        uint64_t generation) const {
  return "r" + std::to_string(rebuild_gen_.load(std::memory_order_relaxed)) +
         "|p" + std::to_string(pair.first) + "_" +
         std::to_string(pair.second) + "g" + std::to_string(generation) +
         "|";
}

std::string TopologyService::PairStamp(
    const engine::TopologyQuery& query) const {
  const storage::EntitySetDef* e1 = db_->FindEntitySet(query.entity_set1);
  const storage::EntitySetDef* e2 = db_->FindEntitySet(query.entity_set2);
  if (e1 == nullptr || e2 == nullptr) {
    return "r" +
           std::to_string(rebuild_gen_.load(std::memory_order_relaxed)) +
           "|p?|";
  }
  mutation::TypePair pair{std::min(e1->id, e2->id),
                          std::max(e1->id, e2->id)};
  uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(pair_gen_mu_);
    auto it = pair_gens_.find(pair);
    if (it != pair_gens_.end()) generation = it->second;
  }
  return PairPrefix(pair, generation);
}

void TopologyService::BumpRebuildGeneration() {
  rebuild_gen_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(pair_gen_mu_);
  pair_gens_.clear();
}

void TopologyService::EvictMutatedPairs(const mutation::DirtyPairs& dirty) {
  std::lock_guard<std::mutex> lock(pair_gen_mu_);
  for (const std::vector<mutation::TypePair>* pairs :
       {&dirty.structural, &dirty.cache_only}) {
    for (const mutation::TypePair& pair : *pairs) {
      const uint64_t old_gen = pair_gens_[pair]++;
      cache_.EvictByPrefix(PairPrefix(pair, old_gen));
    }
  }
  if (dirty.total() > 0) triple_cache_.Clear();
}

Status TopologyService::EnableMutations(
    mutation::MutationEngine::Options options, mutation::DeltaLog* log) {
  TSB_RETURN_IF_ERROR(CheckStoreSwappable());
  std::lock_guard<std::mutex> rebuild_lock(rebuild_mu_);
  if (mutation_engine_ != nullptr) {
    return Status::FailedPrecondition("mutations already enabled");
  }
  const shard::ShardedTopologyStore& store = executor_->store();
  std::vector<std::shared_ptr<core::StoreHandle>> handles;
  for (size_t i = 0; i < store.num_shards(); ++i) {
    handles.push_back(store.handle(i));
  }
  mutation_engine_ = std::make_unique<mutation::MutationEngine>(
      db_, executor_->schema(), std::move(handles), std::move(options));
  mutation_engine_->set_delta_log(log);
  mutation_log_ = log;
  return Status::OK();
}

Result<mutation::ApplyStats> TopologyService::ApplyMutations(
    const mutation::MutationBatch& batch) {
  std::lock_guard<std::mutex> rebuild_lock(rebuild_mu_);
  if (mutation_engine_ == nullptr) {
    return Status::FailedPrecondition(
        "mutations not enabled; call EnableMutations first");
  }
  auto stats = mutation_log_ != nullptr ? mutation_engine_->ApplyLogged(batch)
                                        : mutation_engine_->Apply(batch);
  if (!stats.ok()) return stats;
  EvictMutatedPairs(stats.value().dirty);
  return stats;
}

Status TopologyService::ParallelPrune(
    const std::vector<core::TopologyStore*>& stores, size_t threshold,
    double* seconds) {
  Stopwatch watch;
  core::PruneConfig prune;
  prune.frequency_threshold = threshold;

  // Per-pair scans are independent (distinct PairTopologyData, distinct
  // created tables, read-only store registry), so they fan out over the
  // pool instead of serializing on the commit thread. The stores are still
  // private to the rebuild — no query can observe a half-pruned pair.
  std::vector<std::future<Status>> futures;
  for (core::TopologyStore* store : stores) {
    for (const auto& [key, pair] : store->pairs()) {
      const auto [t1, t2] = key;
      storage::Catalog* db = db_;
      auto task = [db, store, t1, t2, prune]() {
        return core::PruneFrequentTopologies(db, store, t1, t2, prune)
            .status();
      };
      std::future<Status> future = pool_.Submit(task);
      if (!future.valid()) {
        // Pool raced with shutdown: prune inline so the rebuild finishes.
        std::promise<Status> ready;
        ready.set_value(task());
        future = ready.get_future();
      }
      futures.push_back(std::move(future));
    }
  }
  Status status = Status::OK();
  for (std::future<Status>& future : futures) {
    Status pruned = future.get();  // Drain all even on error.
    if (status.ok() && !pruned.ok()) status = pruned;
  }
  *seconds += watch.ElapsedSeconds();
  return status;
}

void TopologyService::WarmIndexes(
    const std::vector<core::TopologyStore*>& stores, double* seconds) {
  Stopwatch watch;
  // The plans probe the TID indexes of the topology tables (entity-table
  // ID indexes survive epochs — those are already warm). Building them
  // here, before the swap, means the first post-swap query pays nothing.
  std::vector<std::future<void>> futures;
  auto warm_table = [this, &futures](const std::string& table) {
    storage::Catalog* db = db_;
    auto task = [db, table]() { db->GetOrBuildHashIndex(table, "TID"); };
    std::future<void> future = pool_.Submit(task);
    if (future.valid()) {
      futures.push_back(std::move(future));
    } else {
      task();
    }
  };
  for (core::TopologyStore* store : stores) {
    for (const auto& [key, pair] : store->pairs()) {
      warm_table(pair.alltops_table);
      if (pair.pruned) {
        warm_table(pair.lefttops_table);
        warm_table(pair.excptops_table);
      }
    }
  }
  for (std::future<void>& future : futures) future.get();
  *seconds += watch.ElapsedSeconds();
}

Result<RebuildStats> TopologyService::Rebuild(const RebuildOptions& options) {
  TSB_RETURN_IF_ERROR(CheckStoreSwappable());
  std::lock_guard<std::mutex> rebuild_lock(rebuild_mu_);
  shard::ShardedTopologyStore* sstore = executor_->mutable_store();
  const size_t num_shards = sstore->num_shards();

  RebuildStats stats;
  stats.epoch = sstore->handle(0)->epoch() + 1;
  stats.table_namespace = "e" + std::to_string(stats.epoch) + ".";

  core::BuildConfig build = options.build;
  build.table_namespace = stats.table_namespace;

  // Stage a complete replacement shard set, privately, on the worker pool
  // (tables land under "e<N>." — "e<N>.s<i>." per shard when there are
  // several — next to, never touching, the serving epoch's).
  std::vector<std::shared_ptr<core::TopologyStore>> next(num_shards);
  std::vector<core::TopologyStore*> raw(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    next[i] = std::make_shared<core::TopologyStore>();
    raw[i] = next[i].get();
  }
  // Stage from the same schema/view the executor's engines query.
  core::TopologyBuilder builder(db_, executor_->schema(),
                                executor_->view());
  auto drop_staged_tables = [&]() {
    for (const std::shared_ptr<core::TopologyStore>& store : next) {
      for (const std::string& name : store->PrecomputeTableNames()) {
        (void)db_->DropTable(name);
      }
    }
  };
  Stopwatch build_watch;
  Status built = builder.BuildAllPairs(build, raw, &pool_);
  stats.build_seconds = build_watch.ElapsedSeconds();
  if (!built.ok()) {
    drop_staged_tables();
    return built;
  }

  if (options.prune_threshold.has_value()) {
    Status pruned =
        ParallelPrune(raw, *options.prune_threshold, &stats.prune_seconds);
    if (!pruned.ok()) {
      drop_staged_tables();
      return pruned;
    }
  }
  WarmIndexes(raw, &stats.index_seconds);

  stats.pairs_built = next[0]->pairs().size();
  stats.catalog_topologies = next[0]->catalog().size();
  {
    std::vector<const core::TopologyStore*> raw_const(raw.begin(),
                                                      raw.end());
    stats.shard_rows = shard::ShardAllTopsRowCounts(*db_, raw_const);
  }

  // The primary replica feeds the export. Export before the swap, while
  // the stores are still private: once live, concurrent 3-queries intern
  // into the primary catalog, and ExportTopInfoTable's infos() iteration
  // must not race that.
  if (options.export_topinfo) {
    next[0]->ExportTopInfoTable(db_, *executor_->schema());
  }

  // Roll the shards independently: one epoch swap per shard, each retiring
  // its predecessor when the last in-flight sub-query releases it. Queries
  // scattering mid-roll see a mix of old and new shard snapshots: with
  // unchanged build options both epochs rank identically, so merged
  // results stay byte-identical throughout; if the rebuild changed
  // scoring-relevant options (deeper l, different prune threshold),
  // mid-roll rankings may transiently mix epochs — the merge's TID-keyed
  // collapse still returns each topology exactly once, and the next
  // scatter after the roll completes is fully on the new epoch.
  for (size_t i = 0; i < num_shards; ++i) {
    std::shared_ptr<core::TopologyStore> retired =
        sstore->SwapShard(i, next[i]);
    std::vector<std::string> retired_tables =
        retired->PrecomputeTableNames();
    storage::Catalog* db = db_;
    // add_cleanup, not set_cleanup: a retired mutation overlay already has
    // a hook chaining down to the epoch base store, and this drop list
    // covers every table the chain still exposes (re-drops of the
    // overlay's own tables fail harmlessly).
    retired->add_cleanup([db, retired_tables]() {
      for (const std::string& name : retired_tables) {
        (void)db->DropTable(name);
      }
    });
    retired.reset();
    ++stats.shards_swapped;
  }
  BumpRebuildGeneration();
  InvalidateCache();
  // Refresh the skew observables for the new epoch.
  metrics_.SetShardRows(stats.shard_rows);
  return stats;
}

wire::WireResponse TopologyService::RunQuery(
    const wire::WireRequest& request,
    std::shared_ptr<const engine::QueryResult> cached,
    std::string fingerprint, Stopwatch watch,
    const std::shared_ptr<obs::QueryTrace>& trace, double queue_seconds) {
  const size_t slot = ServiceMetrics::SlotOf(request.method);
  wire::WireResponse response;
  response.request_id = request.id;
  if (cached != nullptr) {
    response.result = *cached;
    response.from_cache = true;
    response.service_seconds = watch.ElapsedSeconds();
    metrics_.RecordRequest(slot, response.service_seconds,
                           /*cache_hit=*/true, /*ok=*/true);
    if (trace != nullptr) {
      trace->AddSpan("cache.lookup", trace->root_span_id(),
                     obs::UnixSeconds(), response.service_seconds, "hit=1");
    }
    FinishQueryObservation(request, response, trace, queue_seconds);
    return response;
  }

  if (trace != nullptr) {
    // Miss spans cost one map probe; recorded only for sampled queries.
    trace->AddSpan("cache.lookup", trace->root_span_id(),
                   obs::UnixSeconds(), 0.0, "hit=0");
  }

  // No service-level lock: Execute pins store snapshots (one per routed
  // shard) and the catalog interns under its own mutex, so 2-queries,
  // 3-queries, and rebuild staging coexist freely.
  const double exec_start_unix =
      trace != nullptr ? obs::UnixSeconds() : 0.0;
  Stopwatch exec_watch;
  Result<engine::QueryResult> result = executor_->Execute(
      request.query, request.method, request.options, trace);
  const bool ok = result.ok();
  if (trace != nullptr) {
    std::string tags =
        ok ? wire::ExecStatsTraceTags(result->stats)
           : "ok=0,error=" + obs::TagValueSafe(result.status().message());
    trace->AddSpan("execute", trace->root_span_id(), exec_start_unix,
                   exec_watch.ElapsedSeconds(), std::move(tags),
                   ok ? result->stats.cpu_ns : 0);
  }
  // Degraded answers (a shard failed or timed out; partial=true) are
  // never cached: the blip is transient, but a cached partial would keep
  // serving the incomplete ranking until the next epoch swap.
  if (ok && !result->partial && config_.enable_cache) {
    cache_.Insert(fingerprint,
                  std::make_shared<engine::QueryResult>(*result));
  }
  if (ok) {
    response.result = std::move(*result);
  } else {
    response.error = wire::WireErrorFromStatus(result.status());
  }
  response.service_seconds = watch.ElapsedSeconds();
  metrics_.RecordRequest(slot, response.service_seconds, /*cache_hit=*/false,
                         ok, ok ? &response.result.stats : nullptr);
  FinishQueryObservation(request, response, trace, queue_seconds);
  return response;
}

void TopologyService::FinishQueryObservation(
    const wire::WireRequest& request, const wire::WireResponse& response,
    const std::shared_ptr<obs::QueryTrace>& trace, double queue_seconds) {
  if (trace != nullptr) {
    trace->Finish(response.service_seconds);
    tracer_.Record(trace);
  }
  if (!slow_log_.enabled() ||
      response.service_seconds < slow_log_.threshold_seconds()) {
    return;
  }
  obs::SlowQueryRecord record;
  record.unix_seconds = obs::UnixSeconds();
  record.service_seconds = response.service_seconds;
  record.queue_seconds = queue_seconds;
  ParsedRequest parsed;
  parsed.query = request.query;
  parsed.method = request.method;
  parsed.options = request.options;
  Result<std::string> line = RequestParser::Format(parsed);
  record.request = line.ok() ? std::move(*line)
                             : request.query.entity_set1 + " / " +
                                   request.query.entity_set2;
  record.method = engine::MethodKindToString(request.method);
  record.from_cache = response.from_cache;
  record.ok = response.error.ok();
  if (record.ok) {
    const engine::ExecStats& stats = response.result.stats;
    record.plan = stats.plan;
    record.rows_scanned = stats.rows_scanned;
    record.rows_out = stats.rows_out;
    record.blocks_total = stats.blocks_total;
    record.blocks_skipped = stats.blocks_skipped;
    record.cpu_ns = stats.cpu_ns;
    record.bytes_deserialized = stats.bytes_deserialized;
    record.heap_bytes = stats.heap_bytes;
  }
  if (trace != nullptr) {
    record.trace_id = trace->trace_id();
    record.span_tree = obs::FormatSpanTree(trace->Spans());
  }
  slow_log_.Record(std::move(record));
}

/// --- The wire surface ------------------------------------------------------

void TopologyService::DeliverFrame(
    const std::shared_ptr<StreamState>& stream, wire::WireFrame frame) {
  std::lock_guard<std::mutex> lock(stream->sink_mu);
  stream->sink->OnFrame(frame);
  if (frame.kind != wire::FrameKind::kResponse) return;
  TSB_CHECK_GT(stream->open, 0u);
  if (--stream->open > 0) return;
  // Unregister BEFORE the end frame goes out, so a client that saw the
  // end can rely on CancelStream returning false (no finished-but-still-
  // cancellable window). Lock order sink_mu -> streams_mu_ is unique to
  // this path; CancelStream takes streams_mu_ alone.
  if (stream->id != 0) {
    std::lock_guard<std::mutex> streams_lock(streams_mu_);
    streams_.erase(stream->id);
  }
  if (stream->send_end) {
    wire::WireFrame end;
    end.kind = wire::FrameKind::kStreamEnd;
    end.stream_id = stream->id;
    stream->sink->OnFrame(end);
  }
}

void TopologyService::DeliverResponse(
    const std::shared_ptr<StreamState>& stream,
    wire::WireResponse response) {
  wire::WireFrame frame;
  frame.kind = wire::FrameKind::kResponse;
  frame.stream_id = stream->id;
  frame.response = std::move(response);
  DeliverFrame(stream, std::move(frame));
}

void TopologyService::DeliverError(
    const std::shared_ptr<StreamState>& stream, uint64_t request_id,
    wire::WireErrorCode code, std::string message) {
  wire::WireResponse response;
  response.request_id = request_id;
  response.error = wire::WireError{code, std::move(message)};
  DeliverResponse(stream, std::move(response));
}

void TopologyService::SubmitToStream(
    wire::WireRequest request, const std::shared_ptr<StreamState>& stream) {
  Stopwatch watch;
  if (!accepting_.load(std::memory_order_acquire)) {
    DeliverError(stream, request.id, wire::WireErrorCode::kShuttingDown,
                 "service is shut down");
    return;
  }

  // No epoch component here: mutation overlays swap the store on every
  // batch, and an epoch-keyed entry would miss after a swap even for pairs
  // the batch never touched. The PairStamp's rebuild generation (bumped
  // before Rebuild's cache clear) orphans late inserts from in-flight
  // pre-rebuild queries, and its per-pair generation does the same for
  // mutated pairs — so clean-pair entries survive mutation swaps.
  std::string fingerprint =
      PairStamp(request.query) +
      FingerprintQuery(request.query, request.method, request.options);

  // Sampling decision up front so the cache fast path is traced too. A
  // request arriving with an active trace context (a traced upstream)
  // is always traced and joins the upstream's trace.
  std::shared_ptr<obs::QueryTrace> trace =
      request.trace.active()
          ? tracer_.StartTrace("service.query", request.trace)
          : tracer_.StartTrace("service.query");

  // Fast path: answer hits on the caller's thread, no pool hop, no
  // admission charge.
  if (config_.enable_cache) {
    if (std::shared_ptr<const engine::QueryResult> hit =
            cache_.Lookup(fingerprint)) {
      DeliverResponse(stream, RunQuery(request, std::move(hit),
                                       std::move(fingerprint), watch, trace,
                                       /*queue_seconds=*/0.0));
      return;
    }
  }

  // Per-class admission: bound queued + executing work of this class.
  const size_t cls = static_cast<size_t>(request.priority);
  const size_t bound = request.priority == wire::Priority::kInteractive
                           ? config_.max_in_flight
                           : config_.batch_max_in_flight;
  const size_t in_class =
      class_in_flight_[cls].fetch_add(1, std::memory_order_acq_rel);
  if (in_class >= bound) {
    class_in_flight_[cls].fetch_sub(1, std::memory_order_acq_rel);
    metrics_.RecordRejected(cls);
    DeliverError(
        stream, request.id, wire::WireErrorCode::kOverloaded,
        "service overloaded: " + std::to_string(in_class) + " " +
            wire::PriorityToString(request.priority) +
            " requests in flight (max " + std::to_string(bound) + ")");
    return;
  }
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  metrics_.RecordAdmitted(cls);

  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    QueuedItem item;
    item.req = std::move(request);
    item.stream = stream;
    item.fingerprint = std::move(fingerprint);
    item.watch = watch;
    item.trace = std::move(trace);
    queues_[cls].push_back(std::move(item));
  }
  // One drain token per queued item; a worker completes the
  // highest-priority pending item, not necessarily this one.
  std::future<void> token = pool_.Submit([this]() { DrainOne(); });
  if (!token.valid()) {
    // Raced with Shutdown() after the accepting_ gate: complete one
    // queued item (possibly another's) with a shutdown error so every
    // admitted request still gets its terminal frame.
    DrainOne(wire::WireErrorCode::kShuttingDown);
  }
}

void TopologyService::DrainOne(
    std::optional<wire::WireErrorCode> forced_shed, bool ignore_batch_cap) {
  const size_t batch_cls = static_cast<size_t>(wire::Priority::kBatch);
  const size_t batch_cap =
      config_.max_concurrent_batch > 0
          ? config_.max_concurrent_batch
          : std::max<size_t>(1, pool_.num_threads() - 1);
  QueuedItem item;
  bool found = false;
  bool is_batch = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    for (size_t cls = 0; cls < wire::kNumPriorities && !found; ++cls) {
      if (queues_[cls].empty()) continue;
      if (cls == batch_cls && !forced_shed.has_value() &&
          !ignore_batch_cap && batch_executing_ >= batch_cap) {
        // Over the batch concurrency cap: retire this token; the next
        // finishing batch request funds a replacement (serialized under
        // queue_mu_, so the refund can never miss this stall).
        ++stalled_batch_tokens_;
        return;
      }
      item = std::move(queues_[cls].front());
      queues_[cls].pop_front();
      found = true;
      if (cls == batch_cls) {
        is_batch = true;
        ++batch_executing_;
      }
    }
  }
  if (!found) return;  // Defensive: tokens always match queued items.

  const size_t cls = static_cast<size_t>(item.req.priority);
  const double waited = item.watch.ElapsedSeconds();
  if (forced_shed.has_value()) {
    DeliverError(item.stream, item.req.id, *forced_shed,
                 "service is shut down");
  } else if (item.stream->cancelled.load(std::memory_order_acquire)) {
    metrics_.RecordCancelled(cls);
    DeliverError(item.stream, item.req.id, wire::WireErrorCode::kCancelled,
                 "stream cancelled before execution");
  } else if (item.req.deadline_seconds > 0.0 &&
             waited > item.req.deadline_seconds) {
    // Deadline-based shedding: the request expired in the queue; answering
    // it late helps nobody and steals a worker from live traffic.
    metrics_.RecordDeadlineShed(cls);
    DeliverError(item.stream, item.req.id,
                 wire::WireErrorCode::kDeadlineExceeded,
                 "deadline of " + std::to_string(item.req.deadline_seconds) +
                     "s exceeded after " + std::to_string(waited) +
                     "s in queue");
  } else {
    if (item.trace != nullptr) {
      item.trace->AddSpan(
          "queue.wait", item.trace->root_span_id(),
          obs::UnixSeconds() - waited, waited,
          "class=" + std::string(wire::PriorityToString(item.req.priority)));
    }
    // Re-check the cache: an identical request may have completed while
    // this one sat in the queue.
    std::shared_ptr<const engine::QueryResult> hit;
    if (config_.enable_cache) hit = cache_.Lookup(item.fingerprint);
    wire::WireResponse response =
        RunQuery(item.req, std::move(hit), std::move(item.fingerprint),
                 item.watch, item.trace, waited);
    metrics_.RecordClassLatency(cls, response.service_seconds);
    DeliverResponse(item.stream, std::move(response));
  }
  class_in_flight_[cls].fetch_sub(1, std::memory_order_acq_rel);
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);

  if (is_batch) {
    bool refund = false;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      --batch_executing_;
      if (stalled_batch_tokens_ > 0 && !queues_[batch_cls].empty()) {
        --stalled_batch_tokens_;
        refund = true;
      }
    }
    if (refund) {
      // Fund the replacement for a token retired at the cap. If the pool
      // is gone, Shutdown()'s flush loop picks the item up instead.
      (void)pool_.Submit([this]() { DrainOne(); });
    }
  }
}

void TopologyService::Submit(const wire::WireRequest& request,
                             wire::StreamSink& sink) {
  auto stream = std::make_shared<StreamState>();
  stream->sink = &sink;
  stream->open = 1;
  stream->send_end = false;
  SubmitToStream(request, stream);
}

uint64_t TopologyService::SubmitStream(
    std::vector<wire::WireRequest> requests, wire::StreamSink& sink) {
  auto stream = std::make_shared<StreamState>();
  stream->id = next_stream_id_.fetch_add(1, std::memory_order_relaxed);
  stream->sink = &sink;
  stream->open = requests.size();
  stream->send_end = true;

  if (requests.empty()) {
    // Nothing will ever decrement open: deliver the end frame directly.
    wire::WireFrame end;
    end.kind = wire::FrameKind::kStreamEnd;
    end.stream_id = stream->id;
    std::lock_guard<std::mutex> lock(stream->sink_mu);
    stream->sink->OnFrame(end);
    return stream->id;
  }

  {
    std::lock_guard<std::mutex> lock(streams_mu_);
    streams_.emplace(stream->id, stream);
  }
  for (wire::WireRequest& request : requests) {
    SubmitToStream(std::move(request), stream);
  }
  return stream->id;
}

bool TopologyService::CancelStream(uint64_t stream_id) {
  std::lock_guard<std::mutex> lock(streams_mu_);
  auto it = streams_.find(stream_id);
  if (it == streams_.end()) return false;
  it->second->cancelled.store(true, std::memory_order_release);
  return true;
}

std::future<TripleResponse> TopologyService::SubmitTriple(
    const engine::TripleQuery& query) {
  Stopwatch watch;
  if (!accepting_.load(std::memory_order_acquire)) {
    return Ready(TripleResponse{
        Status::FailedPrecondition("service is shut down"), false, 0.0});
  }

  std::string fingerprint = EpochFingerprint(FingerprintTripleQuery(query));
  if (config_.enable_cache) {
    if (std::shared_ptr<const engine::TripleQueryResult> hit =
            triple_cache_.Lookup(fingerprint)) {
      TripleResponse response{*hit, true, watch.ElapsedSeconds()};
      metrics_.RecordRequest(ServiceMetrics::kTripleSlot,
                             response.service_seconds, true, true);
      return Ready(std::move(response));
    }
  }

  // Triples ride the interactive class bound (they are user-facing) —
  // checked against the interactive counter, not total in-flight, so a
  // large admitted batch flood cannot starve 3-queries out of admission.
  const size_t interactive_cls =
      static_cast<size_t>(wire::Priority::kInteractive);
  size_t in_class = class_in_flight_[interactive_cls].fetch_add(
      1, std::memory_order_acq_rel);
  if (in_class >= config_.max_in_flight) {
    class_in_flight_[interactive_cls].fetch_sub(1,
                                                std::memory_order_acq_rel);
    metrics_.RecordRejected(interactive_cls);
    return Ready(TripleResponse{
        Status::ResourceExhausted("service overloaded"), false,
        watch.ElapsedSeconds()});
  }
  in_flight_.fetch_add(1, std::memory_order_acq_rel);

  std::future<TripleResponse> future = pool_.Submit(
      [this, query, fingerprint = std::move(fingerprint), watch]() mutable {
        // The executor pins the live shard snapshots for this
        // evaluation. Interning into the shared catalog is thread-safe, so
        // no lock excludes 2-query traffic.
        Result<engine::TripleQueryResult> result =
            executor_->ExecuteTriple(query);
        const bool ok = result.ok();
        // As with 2-queries: partial (shard-degraded) results stay out
        // of the cache.
        if (ok && !result->partial && config_.enable_cache) {
          triple_cache_.Insert(
              fingerprint,
              std::make_shared<engine::TripleQueryResult>(*result));
        }
        TripleResponse response{std::move(result), false,
                                watch.ElapsedSeconds()};
        metrics_.RecordRequest(ServiceMetrics::kTripleSlot,
                               response.service_seconds, false, ok);
        class_in_flight_[static_cast<size_t>(wire::Priority::kInteractive)]
            .fetch_sub(1, std::memory_order_acq_rel);
        in_flight_.fetch_sub(1, std::memory_order_acq_rel);
        return response;
      });
  if (!future.valid()) {
    class_in_flight_[interactive_cls].fetch_sub(1,
                                                std::memory_order_acq_rel);
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    return Ready(TripleResponse{
        Status::FailedPrecondition("service is shut down"), false, 0.0});
  }
  return future;
}

void TopologyService::InvalidateCache() {
  cache_.Clear();
  triple_cache_.Clear();
}

void TopologyService::Shutdown() {
  accepting_.store(false, std::memory_order_release);
  // Pool shutdown drains queued drain tokens: every admitted request still
  // executes (or sheds) and delivers its terminal frame before we return.
  pool_.Shutdown();
  // Flush items whose tokens retired at the batch concurrency cap (their
  // refunds found the pool gone). No workers remain, so this thread drains
  // them directly; every sink still sees its terminal frames.
  while (true) {
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (queues_[0].empty() && queues_[1].empty()) break;
    }
    DrainOne(std::nullopt, /*ignore_batch_cap=*/true);
  }
}

}  // namespace service
}  // namespace tsb
