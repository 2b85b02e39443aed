#include "engine/engine.h"

#include <algorithm>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/str_util.h"
#include "core/weak_filter.h"
#include "engine/columnar_scan.h"
#include "engine/methods_internal.h"
#include "exec/joins.h"
#include "exec/scans.h"
#include "exec/shaping.h"
#include "graph/path_enum.h"
#include "obs/cost.h"

namespace tsb {
namespace engine {

const char* MethodKindToString(MethodKind kind) {
  switch (kind) {
    case MethodKind::kSql:
      return "SQL";
    case MethodKind::kFullTop:
      return "Full-Top";
    case MethodKind::kFastTop:
      return "Fast-Top";
    case MethodKind::kFullTopK:
      return "Full-Top-k";
    case MethodKind::kFastTopK:
      return "Fast-Top-k";
    case MethodKind::kFullTopKEt:
      return "Full-Top-k-ET";
    case MethodKind::kFastTopKEt:
      return "Fast-Top-k-ET";
    case MethodKind::kFullTopKOpt:
      return "Full-Top-k-Opt";
    case MethodKind::kFastTopKOpt:
      return "Fast-Top-k-Opt";
  }
  return "?";
}

bool MethodIsTopK(MethodKind kind) {
  switch (kind) {
    case MethodKind::kSql:
    case MethodKind::kFullTop:
    case MethodKind::kFastTop:
      return false;
    default:
      return true;
  }
}

Engine::Engine(storage::Catalog* db, core::TopologyStore* store,
               const graph::SchemaGraph* schema,
               const graph::DataGraphView* view,
               core::ScoreModel score_model, SqlBaselineOptions sql_options)
    : Engine(db,
             std::make_shared<core::StoreHandle>(
                 // Non-owning: the caller keeps ownership of `store`.
                 std::shared_ptr<core::TopologyStore>(
                     store, [](core::TopologyStore*) {})),
             schema, view, std::move(score_model), sql_options) {
  swappable_store_ = false;
}

Engine::Engine(storage::Catalog* db,
               std::shared_ptr<core::StoreHandle> store,
               const graph::SchemaGraph* schema,
               const graph::DataGraphView* view,
               core::ScoreModel score_model, SqlBaselineOptions sql_options)
    : db_(db),
      store_handle_(std::move(store)),
      schema_(schema),
      view_(view),
      knowledge_(score_model.knowledge()),
      sql_options_(sql_options) {
  // Seed the epoch-0 snapshot with the passed model (it is already bound
  // to the initial store's catalog by every construction site).
  auto [initial, epoch] = store_handle_->SnapshotWithEpoch();
  snapshot_ = std::shared_ptr<const ServingSnapshot>(new ServingSnapshot{
      epoch, std::move(initial), std::move(score_model)});
}

std::shared_ptr<const Engine::ServingSnapshot> Engine::AcquireSnapshot()
    const {
  const uint64_t current = store_handle_->epoch();
  {
    std::shared_lock<std::shared_mutex> lock(snapshot_mu_);
    if (snapshot_ != nullptr && snapshot_->epoch == current) {
      return snapshot_;
    }
  }
  std::unique_lock<std::shared_mutex> lock(snapshot_mu_);
  auto [store, epoch] = store_handle_->SnapshotWithEpoch();
  if (snapshot_ != nullptr && snapshot_->epoch == epoch) return snapshot_;
  // New epoch: rebind the score model to the new store's catalog. Domain
  // scores memoize from scratch (TIDs are epoch-local).
  core::ScoreModel scores(&store->catalog(), knowledge_);
  auto snapshot = std::shared_ptr<const ServingSnapshot>(new ServingSnapshot{
      epoch, std::move(store), std::move(scores)});
  snapshot_ = snapshot;
  return snapshot;
}

namespace {

Result<ResolvedQuery> ResolveQuery(const storage::Catalog& db,
                                   const core::TopologyStore& store,
                                   const TopologyQuery& query) {
  ResolvedQuery rq;
  const storage::EntitySetDef* es1 = db.FindEntitySet(query.entity_set1);
  const storage::EntitySetDef* es2 = db.FindEntitySet(query.entity_set2);
  if (es1 == nullptr) {
    return Status::NotFound("unknown entity set '" + query.entity_set1 + "'");
  }
  if (es2 == nullptr) {
    return Status::NotFound("unknown entity set '" + query.entity_set2 + "'");
  }
  rq.pair = store.FindPair(es1->id, es2->id);
  if (rq.pair == nullptr) {
    return Status::FailedPrecondition(
        "topologies not built for pair (" + query.entity_set1 + ", " +
        query.entity_set2 + "); run TopologyBuilder first");
  }
  // Honor the store's copy-on-write data-table overrides: a mutation
  // overlay store reads the versioned entity tables; base epochs resolve
  // to the original names unchanged.
  rq.table_a = db.GetTable(store.ResolveDataTable(es1->table_name));
  rq.table_b = db.GetTable(store.ResolveDataTable(es2->table_name));
  rq.pred_a = query.pred1 != nullptr ? query.pred1 : storage::MakeTrue();
  rq.pred_b = query.pred2 != nullptr ? query.pred2 : storage::MakeTrue();
  rq.type_a = es1->id;
  rq.type_b = es2->id;
  rq.self_pair = (es1->id == es2->id);
  rq.swapped = (!rq.self_pair && rq.pair->t1 != es1->id);
  rq.scheme = query.scheme;
  rq.k = query.k;
  return rq;
}

}  // namespace

Result<QueryResult> Engine::Execute(const TopologyQuery& query,
                                    MethodKind method,
                                    const ExecOptions& options) const {
  // Pin one store epoch for the whole evaluation; a concurrent rebuild
  // swap cannot pull tables or the score model out from under us.
  std::shared_ptr<const ServingSnapshot> snapshot = AcquireSnapshot();
  MethodContext ctx;
  TSB_ASSIGN_OR_RETURN(ctx.rq, ResolveQuery(*db_, *snapshot->store, query));
  ctx.engine = this;
  ctx.db = db_;
  ctx.store = snapshot->store.get();
  ctx.schema = schema_;
  ctx.view = snapshot->store->data_view() != nullptr
                 ? snapshot->store->data_view().get()
                 : view_;
  ctx.scores = &snapshot->scores;
  ctx.sql_options = &sql_options_;
  ctx.options = options;
  if (query.exclude_weak) {
    ctx.weak_tids = &WeakTids(snapshot->store->catalog(), *ctx.rq.pair);
  }

  const bool needs_pruned_tables =
      method == MethodKind::kFastTop || method == MethodKind::kFastTopK ||
      method == MethodKind::kFastTopKEt || method == MethodKind::kFastTopKOpt;
  if (needs_pruned_tables && !ctx.rq.pair->pruned) {
    return Status::FailedPrecondition(
        "Fast-Top methods need PruneFrequentTopologies to have run for this "
        "pair");
  }

  // Resource accounting brackets exactly the method dispatch: CPU burned
  // on this thread plus any catalog-intern / reserve-site charges made
  // below fold into the stats that travel with the result (and sum
  // correctly through scatter-gather's `total += partial->stats`).
  obs::CostTracker::Section cost_section;
  Stopwatch watch;
  QueryResult result;
  switch (method) {
    case MethodKind::kSql:
      result = RunSql(&ctx);
      break;
    case MethodKind::kFullTop:
      result = RunFullTop(&ctx);
      break;
    case MethodKind::kFastTop:
      result = RunFastTop(&ctx);
      break;
    case MethodKind::kFullTopK:
      result = RunFullTopK(&ctx);
      break;
    case MethodKind::kFastTopK:
      result = RunFastTopK(&ctx);
      break;
    case MethodKind::kFullTopKEt:
      result = RunFullTopKEt(&ctx);
      break;
    case MethodKind::kFastTopKEt:
      result = RunFastTopKEt(&ctx);
      break;
    case MethodKind::kFullTopKOpt:
      result = RunFullTopKOpt(&ctx);
      break;
    case MethodKind::kFastTopKOpt:
      result = RunFastTopKOpt(&ctx);
      break;
  }
  result.stats.seconds = watch.ElapsedSeconds();
  const obs::CostCounters cost = cost_section.Drain();
  result.stats.cpu_ns += cost.cpu_ns;
  result.stats.bytes_deserialized += cost.bytes_deserialized;
  result.stats.catalog_interns += cost.catalog_interns;
  result.stats.heap_bytes += cost.heap_bytes;
  if (ctx.used_columnar && !result.stats.plan.empty()) {
    result.stats.plan += " [columnar]";
  }
  return result;
}

Engine::EtOffsets Engine::ResolveEtOffsets(
    const exec::OutputSchema& schema) const {
  const uint64_t epoch = store_handle_->epoch();
  {
    std::lock_guard<std::mutex> lock(et_offsets_mu_);
    if (et_offsets_.has_value() && et_offsets_->first == epoch) {
      return et_offsets_->second;
    }
  }
  // Resolve outside the lock; the group-source layout is fixed by
  // BuildEtPlan, so a racing resolution (or an epoch swap in between)
  // lands on identical offsets.
  EtOffsets offsets;
  offsets.tid_col = schema.IndexOf("TI.TID");
  offsets.score_col = schema.IndexOf("TI.SCORE");
  std::lock_guard<std::mutex> lock(et_offsets_mu_);
  et_offsets_ = {epoch, offsets};
  return offsets;
}

std::optional<std::pair<uint64_t, Engine::EtOffsets>>
Engine::CachedEtOffsetsForTest() const {
  std::lock_guard<std::mutex> lock(et_offsets_mu_);
  return et_offsets_;
}

Result<std::vector<core::TopologyInstance>> Engine::Instances(
    const TopologyQuery& query, core::Tid tid,
    const core::RetrievalLimits& limits) const {
  std::shared_ptr<const ServingSnapshot> snapshot = AcquireSnapshot();
  MethodContext ctx;
  TSB_ASSIGN_OR_RETURN(ctx.rq, ResolveQuery(*db_, *snapshot->store, query));
  ctx.engine = this;
  ctx.db = db_;
  ctx.store = snapshot->store.get();
  ctx.schema = schema_;
  ctx.view = snapshot->store->data_view() != nullptr
                 ? snapshot->store->data_view().get()
                 : view_;
  ctx.scores = &snapshot->scores;
  ctx.sql_options = &sql_options_;

  const core::PairTopologyData& pair = *ctx.rq.pair;
  const std::string& target_code =
      snapshot->store->catalog().Get(tid).code;
  const MethodContext::Selected& a = ctx.SelectedA();
  const MethodContext::Selected& b = ctx.SelectedB();

  core::PairComputeLimits compute_limits;
  compute_limits.max_path_length = pair.max_path_length;
  compute_limits.union_limits = limits.union_limits;
  compute_limits.path_cap = limits.path_cap;

  std::vector<core::TopologyInstance> out;
  const storage::Table& alltops = *db_->GetTable(pair.alltops_table);
  const auto& e1 = alltops.column(0).ints();
  const auto& e2 = alltops.column(1).ints();
  const auto& tids = alltops.column(2).ints();
  size_t pairs_done = 0;
  for (size_t i = 0; i < alltops.num_rows(); ++i) {
    if (tids[i] != tid) continue;
    // Predicate filter, orientation-aware.
    bool qualifies;
    if (ctx.rq.self_pair) {
      qualifies = (a.set.count(e1[i]) > 0 && b.set.count(e2[i]) > 0) ||
                  (b.set.count(e1[i]) > 0 && a.set.count(e2[i]) > 0);
    } else {
      const bool e1_is_a = (ctx.rq.type_a == pair.t1);
      const auto& e1_side = e1_is_a ? a.set : b.set;
      const auto& e2_side = e1_is_a ? b.set : a.set;
      qualifies =
          e1_side.count(e1[i]) > 0 && e2_side.count(e2[i]) > 0;
    }
    if (!qualifies) continue;
    if (pairs_done >= limits.max_pairs) break;
    ++pairs_done;

    core::PairComputation computed = core::ComputePairTopologies(
        *ctx.view, *schema_, e1[i], e2[i], compute_limits);
    size_t emitted = 0;
    for (core::ComputedTopology& topo : computed.topologies) {
      if (topo.code != target_code) continue;
      if (emitted >= limits.max_instances_per_pair) break;
      ++emitted;
      core::TopologyInstance instance;
      instance.a = e1[i];
      instance.b = e2[i];
      instance.subgraph = std::move(topo.witness);
      instance.node_ids = std::move(topo.witness_ids);
      out.push_back(std::move(instance));
    }
  }
  return out;
}

void Engine::PrepareIndexes(const std::string& entity_set1,
                            const std::string& entity_set2) const {
  std::shared_ptr<const ServingSnapshot> snapshot = AcquireSnapshot();
  const storage::EntitySetDef* es1 = db_->FindEntitySet(entity_set1);
  const storage::EntitySetDef* es2 = db_->FindEntitySet(entity_set2);
  TSB_CHECK(es1 != nullptr && es2 != nullptr);
  const core::PairTopologyData* pair =
      snapshot->store->FindPair(es1->id, es2->id);
  TSB_CHECK(pair != nullptr);
  db_->GetOrBuildHashIndex(es1->table_name, "ID");
  db_->GetOrBuildHashIndex(es2->table_name, "ID");
  db_->GetOrBuildHashIndex(pair->alltops_table, "TID");
  if (pair->pruned) {
    db_->GetOrBuildHashIndex(pair->lefttops_table, "TID");
    db_->GetOrBuildHashIndex(pair->excptops_table, "TID");
  }
}

const Engine::PairSet& Engine::ExcpPairs(const core::PairTopologyData& pair,
                                         core::Tid tid) const {
  // The table name (namespace-prefixed) is unique per store epoch, so a
  // rebuilt pair never hits a stale entry.
  std::string key = pair.excptops_table + "#" + std::to_string(tid);
  {
    std::lock_guard<std::mutex> lock(excp_mu_);
    auto it = excp_cache_.find(key);
    if (it != excp_cache_.end()) return it->second;
  }
  // Build outside the lock (an I/O-sized scan); racing builders compute the
  // same set, and the emplace below keeps whichever landed first.
  PairSet set;
  const storage::Table& excp = *db_->GetTable(pair.excptops_table);
  const auto& e1 = excp.column(0).ints();
  const auto& e2 = excp.column(1).ints();
  const auto& tids = excp.column(2).ints();
  for (size_t i = 0; i < excp.num_rows(); ++i) {
    if (tids[i] == tid) set.emplace(e1[i], e2[i]);
  }
  std::lock_guard<std::mutex> lock(excp_mu_);
  return excp_cache_.emplace(std::move(key), std::move(set)).first->second;
}

const std::unordered_set<core::Tid>& Engine::WeakTids(
    const core::TopologyCatalog& catalog,
    const core::PairTopologyData& pair) const {
  // Keyed by the epoch-unique AllTops table name (see header).
  {
    std::lock_guard<std::mutex> lock(weak_mu_);
    auto it = weak_cache_.find(pair.alltops_table);
    if (it != weak_cache_.end()) return it->second;
  }
  std::unordered_set<core::Tid> weak =
      core::FindWeakTopologies(catalog, pair, knowledge_);
  std::lock_guard<std::mutex> lock(weak_mu_);
  return weak_cache_.emplace(pair.alltops_table, std::move(weak))
      .first->second;
}

// ---------------------------------------------------------------------------
// MethodContext primitives
// ---------------------------------------------------------------------------

const std::vector<uint8_t>& MethodContext::MaskA() { return Mask(true); }
const std::vector<uint8_t>& MethodContext::MaskB() { return Mask(false); }

const std::vector<uint8_t>& MethodContext::Mask(bool side_a) {
  std::optional<std::vector<uint8_t>>& mask = side_a ? mask_a_ : mask_b_;
  if (!mask.has_value()) {
    const storage::Table& table = side_a ? *rq.table_a : *rq.table_b;
    const storage::Predicate& pred = side_a ? *rq.pred_a : *rq.pred_b;
    storage::CompilePredicate(pred).EvalAll(table, &mask.emplace());
    stats.rows_scanned += table.num_rows();
    obs::CostTracker::ChargeHeapBytes(table.num_rows());
  }
  return *mask;
}

const MethodContext::Selected& MethodContext::SelectedA() {
  return Select(true);
}
const MethodContext::Selected& MethodContext::SelectedB() {
  return Select(false);
}

const MethodContext::Selected& MethodContext::Select(bool side_a) {
  std::optional<Selected>& selected = side_a ? selected_a_ : selected_b_;
  if (!selected.has_value()) {
    const std::vector<uint8_t>& mask = Mask(side_a);
    const auto& id_col = (side_a ? rq.table_a : rq.table_b)->column(0).ints();
    Selected s;
    for (size_t row = 0; row < mask.size(); ++row) {
      if (mask[row]) s.ids.push_back(id_col[row]);
    }
    s.set.reserve(s.ids.size());
    for (int64_t id : s.ids) s.set.insert(id);
    selected = std::move(s);
  }
  return *selected;
}

double MethodContext::ScoreOf(core::Tid tid) const {
  return scores->Score(rq.scheme, tid, *rq.pair);
}

void MethodContext::SortEntries(std::vector<ResultEntry>* entries) {
  std::sort(entries->begin(), entries->end(),
            [](const ResultEntry& a, const ResultEntry& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.tid < b.tid;
            });
}

std::vector<ResultEntry> MethodContext::RankTids(
    const std::vector<core::Tid>& tids) const {
  std::vector<ResultEntry> entries;
  entries.reserve(tids.size());
  for (core::Tid tid : tids) {
    if (Excluded(tid)) continue;  // Section 6.2.3 domain pruning.
    entries.push_back({tid, ScoreOf(tid)});
  }
  SortEntries(&entries);
  return entries;
}

std::vector<core::Tid> MethodContext::JoinTops(const std::string& tops_table) {
  // Columnar fast path: one eager block walk over the slice replaces the
  // hash-join plan (and the self-pair loop); identical distinct-TID set.
  if (std::unique_ptr<ColumnarScan> scan =
          ColumnarScan::TryCreate(this, tops_table)) {
    std::vector<core::Tid> out = scan->QualifiedTids();
    scan->FoldCounters(&stats);
    return out;
  }

  const storage::Table& tops = *db->GetTable(tops_table);
  std::unordered_set<core::Tid> distinct;

  if (!rq.self_pair) {
    // The Figure-14 plan: filtered entity scans hashed, the topology table
    // streamed through both joins, then DISTINCT on TID.
    auto a_ids = std::make_unique<exec::ProjectOp>(
        std::make_unique<exec::SeqScanOp>(rq.table_a, "A", rq.pred_a),
        std::vector<std::string>{"A.ID"});
    auto b_ids = std::make_unique<exec::ProjectOp>(
        std::make_unique<exec::SeqScanOp>(rq.table_b, "B", rq.pred_b),
        std::vector<std::string>{"B.ID"});
    auto probe = std::make_unique<exec::SeqScanOp>(&tops, "T", nullptr);
    auto j1 = std::make_unique<exec::HashJoinOp>(
        std::move(probe), std::move(a_ids), rq.swapped ? "T.E2" : "T.E1",
        "A.ID");
    auto j2 = std::make_unique<exec::HashJoinOp>(
        std::move(j1), std::move(b_ids), rq.swapped ? "T.E1" : "T.E2",
        "B.ID");
    auto dist = std::make_unique<exec::DistinctOp>(
        std::make_unique<exec::ProjectOp>(std::move(j2),
                                          std::vector<std::string>{"T.TID"}),
        std::vector<std::string>{"T.TID"});
    std::vector<exec::Tuple> rows = exec::RunToVector(dist.get());
    exec::OpCounters counters = dist->TreeCounters();
    stats.rows_scanned += counters.rows_scanned;
    stats.probes += counters.probes;
    stats.rows_out += counters.rows_out;
    stats.builds += counters.builds;
    std::vector<core::Tid> out;
    out.reserve(rows.size());
    for (const exec::Tuple& row : rows) out.push_back(row[0].AsInt64());
    return out;
  }

  // Self pair: a stored row (E1, E2) matches if (E1 in A and E2 in B) or
  // (E1 in B and E2 in A); direct orientation-aware loop.
  const Selected& a = SelectedA();
  const Selected& b = SelectedB();
  const auto& e1 = tops.column(0).ints();
  const auto& e2 = tops.column(1).ints();
  const auto& tid_col = tops.column(2).ints();
  stats.rows_scanned += tops.num_rows();
  for (size_t i = 0; i < tops.num_rows(); ++i) {
    const bool fwd = a.set.count(e1[i]) > 0 && b.set.count(e2[i]) > 0;
    const bool bwd = b.set.count(e1[i]) > 0 && a.set.count(e2[i]) > 0;
    if (fwd || bwd) distinct.insert(tid_col[i]);
  }
  std::vector<core::Tid> out(distinct.begin(), distinct.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::pair<int64_t, int64_t> MethodContext::NormalizedPair(
    int64_t a_side, int64_t b_side) const {
  if (rq.self_pair) {
    return {std::min(a_side, b_side), std::max(a_side, b_side)};
  }
  // E1 holds the entity of type pair->t1.
  const bool a_is_t1 = (rq.type_a == rq.pair->t1);
  return a_is_t1 ? std::make_pair(a_side, b_side)
                 : std::make_pair(b_side, a_side);
}

bool MethodContext::OnlineCheckPruned(core::Tid tid) {
  ++stats.subqueries;
  auto cls_it = rq.pair->pruned_class_of_tid.find(tid);
  TSB_CHECK(cls_it != rq.pair->pruned_class_of_tid.end());
  const core::ClassInfo& cls = rq.pair->classes[cls_it->second];
  const Engine::PairSet& exceptions = engine->ExcpPairs(*rq.pair, tid);

  const Selected& a = SelectedA();
  const Selected& b = SelectedB();
  // Sweep from the smaller selected side.
  const bool from_a = a.ids.size() <= b.ids.size();
  const Selected& from = from_a ? a : b;
  const Selected& to = from_a ? b : a;
  const storage::EntityTypeId from_type = from_a ? rq.type_a : rq.type_b;

  // Orientations of the class path to walk from the sweep side.
  std::vector<graph::SchemaPath> orientations;
  if (cls.path.start() == from_type) orientations.push_back(cls.path);
  if (cls.path.Reversed().start() == from_type &&
      !(cls.path == cls.path.Reversed())) {
    orientations.push_back(cls.path.Reversed());
  }

  bool found = false;
  for (const graph::SchemaPath& sp : orientations) {
    for (int64_t src : from.ids) {
      graph::ForEachSchemaPathInstanceFrom(
          *view, sp, src, [&](const graph::PathInstance& p) {
            ++stats.probes;
            int64_t dst = p.b();
            if (to.set.count(dst) == 0) return true;
            auto key = from_a ? NormalizedPair(src, dst)
                              : NormalizedPair(dst, src);
            if (exceptions.count(key) > 0) return true;
            found = true;
            return false;  // Early-out: one witness suffices.
          });
      if (found) return true;
    }
  }
  return false;
}

std::unique_ptr<exec::GroupedOperator> MethodContext::BuildEtPlan(
    const std::string& tops_table,
    const std::vector<ResultEntry>& ranked_groups) {
  TSB_CHECK(!rq.self_pair)
      << "ET plans are built for distinct-type pairs only";
  const storage::Table* tops = db->GetTable(tops_table);
  const storage::HashIndex& tops_index =
      db->GetOrBuildHashIndex(tops_table, "TID");
  const storage::HashIndex& a_index =
      db->GetOrBuildHashIndex(rq.table_a->name(), "ID");
  const storage::HashIndex& b_index =
      db->GetOrBuildHashIndex(rq.table_b->name(), "ID");

  std::vector<exec::Tuple> group_tuples;
  group_tuples.reserve(ranked_groups.size());
  for (const ResultEntry& entry : ranked_groups) {
    group_tuples.push_back(
        {storage::Value(entry.tid), storage::Value(entry.score)});
  }
  auto source = std::make_unique<exec::GroupSourceOp>(
      std::move(group_tuples),
      exec::OutputSchema({"TI.TID", "TI.SCORE"}));

  // Level 0: expand each topology group into its (E1, E2) rows.
  std::unique_ptr<exec::GroupedOperator> plan = std::make_unique<exec::IdgjOp>(
      std::move(source), tops, &tops_index, "T", "TI.TID", nullptr);

  // Level 1 and 2: join the entity tables with pushed-down predicates.
  const std::string e1_key = "T.E1";
  const std::string e2_key = "T.E2";
  struct Side {
    const storage::Table* table;
    const storage::HashIndex* index;
    storage::PredicateRef pred;
    std::string alias;
    std::string key;
  };
  // E1 holds type pair->t1; map the query sides accordingly.
  Side e1_side{rq.swapped ? rq.table_b : rq.table_a,
               rq.swapped ? &b_index : &a_index,
               rq.swapped ? rq.pred_b : rq.pred_a, "R1", e1_key};
  Side e2_side{rq.swapped ? rq.table_a : rq.table_b,
               rq.swapped ? &a_index : &b_index,
               rq.swapped ? rq.pred_a : rq.pred_b, "R2", e2_key};

  std::vector<Side> sides;
  for (size_t side_index : options.et_side_order) {
    TSB_CHECK_LT(side_index, 2u);
    sides.push_back(side_index == 0 ? e1_side : e2_side);
  }
  TSB_CHECK_EQ(sides.size(), 2u);
  for (size_t level = 0; level < sides.size(); ++level) {
    const Side& side = sides[level];
    DgjAlg alg = level < options.dgj_algs.size() ? options.dgj_algs[level]
                                                 : DgjAlg::kIdgj;
    if (alg == DgjAlg::kIdgj) {
      plan = std::make_unique<exec::IdgjOp>(std::move(plan), side.table,
                                            side.index, side.alias, side.key,
                                            side.pred);
    } else {
      plan = std::make_unique<exec::HdgjOp>(std::move(plan), side.table,
                                            side.alias, "ID", side.key,
                                            "TI.TID", side.pred);
    }
  }
  return plan;
}

}  // namespace engine
}  // namespace tsb
