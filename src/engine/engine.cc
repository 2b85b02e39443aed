#include "engine/engine.h"

#include <algorithm>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/str_util.h"
#include "core/weak_filter.h"
#include "engine/columnar_scan.h"
#include "engine/methods_internal.h"
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
  snapshot_ = std::make_shared<const ServingSnapshot>(
      epoch, std::move(initial), std::move(score_model));
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
  snapshot_ = std::make_shared<const ServingSnapshot>(
      epoch, std::move(store), std::move(scores));
  return snapshot_;
}

size_t Engine::CachedSetsForTest() const {
  std::shared_lock<std::shared_mutex> lock(snapshot_mu_);
  return snapshot_->CachedSets();
}

Engine::ServingSnapshot::ServingSnapshot(
    uint64_t epoch, std::shared_ptr<core::TopologyStore> store,
    core::ScoreModel scores)
    : epoch(epoch), store(std::move(store)), scores(std::move(scores)) {}

const Engine::PairSet& Engine::ServingSnapshot::ExcpPairs(
    const storage::Catalog& db, const core::PairTopologyData& pair,
    core::Tid tid) const {
  std::string key = pair.excptops_table + "#" + std::to_string(tid);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = excp_.find(key);
    if (it != excp_.end()) return it->second;
  }
  // Build outside the lock (an I/O-sized scan); racing builders compute the
  // same set, and the emplace below keeps whichever landed first.
  PairSet set;
  const storage::Table& excp = *db.GetTable(pair.excptops_table);
  const auto& e1 = excp.column(0).ints();
  const auto& e2 = excp.column(1).ints();
  const auto& tids = excp.column(2).ints();
  for (size_t i = 0; i < excp.num_rows(); ++i) {
    if (tids[i] == tid) set.emplace(e1[i], e2[i]);
  }
  std::lock_guard<std::mutex> lock(mu_);
  return excp_.emplace(std::move(key), std::move(set)).first->second;
}

const std::unordered_set<core::Tid>& Engine::ServingSnapshot::WeakTids(
    const core::PairTopologyData& pair) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = weak_.find(pair.alltops_table);
    if (it != weak_.end()) return it->second;
  }
  std::unordered_set<core::Tid> weak =
      core::FindWeakTopologies(store->catalog(), pair, scores.knowledge());
  std::lock_guard<std::mutex> lock(mu_);
  return weak_.emplace(pair.alltops_table, std::move(weak)).first->second;
}

size_t Engine::ServingSnapshot::CachedSets() const {
  std::lock_guard<std::mutex> lock(mu_);
  return excp_.size() + weak_.size();
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

Status Engine::BindContext(const TopologyQuery& query,
                           std::shared_ptr<const ServingSnapshot> snapshot,
                           MethodContext* ctx) const {
  TSB_ASSIGN_OR_RETURN(ctx->rq, ResolveQuery(*db_, *snapshot->store, query));
  ctx->db = db_;
  ctx->store = snapshot->store.get();
  ctx->schema = schema_;
  ctx->view = snapshot->store->data_view() != nullptr
                  ? snapshot->store->data_view().get()
                  : view_;
  ctx->scores = &snapshot->scores;
  ctx->sql_options = &sql_options_;
  if (query.exclude_weak) ctx->weak_tids = &snapshot->WeakTids(*ctx->rq.pair);
  ctx->snapshot = std::move(snapshot);
  return Status::OK();
}

Result<QueryResult> Engine::Execute(const TopologyQuery& query,
                                    MethodKind method,
                                    const ExecOptions& options) const {
  // Pin one store epoch for the whole evaluation; a concurrent rebuild
  // swap cannot pull tables or the score model out from under us.
  MethodContext ctx;
  TSB_RETURN_IF_ERROR(BindContext(query, AcquireSnapshot(), &ctx));
  ctx.options = options;

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

Result<std::vector<core::TopologyInstance>> Engine::Instances(
    const TopologyQuery& query, core::Tid tid,
    const core::RetrievalLimits& limits) const {
  MethodContext ctx;
  TSB_RETURN_IF_ERROR(BindContext(query, AcquireSnapshot(), &ctx));

  const core::PairTopologyData& pair = *ctx.rq.pair;
  const std::string& target_code = ctx.store->catalog().Get(tid).code;

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
    if (tids[i] != tid || !ctx.RowQualifies(e1[i], e2[i])) continue;
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

bool MethodContext::RanksBefore(const ResultEntry& x, const ResultEntry& y) {
  if (x.score != y.score) return x.score > y.score;
  return x.tid < y.tid;
}

std::vector<ResultEntry> MethodContext::RankTids(
    const std::vector<core::Tid>& tids) const {
  std::vector<ResultEntry> entries;
  entries.reserve(tids.size());
  for (core::Tid tid : tids) {
    if (Excluded(tid)) continue;  // Section 6.2.3 domain pruning.
    entries.push_back({tid, ScoreOf(tid)});
  }
  std::sort(entries.begin(), entries.end(), RanksBefore);
  return entries;
}

bool MethodContext::RowQualifies(int64_t e1, int64_t e2) {
  const std::unordered_set<int64_t>& a = SelectedA().set;
  const std::unordered_set<int64_t>& b = SelectedB().set;
  if (rq.self_pair) {
    // A self-pair row matches in either orientation.
    return (a.count(e1) > 0 && b.count(e2) > 0) ||
           (b.count(e1) > 0 && a.count(e2) > 0);
  }
  // E1 holds type pair->t1; `swapped` says the query's side B is that type.
  const std::unordered_set<int64_t>& e1_side = rq.swapped ? b : a;
  const std::unordered_set<int64_t>& e2_side = rq.swapped ? a : b;
  return e1_side.count(e1) > 0 && e2_side.count(e2) > 0;
}

std::vector<core::Tid> MethodContext::JoinTops(const std::string& tops_table) {
  // Columnar fast path: one eager block walk over the slice replaces the
  // row loop; identical distinct-TID set.
  if (std::unique_ptr<ColumnarScan> scan =
          ColumnarScan::TryCreate(this, tops_table)) {
    std::vector<core::Tid> out = scan->QualifiedTids();
    scan->FoldCounters(&stats);
    return out;
  }

  // The Figure-14 plan: the filtered id sets of both sides are the build
  // sides, the tops rows stream through as the probe, then DISTINCT on TID.
  const storage::Table& tops = *db->GetTable(tops_table);
  const auto& e1 = tops.column(0).ints();
  const auto& e2 = tops.column(1).ints();
  const auto& tid_col = tops.column(2).ints();
  stats.rows_scanned += tops.num_rows();
  std::unordered_set<core::Tid> distinct;
  for (size_t i = 0; i < tops.num_rows(); ++i) {
    if (RowQualifies(e1[i], e2[i])) distinct.insert(tid_col[i]);
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
  const Engine::PairSet& exceptions = snapshot->ExcpPairs(*db, *rq.pair, tid);

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
      std::move(source), tops, &tops_index, "T", "TI.TID");

  // Level 1 and 2: join the entity tables, each filtered by its side's
  // mask (the pushed-down predicate, evaluated once for the query).
  struct Side {
    const storage::Table* table;
    const storage::HashIndex* index;
    const std::vector<uint8_t>* mask;
    std::string alias;
    std::string key;
  };
  // E1 holds type pair->t1; map the query sides accordingly.
  Side e1_side{rq.swapped ? rq.table_b : rq.table_a,
               rq.swapped ? &b_index : &a_index,
               rq.swapped ? &MaskB() : &MaskA(), "R1", "T.E1"};
  Side e2_side{rq.swapped ? rq.table_a : rq.table_b,
               rq.swapped ? &a_index : &b_index,
               rq.swapped ? &MaskA() : &MaskB(), "R2", "T.E2"};

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
                                            side.mask);
    } else {
      plan = std::make_unique<exec::HdgjOp>(std::move(plan), side.table,
                                            side.alias, "ID", side.key,
                                            "TI.TID", side.mask);
    }
  }
  return plan;
}

}  // namespace engine
}  // namespace tsb
