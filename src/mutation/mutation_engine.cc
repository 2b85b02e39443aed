#include "mutation/mutation_engine.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "columnar/blocks.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/pruner.h"
#include "graph/data_graph.h"
#include "storage/table.h"

namespace tsb {
namespace mutation {

namespace {

bool TypeMatches(const storage::Value& v, storage::ColumnType type) {
  switch (type) {
    case storage::ColumnType::kInt64:
      return v.is_int64();
    case storage::ColumnType::kDouble:
      return v.is_double();
    case storage::ColumnType::kString:
      return v.is_string();
  }
  return false;
}

storage::Value DefaultValue(storage::ColumnType type) {
  switch (type) {
    case storage::ColumnType::kInt64:
      return storage::Value(int64_t{0});
    case storage::ColumnType::kDouble:
      return storage::Value(0.0);
    case storage::ColumnType::kString:
      return storage::Value(std::string());
  }
  return storage::Value(int64_t{0});
}

/// In-memory copy of one data table with the batch's ops applied — the
/// validation half of Apply. Rows keep their original order (removals are
/// tombstoned, additions append), matching what a from-scratch fixture
/// with the same edits would contain. Nothing touches the storage catalog
/// until the whole batch validates.
struct TableModel {
  std::string base_name;  // ORIGINAL def.table_name — the override map key.
  storage::TableSchema schema;
  std::vector<storage::Tuple> rows;
  std::vector<bool> dead;
  std::unordered_map<int64_t, size_t> row_by_id;
  size_t id_col = 0;
  size_t from_col = 0;  // Relationship tables only.
  size_t to_col = 0;
  bool touched = false;
};

/// Applies a batch sequentially against lazily loaded table models, so op k
/// validates against the state ops 1..k-1 produced (add-after-remove of the
/// same id is legal, an edge to a node removed earlier in the batch is not).
class BatchApplier {
 public:
  BatchApplier(storage::Catalog* db, const core::TopologyStore& live)
      : db_(db), live_(live) {}

  Status Apply(const MutationBatch& batch) {
    for (const Mutation& op : batch.ops) {
      TSB_RETURN_IF_ERROR(ApplyOp(op));
    }
    return Status::OK();
  }

  /// Nodes whose adjacency the batch changes: an added or removed node,
  /// both endpoints of every added, removed or cascaded edge. Attribute
  /// updates touch none. May repeat ids.
  const std::vector<int64_t>& touched_nodes() const { return touched_nodes_; }

  /// Models that actually changed, in first-touch order (deterministic
  /// table-creation order for the COW materialization).
  std::vector<const TableModel*> touched() const {
    std::vector<const TableModel*> out;
    for (const std::string& name : load_order_) {
      const TableModel& m = models_.at(name);
      if (m.touched) out.push_back(&m);
    }
    return out;
  }

 private:
  Status ApplyOp(const Mutation& op) {
    switch (op.kind) {
      case MutationKind::kAddNode:
        return AddNodeOp(op);
      case MutationKind::kRemoveNode:
        return RemoveNodeOp(op);
      case MutationKind::kAddEdge:
        return AddEdgeOp(op);
      case MutationKind::kRemoveEdge:
        return RemoveEdgeOp(op);
      case MutationKind::kUpdateAttribute:
        return UpdateAttributeOp(op);
    }
    return Status::InvalidArgument("unknown mutation kind");
  }

  Status AddNodeOp(const Mutation& op) {
    const storage::EntitySetDef* es = db_->FindEntitySet(op.set_name);
    if (es == nullptr) {
      return Status::NotFound("unknown entity set '" + op.set_name + "'");
    }
    TSB_RETURN_IF_ERROR(EnsureNodeIds());
    if (all_node_ids_.count(op.id) > 0) {
      return Status::AlreadyExists("entity id " + std::to_string(op.id) +
                                   " already exists (ids are global)");
    }
    TableModel* m = EntityModel(*es);
    storage::Tuple row(m->schema.num_columns());
    for (size_t c = 0; c < m->schema.num_columns(); ++c) {
      row[c] = c == m->id_col ? storage::Value(op.id)
                              : DefaultValue(m->schema.column(c).type);
    }
    for (const auto& [column, value] : op.attributes) {
      std::optional<size_t> c = m->schema.FindColumn(column);
      if (!c.has_value()) {
        return Status::InvalidArgument("no column '" + column + "' in " +
                                       m->base_name);
      }
      if (*c == m->id_col) {
        return Status::InvalidArgument("attribute must not name the id column");
      }
      if (value.is_null() || !TypeMatches(value, m->schema.column(*c).type)) {
        return Status::InvalidArgument("type mismatch for column '" + column +
                                       "' of " + m->base_name);
      }
      row[*c] = value;
    }
    m->row_by_id.emplace(op.id, m->rows.size());
    m->rows.push_back(std::move(row));
    m->dead.push_back(false);
    m->touched = true;
    all_node_ids_.insert(op.id);
    touched_nodes_.push_back(op.id);
    return Status::OK();
  }

  Status RemoveNodeOp(const Mutation& op) {
    const storage::EntitySetDef* es = db_->FindEntitySet(op.set_name);
    if (es == nullptr) {
      return Status::NotFound("unknown entity set '" + op.set_name + "'");
    }
    TableModel* m = EntityModel(*es);
    auto it = m->row_by_id.find(op.id);
    if (it == m->row_by_id.end()) {
      return Status::NotFound("no entity " + std::to_string(op.id) + " in " +
                              op.set_name);
    }
    m->dead[it->second] = true;
    m->row_by_id.erase(it);
    m->touched = true;
    TSB_RETURN_IF_ERROR(EnsureNodeIds());
    all_node_ids_.erase(op.id);
    touched_nodes_.push_back(op.id);
    // Cascade: drop every incident edge (referential integrity is a
    // DataGraphView invariant, so a from-scratch rebuild of the mutated
    // fixture could not carry a dangling edge either).
    for (const storage::RelationshipSetDef& rs : db_->relationship_sets()) {
      if (rs.from_type != es->id && rs.to_type != es->id) continue;
      TableModel* rm = RelModel(rs);
      for (size_t r = 0; r < rm->rows.size(); ++r) {
        if (rm->dead[r]) continue;
        if ((rs.from_type == es->id &&
             rm->rows[r][rm->from_col].AsInt64() == op.id) ||
            (rs.to_type == es->id &&
             rm->rows[r][rm->to_col].AsInt64() == op.id)) {
          rm->row_by_id.erase(rm->rows[r][rm->id_col].AsInt64());
          rm->dead[r] = true;
          rm->touched = true;
          touched_nodes_.push_back(rm->rows[r][rm->from_col].AsInt64());
          touched_nodes_.push_back(rm->rows[r][rm->to_col].AsInt64());
        }
      }
    }
    return Status::OK();
  }

  Status AddEdgeOp(const Mutation& op) {
    const storage::RelationshipSetDef* rs =
        db_->FindRelationshipSet(op.set_name);
    if (rs == nullptr) {
      return Status::NotFound("unknown relationship set '" + op.set_name +
                              "'");
    }
    TableModel* m = RelModel(*rs);
    if (m->row_by_id.count(op.id) > 0) {
      return Status::AlreadyExists("edge id " + std::to_string(op.id) +
                                   " already exists in " + op.set_name);
    }
    TableModel* from_m = EntityModel(db_->entity_set(rs->from_type));
    if (from_m->row_by_id.count(op.from) == 0) {
      return Status::NotFound("edge endpoint " + std::to_string(op.from) +
                              " not in " + db_->entity_set(rs->from_type).name);
    }
    TableModel* to_m = EntityModel(db_->entity_set(rs->to_type));
    if (to_m->row_by_id.count(op.to) == 0) {
      return Status::NotFound("edge endpoint " + std::to_string(op.to) +
                              " not in " + db_->entity_set(rs->to_type).name);
    }
    storage::Tuple row(m->schema.num_columns());
    for (size_t c = 0; c < m->schema.num_columns(); ++c) {
      row[c] = DefaultValue(m->schema.column(c).type);
    }
    row[m->id_col] = storage::Value(op.id);
    row[m->from_col] = storage::Value(op.from);
    row[m->to_col] = storage::Value(op.to);
    m->row_by_id.emplace(op.id, m->rows.size());
    m->rows.push_back(std::move(row));
    m->dead.push_back(false);
    m->touched = true;
    touched_nodes_.push_back(op.from);
    touched_nodes_.push_back(op.to);
    return Status::OK();
  }

  Status RemoveEdgeOp(const Mutation& op) {
    const storage::RelationshipSetDef* rs =
        db_->FindRelationshipSet(op.set_name);
    if (rs == nullptr) {
      return Status::NotFound("unknown relationship set '" + op.set_name +
                              "'");
    }
    TableModel* m = RelModel(*rs);
    auto it = m->row_by_id.find(op.id);
    if (it == m->row_by_id.end()) {
      return Status::NotFound("no edge " + std::to_string(op.id) + " in " +
                              op.set_name);
    }
    const storage::Tuple& row = m->rows[it->second];
    touched_nodes_.push_back(row[m->from_col].AsInt64());
    touched_nodes_.push_back(row[m->to_col].AsInt64());
    m->dead[it->second] = true;
    m->row_by_id.erase(it);
    m->touched = true;
    return Status::OK();
  }

  Status UpdateAttributeOp(const Mutation& op) {
    const storage::EntitySetDef* es = db_->FindEntitySet(op.set_name);
    if (es == nullptr) {
      return Status::NotFound("unknown entity set '" + op.set_name + "'");
    }
    TableModel* m = EntityModel(*es);
    auto it = m->row_by_id.find(op.id);
    if (it == m->row_by_id.end()) {
      return Status::NotFound("no entity " + std::to_string(op.id) + " in " +
                              op.set_name);
    }
    if (op.attributes.empty()) {
      return Status::InvalidArgument("attribute update carries no columns");
    }
    for (const auto& [column, value] : op.attributes) {
      std::optional<size_t> c = m->schema.FindColumn(column);
      if (!c.has_value()) {
        return Status::InvalidArgument("no column '" + column + "' in " +
                                       m->base_name);
      }
      if (*c == m->id_col) {
        return Status::InvalidArgument(
            "attribute update must not touch the id column");
      }
      if (value.is_null() || !TypeMatches(value, m->schema.column(*c).type)) {
        return Status::InvalidArgument("type mismatch for column '" + column +
                                       "' of " + m->base_name);
      }
      m->rows[it->second][*c] = value;
    }
    m->touched = true;
    return Status::OK();
  }

  /// Loads (once) the model of a set's backing table, reading through the
  /// live store's copy-on-write override so chained generations stack.
  TableModel* LoadModel(const std::string& base_name, const std::string& id_column,
                        const std::string& from_column,
                        const std::string& to_column) {
    auto it = models_.find(base_name);
    if (it != models_.end()) return &it->second;
    const storage::Table& src =
        *db_->GetTable(live_.ResolveDataTable(base_name));
    TableModel m;
    m.base_name = base_name;
    m.schema = src.schema();
    m.id_col = m.schema.ColumnIndexOrDie(id_column);
    if (!from_column.empty()) {
      m.from_col = m.schema.ColumnIndexOrDie(from_column);
      m.to_col = m.schema.ColumnIndexOrDie(to_column);
    }
    m.rows.reserve(src.num_rows());
    m.dead.assign(src.num_rows(), false);
    for (size_t r = 0; r < src.num_rows(); ++r) {
      m.row_by_id.emplace(src.GetInt64(r, m.id_col), r);
      m.rows.push_back(src.GetRow(static_cast<storage::RowIdx>(r)));
    }
    load_order_.push_back(base_name);
    return &models_.emplace(base_name, std::move(m)).first->second;
  }

  TableModel* EntityModel(const storage::EntitySetDef& es) {
    return LoadModel(es.table_name, es.id_column, "", "");
  }
  TableModel* RelModel(const storage::RelationshipSetDef& rs) {
    return LoadModel(rs.table_name, rs.id_column, rs.from_column,
                     rs.to_column);
  }

  /// Entity ids are globally unique (DataGraphView keys nodes by bare id),
  /// so uniqueness of an added node is checked across every entity set.
  Status EnsureNodeIds() {
    if (node_ids_loaded_) return Status::OK();
    for (const storage::EntitySetDef& es : db_->entity_sets()) {
      const TableModel* m = EntityModel(es);
      for (const auto& [id, row] : m->row_by_id) all_node_ids_.insert(id);
    }
    node_ids_loaded_ = true;
    return Status::OK();
  }

  storage::Catalog* db_;
  const core::TopologyStore& live_;
  std::unordered_map<std::string, TableModel> models_;
  std::vector<std::string> load_order_;
  std::unordered_set<int64_t> all_node_ids_;
  bool node_ids_loaded_ = false;
  std::vector<int64_t> touched_nodes_;
};

/// Records in `dist` the hop distance (at most `radius`) from the nearest
/// of `seeds` to every node of `view` it reaches, keeping the smaller
/// distance for nodes already present. A seed absent from the view reaches
/// nothing.
void MarkWithin(const graph::DataGraphView& view,
                const std::vector<int64_t>& seeds, size_t radius,
                std::unordered_map<graph::EntityId, size_t>* dist) {
  std::unordered_map<graph::EntityId, size_t> seen;
  std::vector<graph::EntityId> frontier;
  for (graph::EntityId id : seeds) {
    if (view.HasNode(id) && seen.emplace(id, 0).second) frontier.push_back(id);
  }
  for (size_t d = 1; d <= radius && !frontier.empty(); ++d) {
    std::vector<graph::EntityId> next;
    for (graph::EntityId id : frontier) {
      for (const graph::AdjEntry& adj : view.Neighbors(id)) {
        if (seen.emplace(adj.neighbor, d).second) next.push_back(adj.neighbor);
      }
    }
    frontier = std::move(next);
  }
  for (const auto& [id, d] : seen) {
    auto [it, inserted] = dist->emplace(id, d);
    if (!inserted) it->second = std::min(it->second, d);
  }
}

/// Copies a table's rows under a new name (compaction fold).
Result<storage::Table*> CopyTable(storage::Catalog* db,
                                  const std::string& src_name,
                                  const std::string& dst_name) {
  const storage::Table* src = db->FindTable(src_name);
  if (src == nullptr) {
    return Status::NotFound("fold source table missing: " + src_name);
  }
  auto created = db->CreateTable(dst_name, src->schema());
  TSB_RETURN_IF_ERROR(created.status());
  storage::Table* dst = created.value();
  for (size_t r = 0; r < src->num_rows(); ++r) {
    dst->AppendRowOrDie(src->GetRow(static_cast<storage::RowIdx>(r)));
  }
  return dst;
}

void CollectPairTables(const core::PairTopologyData& pair,
                       std::vector<std::string>* out) {
  for (const std::string* t :
       {&pair.alltops_table, &pair.pairclasses_table, &pair.lefttops_table,
        &pair.excptops_table}) {
    if (!t->empty()) out->push_back(*t);
  }
}

}  // namespace

MutationEngine::MutationEngine(
    storage::Catalog* db, const graph::SchemaGraph* schema,
    std::vector<std::shared_ptr<core::StoreHandle>> handles, Options options)
    : db_(db),
      schema_(schema),
      handles_(std::move(handles)),
      options_(std::move(options)),
      tracker_(schema, db),
      published_(handles_.size()) {
  TSB_CHECK(!handles_.empty()) << "MutationEngine needs at least one handle";
}

MutationEngine::~MutationEngine() { StopCompaction(); }

Result<ApplyStats> MutationEngine::Apply(const MutationBatch& batch) {
  std::lock_guard<std::mutex> lock(apply_mu_);
  return ApplyLocked(batch, nullptr);
}

Result<ApplyStats> MutationEngine::ApplyLogged(const MutationBatch& batch) {
  std::lock_guard<std::mutex> lock(apply_mu_);
  if (log_ == nullptr || !log_->is_open()) {
    return Status::FailedPrecondition("no delta log attached");
  }
  return ApplyLocked(batch, log_);
}

Status MutationEngine::Replay(const std::vector<MutationBatch>& batches) {
  std::lock_guard<std::mutex> lock(apply_mu_);
  for (const MutationBatch& batch : batches) {
    auto applied = ApplyLocked(batch, nullptr);
    TSB_RETURN_IF_ERROR(applied.status());
  }
  return Status::OK();
}

void MutationEngine::ForgetMemosUnlessPublished(
    const std::vector<std::shared_ptr<core::TopologyStore>>& live) {
  for (size_t s = 0; s < live.size(); ++s) {
    if (published_[s].lock() != live[s]) {
      memos_.clear();
      source_memo_bytes_.store(0, std::memory_order_relaxed);
      return;
    }
  }
}

void MutationEngine::DropReachableSources(
    const std::vector<int64_t>& touched, const graph::DataGraphView* old_view,
    const graph::DataGraphView& new_view) {
  if (memos_.empty() || touched.empty()) return;
  // Memos outlive a batch only while the live store is one this engine
  // published, and every such store carries its data view.
  TSB_CHECK(old_view != nullptr) << "memoized store without a data view";
  size_t radius = 0;
  for (const auto& [key, memo] : memos_) {
    radius = std::max(radius, memo.config.max_path_length - 1);
  }
  // A path that used a removed edge exists only in the old view, one that
  // uses an added edge only in the new one: measure the reach in both.
  std::unordered_map<graph::EntityId, size_t> dist;
  MarkWithin(*old_view, touched, radius, &dist);
  MarkWithin(new_view, touched, radius, &dist);
  for (auto& [key, memo] : memos_) {
    const size_t reach = memo.config.max_path_length - 1;
    for (const auto& [id, d] : dist) {
      if (d <= reach) memo.slices.erase(id);
    }
  }
}

Result<ApplyStats> MutationEngine::ApplyLocked(const MutationBatch& batch,
                                               DeltaLog* log) {
  Stopwatch watch;
  if (batch.ops.empty()) {
    return Status::InvalidArgument("empty mutation batch");
  }
  const size_t nshards = handles_.size();
  std::vector<std::shared_ptr<core::TopologyStore>> prev(nshards);
  for (size_t s = 0; s < nshards; ++s) prev[s] = handles_[s]->Snapshot();
  ForgetMemosUnlessPublished(prev);

  // Phase 1 — validate and model the batch entirely in memory. Any failure
  // returns here, before a single catalog write.
  BatchApplier applier(db_, *prev[0]);
  TSB_RETURN_IF_ERROR(applier.Apply(batch));

  std::vector<TypePair> built;
  size_t max_l = options_.build.max_path_length;
  for (const auto& [key, data] : prev[0]->pairs()) {
    built.push_back(key);
    max_l = std::max(max_l, data.max_path_length);
  }
  DirtyPairs dirty;
  TSB_ASSIGN_OR_RETURN(dirty, tracker_.Classify(batch, built, max_l));

  // Durable before visible: a validated batch is logged before the swap,
  // so a crash in between loses nothing (replay re-applies it), and an
  // invalid one never reaches the log.
  if (log != nullptr) TSB_RETURN_IF_ERROR(log->Append(batch));

  // Phase 2 — materialize copy-on-write data tables under this
  // generation's namespace. Overrides chain: start from the live store's
  // map so an untouched table keeps resolving to its latest version.
  const uint64_t gen = generation_.load(std::memory_order_relaxed) + 1;
  const std::string data_ns = "m" + std::to_string(gen) + ".";
  std::unordered_map<std::string, std::string> overrides =
      prev[0]->data_table_overrides();
  std::vector<std::string> created_data_tables;
  for (const TableModel* model : applier.touched()) {
    const std::string versioned = data_ns + model->base_name;
    auto created = db_->CreateTable(versioned, model->schema);
    if (!created.ok()) {
      for (const std::string& t : created_data_tables) (void)db_->DropTable(t);
      return created.status();
    }
    storage::Table* table = created.value();
    for (size_t r = 0; r < model->rows.size(); ++r) {
      if (!model->dead[r]) table->AppendRowOrDie(model->rows[r]);
    }
    overrides[model->base_name] = versioned;
    created_data_tables.push_back(versioned);
  }
  auto new_view =
      std::make_shared<const graph::DataGraphView>(*db_, overrides);
  // One dropper token shared by every shard store of this generation: the
  // COW tables disappear when the LAST composed store referencing them
  // unwinds (compaction breaks the chain; snapshots drain it).
  std::shared_ptr<void> dropper(
      nullptr, [db = db_, tables = created_data_tables](void*) {
        for (const std::string& t : tables) (void)db->DropTable(t);
      });

  // Phase 3 — compose the overlay store per shard: adopt the base catalog
  // (TID continuity), copy clean pairs verbatim, restage dirty pairs from
  // the mutated graph under the generation namespace, re-sweeping only the
  // sources the batch can reach.
  DropReachableSources(applier.touched_nodes(), prev[0]->data_view().get(),
                       *new_view);
  std::set<TypePair> structural(dirty.structural.begin(),
                                dirty.structural.end());
  std::vector<std::shared_ptr<core::TopologyStore>> next(nshards);
  // On failure nothing is published: drop the tables restaged pairs already
  // committed (`dropper` takes the COW tables), and the memos of the dirty
  // pairs, whose new slices describe a graph no reader will ever see.
  auto fail = [&](const Status& status) -> Result<ApplyStats> {
    for (const std::shared_ptr<core::TopologyStore>& store : next) {
      if (store == nullptr) continue;
      std::vector<std::string> restaged;
      for (const TypePair& key : dirty.structural) {
        const core::PairTopologyData* p = store->FindPair(key.first,
                                                          key.second);
        if (p != nullptr) CollectPairTables(*p, &restaged);
      }
      for (const std::string& t : restaged) (void)db_->DropTable(t);
    }
    for (const TypePair& key : dirty.structural) memos_.erase(key);
    UpdateMemoBytes();
    return status;
  };
  for (size_t s = 0; s < nshards; ++s) {
    next[s] = std::make_shared<core::TopologyStore>();
    next[s]->adopt_catalog(prev[s]->shared_catalog());
    for (const auto& [base, versioned] : overrides) {
      next[s]->set_data_table_override(base, versioned);
    }
    next[s]->set_data_view(new_view);
    for (const auto& [key, data] : prev[s]->pairs()) {
      if (structural.count(key) > 0) continue;  // Restaged below.
      core::PairTopologyData copy = data;
      const std::string& e1_base = db_->entity_set(copy.t1).table_name;
      const std::string& e2_base = db_->entity_set(copy.t2).table_name;
      const bool endpoints_changed =
          next[s]->ResolveDataTable(e1_base) !=
              prev[s]->ResolveDataTable(e1_base) ||
          next[s]->ResolveDataTable(e2_base) !=
              prev[s]->ResolveDataTable(e2_base);
      if (endpoints_changed) {
        // The columnar mirrors dictionary-encode endpoint rows; rebuild
        // them against the versioned tables so the scan stays hot (a stale
        // slice would silently fall back to the row path).
        copy.alltops_blocks = nullptr;
        copy.lefttops_blocks = nullptr;
      }
      auto added = next[s]->AddPair(std::move(copy));
      if (!added.ok()) return fail(added.status());
      if (endpoints_changed) {
        columnar::AttachSlices(*db_, next[s]->catalog(), added.value(),
                               next[s]->ResolveDataTable(e1_base),
                               next[s]->ResolveDataTable(e2_base));
      }
    }
  }

  core::TopologyBuilder builder(db_, schema_, new_view.get());
  size_t sources_swept = 0;
  size_t sources_reused = 0;
  for (const TypePair& key : dirty.structural) {
    const core::PairTopologyData* prev_pair =
        prev[0]->FindPair(key.first, key.second);
    core::BuildConfig cfg = options_.build;
    cfg.table_namespace = data_ns;
    if (prev_pair != nullptr) {
      // Re-stage with the caps the pair was originally built with, so the
      // overlay is byte-identical to rebuilding the mutated graph under
      // the base configuration.
      if (prev_pair->max_path_length > 0) {
        cfg.max_path_length = prev_pair->max_path_length;
      }
      if (prev_pair->build_max_class_representatives > 0) {
        cfg.max_class_representatives =
            prev_pair->build_max_class_representatives;
      }
      if (prev_pair->build_max_union_combinations > 0) {
        cfg.max_union_combinations = prev_pair->build_max_union_combinations;
      }
    }
    core::SourceMemo& memo = memos_[key];
    auto staged = builder.StagePair(key.first, key.second, cfg, &memo);
    if (!staged.ok()) return fail(staged.status());
    sources_swept += memo.sources_swept;
    sources_reused += memo.sources_reused;
    std::vector<core::PairBuildStaging> slices =
        core::SplitStagingForShards(std::move(staged).value(), nshards);
    for (size_t s = 0; s < nshards; ++s) {
      Status committed =
          builder.CommitStaged(std::move(slices[s]), next[s].get());
      if (!committed.ok()) return fail(committed);
    }
    if (prev_pair != nullptr && prev_pair->pruned) {
      core::PruneConfig prune;
      prune.frequency_threshold = prev_pair->prune_threshold;
      for (size_t s = 0; s < nshards; ++s) {
        auto pruned = core::PruneFrequentTopologies(db_, next[s].get(),
                                                    key.first, key.second,
                                                    prune);
        if (!pruned.ok()) return fail(pruned.status());
      }
    }
  }

  // Phase 4 — wire lifetimes and publish. Each overlay store's cleanup
  // drops its own restaged tables and pins (a) the store it overlaid — the
  // parent chain keeps every table a copied clean pair still references
  // alive — and (b) the generation's shared COW-table dropper.
  for (size_t s = 0; s < nshards; ++s) {
    std::vector<std::string> own_tables;
    for (const TypePair& key : dirty.structural) {
      const core::PairTopologyData* p =
          next[s]->FindPair(key.first, key.second);
      if (p != nullptr) CollectPairTables(*p, &own_tables);
    }
    next[s]->set_cleanup(
        [db = db_, own_tables, parent = prev[s], dropper]() {
          for (const std::string& t : own_tables) (void)db->DropTable(t);
          // `parent` and `dropper` release with this closure, cascading
          // the chain in order.
          (void)parent;
          (void)dropper;
        });
    handles_[s]->Swap(next[s]);
    published_[s] = next[s];
  }
  UpdateMemoBytes();

  ApplyStats stats;
  stats.generation = gen;
  stats.applied_ops = batch.ops.size();
  stats.structural_pairs = dirty.structural.size();
  stats.cache_only_pairs = dirty.cache_only.size();
  stats.sources_swept = sources_swept;
  stats.sources_reused = sources_reused;
  stats.dirty = dirty;

  generation_.store(gen, std::memory_order_relaxed);
  uncompacted_generations_.fetch_add(1, std::memory_order_relaxed);
  batches_applied_.fetch_add(1, std::memory_order_relaxed);
  ops_applied_.fetch_add(batch.ops.size(), std::memory_order_relaxed);
  pairs_restaged_total_.fetch_add(dirty.structural.size(),
                                  std::memory_order_relaxed);
  cache_only_pairs_total_.fetch_add(dirty.cache_only.size(),
                                    std::memory_order_relaxed);
  sources_swept_total_.fetch_add(sources_swept, std::memory_order_relaxed);
  sources_reused_total_.fetch_add(sources_reused, std::memory_order_relaxed);
  stats.apply_seconds = watch.ElapsedSeconds();
  {
    std::lock_guard<std::mutex> lock(status_mu_);
    for (const TypePair& p : dirty.structural) pending_pairs_.insert(p);
    last_apply_seconds_ = stats.apply_seconds;
  }
  if (invalidate_) invalidate_(stats.dirty);
  return stats;
}

Result<CompactionStats> MutationEngine::CompactNow() {
  std::lock_guard<std::mutex> lock(apply_mu_);
  return CompactLocked();
}

void MutationEngine::UpdateMemoBytes() {
  size_t bytes = 0;
  for (const auto& [key, memo] : memos_) bytes += memo.ApproxBytes();
  source_memo_bytes_.store(bytes, std::memory_order_relaxed);
}

std::optional<core::SourceMemo> MutationEngine::SourceMemoOf(
    const TypePair& pair) const {
  std::lock_guard<std::mutex> lock(apply_mu_);
  auto it = memos_.find(pair);
  if (it == memos_.end()) return std::nullopt;
  return it->second;
}

Result<CompactionStats> MutationEngine::CompactLocked() {
  CompactionStats stats;
  const uint64_t pending =
      uncompacted_generations_.load(std::memory_order_relaxed);
  if (pending == 0) return stats;  // Nothing accumulated; zero stats.

  Stopwatch watch;
  compacting_.store(true, std::memory_order_relaxed);
  const uint64_t round =
      compaction_round_.load(std::memory_order_relaxed) + 1;
  const std::string base_ns = "c" + std::to_string(round) + ".";
  const size_t nshards = handles_.size();

  std::vector<std::shared_ptr<core::TopologyStore>> prev(nshards);
  for (size_t s = 0; s < nshards; ++s) prev[s] = handles_[s]->Snapshot();
  // A fold leaves the graph as it is, so memos of the store it folds carry
  // over to the compacted one.
  ForgetMemosUnlessPublished(prev);

  // Fold the live COW data tables once (they are shared across shards):
  // copy each overridden table to a self-contained "c<round>." version so
  // the m-generation copies can unwind with their chain.
  std::unordered_map<std::string, std::string> overrides;
  std::vector<std::string> folded_data_tables;
  auto fail = [&](const Status& status) -> Result<CompactionStats> {
    for (const std::string& t : folded_data_tables) (void)db_->DropTable(t);
    compacting_.store(false, std::memory_order_relaxed);
    return status;
  };
  for (const auto& [base, versioned] : prev[0]->data_table_overrides()) {
    const std::string folded = base_ns + base;
    auto copied = CopyTable(db_, versioned, folded);
    if (!copied.ok()) return fail(copied.status());
    overrides[base] = folded;
    folded_data_tables.push_back(folded);
    ++stats.tables_copied;
    std::this_thread::sleep_for(options_.compaction_pair_pause);
  }
  std::shared_ptr<void> dropper(
      nullptr, [db = db_, tables = folded_data_tables](void*) {
        for (const std::string& t : tables) (void)db->DropTable(t);
      });
  std::shared_ptr<const graph::DataGraphView> view;
  if (!overrides.empty()) {
    view = std::make_shared<const graph::DataGraphView>(*db_, overrides);
  }

  // Roll shard by shard: fold every live pair's tables into the compacted
  // namespace, rebuild slices, swap — with a pause between pair folds so
  // interactive traffic on this core never sees a long stall.
  for (size_t s = 0; s < nshards; ++s) {
    const std::string ns =
        nshards == 1 ? base_ns : storage::ShardNamespace(base_ns, s);
    auto next = std::make_shared<core::TopologyStore>();
    next->adopt_catalog(prev[s]->shared_catalog());
    for (const auto& [base, folded] : overrides) {
      next->set_data_table_override(base, folded);
    }
    next->set_data_view(view);
    std::vector<std::string> own_tables;
    auto fold_table = [&](const std::string& src,
                          const std::string& dst) -> Status {
      auto copied = CopyTable(db_, src, dst);
      TSB_RETURN_IF_ERROR(copied.status());
      own_tables.push_back(dst);
      ++stats.tables_copied;
      return Status::OK();
    };
    for (const auto& [key, data] : prev[s]->pairs()) {
      core::PairTopologyData copy = data;
      copy.table_namespace = ns;
      copy.alltops_table = ns + "AllTops_" + copy.pair_name;
      Status folded = fold_table(data.alltops_table, copy.alltops_table);
      if (!folded.ok()) return fail(folded);
      if (!data.pairclasses_table.empty()) {
        copy.pairclasses_table = ns + "PairClasses_" + copy.pair_name;
        folded = fold_table(data.pairclasses_table, copy.pairclasses_table);
        if (!folded.ok()) return fail(folded);
      }
      if (!data.lefttops_table.empty()) {
        copy.lefttops_table = ns + "LeftTops_" + copy.pair_name;
        folded = fold_table(data.lefttops_table, copy.lefttops_table);
        if (!folded.ok()) return fail(folded);
      }
      if (!data.excptops_table.empty()) {
        copy.excptops_table = ns + "ExcpTops_" + copy.pair_name;
        folded = fold_table(data.excptops_table, copy.excptops_table);
        if (!folded.ok()) return fail(folded);
      }
      copy.alltops_blocks = nullptr;
      copy.lefttops_blocks = nullptr;
      auto added = next->AddPair(std::move(copy));
      if (!added.ok()) return fail(added.status());
      columnar::AttachSlices(
          *db_, next->catalog(), added.value(),
          next->ResolveDataTable(db_->entity_set(key.first).table_name),
          next->ResolveDataTable(db_->entity_set(key.second).table_name));
      ++stats.pairs_folded;
      std::this_thread::sleep_for(options_.compaction_pair_pause);
    }
    // A compacted store has NO parent pointer: when the retired overlay
    // chain's snapshots drain, the whole chain (and its m-generation
    // tables) unwinds.
    next->set_cleanup([db = db_, own_tables, dropper]() {
      for (const std::string& t : own_tables) (void)db->DropTable(t);
      (void)dropper;
    });
    handles_[s]->Swap(next);
    published_[s] = next;
  }

  stats.round = round;
  stats.generations_folded = pending;
  stats.fold_seconds = watch.ElapsedSeconds();
  compaction_round_.store(round, std::memory_order_relaxed);
  uncompacted_generations_.fetch_sub(pending, std::memory_order_relaxed);
  pairs_folded_total_.fetch_add(stats.pairs_folded, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(status_mu_);
    pending_pairs_.clear();
    last_fold_ = stats;
  }
  compacting_.store(false, std::memory_order_relaxed);
  return stats;
}

void MutationEngine::StartCompaction() {
  std::lock_guard<std::mutex> lock(cv_mu_);
  if (!stop_compactor_) return;  // Already running.
  stop_compactor_ = false;
  compactor_ = std::thread([this] { CompactionLoop(); });
}

void MutationEngine::StopCompaction() {
  {
    std::lock_guard<std::mutex> lock(cv_mu_);
    if (stop_compactor_) return;
    stop_compactor_ = true;
  }
  cv_.notify_all();
  if (compactor_.joinable()) compactor_.join();
}

void MutationEngine::CompactionLoop() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(cv_mu_);
      cv_.wait_for(lock, options_.compaction_poll,
                   [this] { return stop_compactor_; });
      if (stop_compactor_) return;
    }
    if (uncompacted_generations_.load(std::memory_order_relaxed) >=
        options_.compaction_min_generations) {
      auto folded = CompactNow();
      (void)folded;  // Fold failures leave the overlay chain serving.
    }
  }
}

std::string MutationEngine::StatusString() const {
  std::ostringstream os;
  os << "generation: " << generation_.load(std::memory_order_relaxed) << "\n"
     << "uncompacted_generations: "
     << uncompacted_generations_.load(std::memory_order_relaxed) << "\n"
     << "batches_applied: "
     << batches_applied_.load(std::memory_order_relaxed) << "\n"
     << "ops_applied: " << ops_applied_.load(std::memory_order_relaxed)
     << "\n"
     << "pairs_restaged_total: "
     << pairs_restaged_total_.load(std::memory_order_relaxed) << "\n"
     << "sources_swept_total: "
     << sources_swept_total_.load(std::memory_order_relaxed) << "\n"
     << "sources_reused_total: "
     << sources_reused_total_.load(std::memory_order_relaxed) << "\n"
     << "source_memo_bytes: "
     << source_memo_bytes_.load(std::memory_order_relaxed) << "\n"
     << "compaction_rounds: "
     << compaction_round_.load(std::memory_order_relaxed) << "\n"
     << "compaction_running: "
     << (compacting_.load(std::memory_order_relaxed) ? 1 : 0) << "\n"
     << "shards: " << handles_.size() << "\n";
  if (log_ != nullptr && log_->is_open()) {
    os << "wal_path: " << log_->path() << "\n"
       << "wal_appended_records: " << log_->appended_records() << "\n"
       << "wal_appended_bytes: " << log_->appended_bytes() << "\n";
  }
  std::lock_guard<std::mutex> lock(status_mu_);
  os << "pending_pairs: " << pending_pairs_.size();
  for (const TypePair& p : pending_pairs_) {
    os << "\n  " << db_->entity_set(p.first).name << "_"
       << db_->entity_set(p.second).name;
  }
  os << "\n"
     << "last_apply_seconds: " << last_apply_seconds_ << "\n"
     << "last_fold: round=" << last_fold_.round
     << " generations=" << last_fold_.generations_folded
     << " pairs=" << last_fold_.pairs_folded
     << " tables=" << last_fold_.tables_copied
     << " seconds=" << last_fold_.fold_seconds << "\n";
  return os.str();
}

namespace {

constexpr obs::MetricKind kCounter = obs::MetricKind::kCounter;
constexpr obs::MetricKind kGauge = obs::MetricKind::kGauge;

const obs::MetricFamily kCompactionRunning{
    "tsb_mutation_compaction_running", "1 while a fold is in progress",
    kGauge};
const obs::MetricFamily kPendingPairs{
    "tsb_mutation_pending_pairs",
    "Distinct pairs dirtied since the last fold", kGauge};

}  // namespace

const obs::CellTable<MutationEngine> MutationEngine::kMetricCells(
    {},
    {{kBatchesApplied, &MutationEngine::batches_applied_},
     {kOpsApplied, &MutationEngine::ops_applied_},
     {{"tsb_mutation_pairs_restaged_total",
       "Dirty entity pairs re-staged into overlay epochs", kCounter},
      &MutationEngine::pairs_restaged_total_},
     {{"tsb_mutation_sources_swept_total",
       "Source entities swept afresh while re-staging pairs", kCounter},
      &MutationEngine::sources_swept_total_},
     {{"tsb_mutation_sources_reused_total",
       "Source entities re-staged from the source memo unswept", kCounter},
      &MutationEngine::sources_reused_total_},
     {{"tsb_mutation_cache_only_pairs_total",
       "Pairs needing only cache eviction (no re-stage)", kCounter},
      &MutationEngine::cache_only_pairs_total_},
     {kCompactionRounds, &MutationEngine::compaction_round_},
     {{"tsb_mutation_pairs_folded_total",
       "Pair table sets folded into compacted epochs", kCounter},
      &MutationEngine::pairs_folded_total_},
     {{"tsb_mutation_generation",
       "Current mutation generation (0 = base epoch)", kGauge},
      &MutationEngine::generation_},
     {kUncompactedGenerations, &MutationEngine::uncompacted_generations_},
     {{"tsb_mutation_source_memo_bytes",
       "Estimated heap bytes held by the per-pair source memos", kGauge},
      &MutationEngine::source_memo_bytes_}});

void MutationEngine::Collect(obs::MetricsRead* read) const {
  kMetricCells.Read(*this, {}, read);
  read->Add(kCompactionRunning, {})
      .Set(compacting_.load(std::memory_order_relaxed) ? 1.0 : 0.0);
  {
    std::lock_guard<std::mutex> lock(status_mu_);
    read->Add(kPendingPairs, {})
        .Set(static_cast<uint64_t>(pending_pairs_.size()));
  }
  if (log_ != nullptr && log_->is_open()) {
    read->Add(kWalRecords, {}).Set(log_->appended_records());
    read->Add(kWalBytes, {}).Set(log_->appended_bytes());
  }
}

}  // namespace mutation
}  // namespace tsb
