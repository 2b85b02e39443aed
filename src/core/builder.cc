#include "core/builder.h"

#include <algorithm>
#include <deque>
#include <future>
#include <map>
#include <utility>

#include "columnar/blocks.h"
#include "common/logging.h"
#include "common/str_util.h"
#include "graph/canonical.h"
#include "graph/path_enum.h"

namespace tsb {
namespace core {
namespace {

using graph::EntityId;
using graph::PathInstance;

}  // namespace

Status ValidateBuildConfig(const BuildConfig& config) {
  if (config.max_path_length == 0) {
    return Status::InvalidArgument(
        "BuildConfig.max_path_length must be >= 1 (no path fits length 0)");
  }
  if (config.max_class_representatives == 0) {
    return Status::InvalidArgument(
        "BuildConfig.max_class_representatives must be >= 1 (Definition 2 "
        "needs one representative per class)");
  }
  if (config.max_union_combinations == 0) {
    return Status::InvalidArgument(
        "BuildConfig.max_union_combinations must be >= 1 (no union would "
        "ever be explored)");
  }
  if (config.max_paths_per_source == 0) {
    return Status::InvalidArgument(
        "BuildConfig.max_paths_per_source must be >= 1 (every sweep would "
        "be empty)");
  }
  return Status::OK();
}

namespace {

/// The order-dependent half of StagePair: folds source slices, in
/// EntitiesOfType order, into one pair's staging. Class ids and local TIDs
/// are assigned in first-encounter order, so the staging depends only on
/// the slices and their order, never on the pool indices they carry.
class StagingFold {
 public:
  StagingFold(const SourceMemo& pools, PairBuildStaging* staging)
      : pools_(pools), staging_(staging), data_(staging->data) {}

  void Add(EntityId a, const SourceMemo::Slice& slice) {
    class_of_key_.resize(pools_.keys.size(), kNone);
    local_of_topology_.resize(pools_.topologies.size(), kNone);
    if (slice.source_truncated) ++data_.truncated_pairs;
    if (slice.reps_truncated) ++data_.truncated_representatives;
    const uint32_t* classes = slice.classes.data();
    const uint32_t* topologies = slice.topologies.data();
    for (const SourceMemo::Dest& dest : slice.dests) {
      const size_t s = dest.num_classes;
      class_ids_.clear();
      for (size_t c = 0; c < s; ++c) class_ids_.push_back(ClassId(classes[c]));
      if (dest.union_truncated) ++data_.truncated_pairs;

      for (size_t t = 0; t < dest.num_topologies; ++t) {
        const uint32_t local = Stage(topologies[t], classes, s);
        staging_->alltops_rows.push_back(
            {a, dest.b, static_cast<int64_t>(local)});
        ++staging_->topologies[local].frequency;
        // Single-class pairs define the path topology of their class.
        // Classes observed only inside multi-class pairs keep kNoTid: their
        // path topology is never an observed topology (no pair is related
        // by it alone), so it must not appear in TopInfo — and it can never
        // be pruned, so no lookup needs the TID.
        if (s == 1 &&
            staging_->class_path_local_tid[class_ids_[0]] == kNoTid) {
          staging_->class_path_local_tid[class_ids_[0]] =
              static_cast<Tid>(local);
        }
      }
      // Exception bookkeeping: remember the class memberships of pairs
      // related by more than one class (Section 4.2.2).
      if (s > 1) {
        for (uint32_t cid : class_ids_) {
          staging_->pairclasses_rows.push_back(
              {a, dest.b, static_cast<int64_t>(cid)});
          ++data_.classes[cid].instance_pairs;
        }
      } else {
        ++data_.classes[class_ids_[0]].instance_pairs;
      }
      ++data_.num_related_pairs;
      classes += s;
      topologies += dest.num_topologies;
    }
  }

  /// Fills in the staged topologies' codes, graphs and merged class keys
  /// from the pools; `consume` moves them out of a pool about to be
  /// dropped.
  void Finish(SourceMemo* pools, bool consume) {
    for (size_t local = 0; local < staging_->topologies.size(); ++local) {
      PairBuildStaging::StagedTopology& staged = staging_->topologies[local];
      SourceMemo::PooledTopology& pooled =
          pools->topologies[topology_of_local_[local]];
      if (consume) {
        staged.code = std::move(pooled.code);
        staged.graph = std::move(pooled.graph);
      } else {
        staged.code = pooled.code;
        staged.graph = pooled.graph;
      }
      for (uint32_t key : keys_of_local_[local]) {
        staged.class_keys.push_back(pools->keys[key]);
      }
      staging_->local_by_code.emplace(staged.code, local);
    }
  }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// Registers (or fetches) the class id of a pooled class.
  uint32_t ClassId(uint32_t pooled) {
    const SourceMemo::PooledClass& entry = pools_.classes[pooled];
    uint32_t& id = class_of_key_[entry.key];
    if (id != kNone) return id;
    id = static_cast<uint32_t>(data_.classes.size());
    ClassInfo info;
    info.id = id;
    info.key = pools_.keys[entry.key];
    info.path = entry.path;
    data_.class_by_key.emplace(info.key, id);
    data_.classes.push_back(std::move(info));
    staging_->class_path_local_tid.push_back(kNoTid);
    return id;
  }

  /// Stages one observation of a topology, merging class keys on local
  /// re-observation exactly like the catalog's intern merge path.
  uint32_t Stage(uint32_t pooled, const uint32_t* classes, size_t s) {
    uint32_t& local = local_of_topology_[pooled];
    if (local != kNone) {
      std::vector<uint32_t>& keys = keys_of_local_[local];
      for (size_t c = 0; c < s; ++c) {
        const uint32_t key = pools_.classes[classes[c]].key;
        if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
          keys.push_back(key);
        }
      }
      return local;
    }
    local = static_cast<uint32_t>(staging_->topologies.size());
    PairBuildStaging::StagedTopology staged;
    staged.num_classes = s;
    staging_->topologies.push_back(std::move(staged));
    topology_of_local_.push_back(pooled);
    std::vector<uint32_t> keys;
    keys.reserve(s);
    for (size_t c = 0; c < s; ++c) keys.push_back(pools_.classes[classes[c]].key);
    keys_of_local_.push_back(std::move(keys));
    return local;
  }

  const SourceMemo& pools_;
  PairBuildStaging* staging_;
  PairTopologyData& data_;
  std::vector<uint32_t> class_of_key_;       // Key pool index -> class id.
  std::vector<uint32_t> local_of_topology_;  // Topology pool -> local TID.
  std::vector<uint32_t> topology_of_local_;  // Local TID -> topology pool.
  std::vector<std::vector<uint32_t>> keys_of_local_;  // Merged key indices.
  std::vector<uint32_t> class_ids_;          // Scratch: one dest's classes.
};

bool SameSweepCaps(const BuildConfig& a, const BuildConfig& b) {
  return a.max_path_length == b.max_path_length &&
         a.max_class_representatives == b.max_class_representatives &&
         a.max_union_combinations == b.max_union_combinations &&
         a.max_paths_per_source == b.max_paths_per_source;
}

/// Pool index of the topology of union graph `g`. The graph's exact bytes
/// (see SourceMemo) are looked up in the shape index first; only a miss
/// runs a canonical search. `key` is scratch space.
uint32_t InternShape(const graph::LabeledGraph& g, std::string* key,
                     SourceMemo* pools) {
  auto put = [key](uint32_t v) {
    key->append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  key->clear();
  put(static_cast<uint32_t>(g.num_nodes()));
  for (uint32_t label : g.node_labels()) put(label);
  for (const graph::LabeledGraph::Edge& e : g.edges()) {
    put(e.u);
    put(e.v);
    put(e.label);
  }
  auto shape = pools->shape_index.find(*key);
  if (shape != pools->shape_index.end()) return shape->second;

  ++pools->canonicalized;
  graph::Canonical canonical = graph::Canonicalize(g);
  auto [it, inserted] = pools->topology_index.try_emplace(
      canonical.code, static_cast<uint32_t>(pools->topologies.size()));
  if (inserted) {
    pools->topologies.push_back(
        {std::move(canonical.code), std::move(canonical.form)});
  }
  pools->shape_index.emplace(*key, it->second);
  return it->second;
}

/// The canonical-direction schema path of a class (the smaller label
/// sequence, matching ExtractSchemaPath and PathClassKey).
graph::SchemaPath CanonicalDirection(graph::SchemaPath sp) {
  graph::SchemaPath rev = sp.Reversed();
  auto seq = [](const graph::SchemaPath& q) {
    std::vector<uint32_t> s;
    for (size_t i = 0; i < q.steps.size(); ++i) {
      s.push_back(q.node_types[i]);
      s.push_back(q.steps[i].rel);
    }
    s.push_back(q.node_types.back());
    return s;
  };
  if (seq(rev) < seq(sp)) return rev;
  return sp;
}

}  // namespace

size_t SourceMemo::ApproxBytes() const {
  // Hash-table nodes: the value, the cached hash and the next pointer.
  constexpr size_t kNode = 2 * sizeof(void*);
  size_t bytes = sizeof(SourceMemo);
  for (const std::string& key : keys) {
    bytes += 2 * (sizeof(std::string) + key.capacity()) + kNode +
             sizeof(uint32_t);
  }
  for (const std::vector<uint32_t>& entries : classes_of_key) {
    bytes += sizeof(entries) + entries.capacity() * sizeof(uint32_t);
  }
  for (const PooledClass& c : classes) {
    bytes += sizeof(PooledClass) +
             c.path.node_types.capacity() * sizeof(storage::EntityTypeId) +
             c.path.steps.capacity() * sizeof(graph::SchemaStep);
  }
  for (const PooledTopology& t : topologies) {
    bytes += sizeof(PooledTopology) + 2 * t.code.capacity() +
             sizeof(std::string) + kNode + sizeof(uint32_t) +
             t.graph.node_labels().capacity() * sizeof(uint32_t) +
             t.graph.edges().capacity() * sizeof(graph::LabeledGraph::Edge);
  }
  for (const auto& [shape, index] : shape_index) {
    bytes += sizeof(std::string) + shape.capacity() + kNode +
             sizeof(uint32_t);
  }
  for (const auto& [a, slice] : slices) {
    bytes += sizeof(a) + sizeof(Slice) + kNode +
             slice.dests.capacity() * sizeof(Dest) +
             (slice.classes.capacity() + slice.topologies.capacity()) *
                 sizeof(uint32_t);
  }
  return bytes;
}

uint32_t TopologyBuilder::InternClass(const std::string& key,
                                      const PathInstance& first,
                                      SourceMemo* pools) const {
  auto [key_it, new_key] = pools->key_index.try_emplace(
      key, static_cast<uint32_t>(pools->keys.size()));
  if (new_key) {
    pools->keys.push_back(key);
    pools->classes_of_key.emplace_back();
  }
  std::vector<uint32_t>& entries = pools->classes_of_key[key_it->second];
  if (!entries.empty()) {
    const graph::SchemaPath& known = pools->classes[entries[0]].path;
    const bool fixed_by_key = std::none_of(
        known.steps.begin(), known.steps.end(),
        [this](const graph::SchemaStep& step) {
          return schema_->rel_from(step.rel) == schema_->rel_to(step.rel);
        });
    if (fixed_by_key) return entries[0];
  }
  graph::SchemaPath path = CanonicalDirection(first.ToSchemaPath(*view_));
  for (uint32_t entry : entries) {
    if (pools->classes[entry].path == path) return entry;
  }
  const uint32_t entry = static_cast<uint32_t>(pools->classes.size());
  pools->classes.push_back({key_it->second, std::move(path)});
  entries.push_back(entry);
  return entry;
}

SourceMemo::Slice TopologyBuilder::SweepSource(
    EntityId a, storage::EntityTypeId partner_type, bool self_pair,
    const BuildConfig& config, SourceMemo* pools) const {
  SweepLimits sweep_limits;
  sweep_limits.max_path_length = config.max_path_length;
  sweep_limits.max_class_representatives = config.max_class_representatives;
  sweep_limits.max_paths_per_source = config.max_paths_per_source;
  UnionLimits union_limits;
  union_limits.max_class_representatives = config.max_class_representatives;
  union_limits.max_union_combinations = config.max_union_combinations;

  // Enumerate all simple paths from `a` of length <= l ending at the
  // partner type, grouped by destination and path class. Paths may pass
  // through partner-typed nodes and keep extending; every prefix landing on
  // a partner node is recorded.
  SourceSweep sweep = SweepFromSource(*view_, *schema_, a, partner_type,
                                      self_pair, sweep_limits);
  SourceMemo::Slice slice;
  slice.source_truncated = sweep.source_truncated;
  slice.reps_truncated = sweep.reps_truncated;
  slice.dests.reserve(sweep.by_dest.size());

  // Union each destination's classes into topologies, deduplicated by pool
  // index (one-to-one with the canonical code) in first-seen order.
  std::string shape_key;
  for (auto& [b, reps_by_key] : sweep.by_dest) {
    std::vector<std::vector<PathInstance>> class_reps;
    class_reps.reserve(reps_by_key.size());
    for (auto& [key, reps] : reps_by_key) {
      slice.classes.push_back(InternClass(key, reps.front(), pools));
      class_reps.push_back(std::move(reps));
    }

    SourceMemo::Dest dest;
    dest.b = b;
    dest.num_classes = static_cast<uint32_t>(class_reps.size());
    const size_t first = slice.topologies.size();
    ForEachUnion(*view_, class_reps, union_limits, &dest.union_truncated,
                 [&](UnionGraph& u) {
                   const uint32_t topology =
                       InternShape(u.graph, &shape_key, pools);
                   if (std::find(slice.topologies.begin() + first,
                                 slice.topologies.end(),
                                 topology) == slice.topologies.end()) {
                     slice.topologies.push_back(topology);
                   }
                 });
    dest.num_topologies =
        static_cast<uint32_t>(slice.topologies.size() - first);
    slice.dests.push_back(dest);
  }
  return slice;
}

Result<PairBuildStaging> TopologyBuilder::StagePair(
    storage::EntityTypeId ta, storage::EntityTypeId tb,
    const BuildConfig& config, SourceMemo* memo) const {
  TSB_RETURN_IF_ERROR(ValidateBuildConfig(config));
  auto [t1, t2] = TopologyStore::NormalizePair(ta, tb);

  PairBuildStaging staging;
  PairTopologyData& data = staging.data;
  data.t1 = t1;
  data.t2 = t2;
  data.pair_name =
      schema_->entity_name(t1) + "_" + schema_->entity_name(t2);
  data.max_path_length = config.max_path_length;
  data.build_max_class_representatives = config.max_class_representatives;
  data.build_max_union_combinations = config.max_union_combinations;
  data.table_namespace = config.table_namespace;
  data.alltops_table = config.table_namespace + "AllTops_" + data.pair_name;
  data.pairclasses_table =
      config.table_namespace + "PairClasses_" + data.pair_name;

  const bool self_pair = (t1 == t2);
  if (memo == nullptr) {
    // No reuse wanted: the pools live for this call only and each slice is
    // dropped as soon as it is folded.
    SourceMemo pools;
    StagingFold fold(pools, &staging);
    for (EntityId a : view_->EntitiesOfType(t1)) {
      fold.Add(a, SweepSource(a, t2, self_pair, config, &pools));
    }
    fold.Finish(&pools, /*consume=*/true);
    return staging;
  }

  if (memo->t1 != t1 || memo->t2 != t2 ||
      !SameSweepCaps(memo->config, config)) {
    *memo = SourceMemo();
    memo->t1 = t1;
    memo->t2 = t2;
    memo->config = config;
  }
  memo->sources_swept = 0;
  memo->sources_reused = 0;
  memo->canonicalized = 0;
  StagingFold fold(*memo, &staging);
  for (EntityId a : view_->EntitiesOfType(t1)) {
    auto it = memo->slices.find(a);
    if (it != memo->slices.end()) {
      ++memo->sources_reused;
    } else {
      it = memo->slices
               .emplace(a, SweepSource(a, t2, self_pair, config, memo))
               .first;
      ++memo->sources_swept;
    }
    fold.Add(a, it->second);
  }
  fold.Finish(memo, /*consume=*/false);

  return staging;
}

Status TopologyBuilder::CommitStaged(PairBuildStaging staging,
                                     TopologyStore* store) {
  PairTopologyData& data = staging.data;
  if (store->FindPair(data.t1, data.t2) != nullptr) {
    return Status::AlreadyExists("pair already built");
  }

  storage::TableSchema alltops_schema({{"E1", storage::ColumnType::kInt64},
                                       {"E2", storage::ColumnType::kInt64},
                                       {"TID", storage::ColumnType::kInt64}});
  storage::TableSchema classes_schema({{"E1", storage::ColumnType::kInt64},
                                       {"E2", storage::ColumnType::kInt64},
                                       {"CID", storage::ColumnType::kInt64}});
  storage::Table* alltops;
  storage::Table* pairclasses;
  {
    auto t = db_->CreateTable(data.alltops_table, std::move(alltops_schema));
    TSB_RETURN_IF_ERROR(t.status());
    alltops = t.value();
  }
  {
    auto t =
        db_->CreateTable(data.pairclasses_table, std::move(classes_schema));
    if (!t.ok()) {
      (void)db_->DropTable(data.alltops_table);
      return t.status();
    }
    pairclasses = t.value();
  }

  // Intern staged topologies in first-encounter order — the exact order a
  // sequential build would have hit the catalog — and remap local TIDs.
  TopologyCatalog* catalog = store->mutable_catalog();
  std::vector<Tid> global_tid(staging.topologies.size(), kNoTid);
  for (size_t local = 0; local < staging.topologies.size(); ++local) {
    PairBuildStaging::StagedTopology& staged = staging.topologies[local];
    global_tid[local] =
        catalog->InternWithCode(staged.graph, std::move(staged.code),
                                staged.num_classes,
                                std::move(staged.class_keys));
    data.freq.emplace(global_tid[local], staged.frequency);
  }
  for (size_t c = 0; c < staging.class_path_local_tid.size(); ++c) {
    Tid local = staging.class_path_local_tid[c];
    if (local != kNoTid) {
      data.classes[c].path_tid = global_tid[static_cast<size_t>(local)];
    }
  }

  for (const PairBuildStaging::Row& row : staging.alltops_rows) {
    alltops->AppendRowOrDie(
        {storage::Value(row.e1), storage::Value(row.e2),
         storage::Value(global_tid[static_cast<size_t>(row.v)])});
  }
  for (const PairBuildStaging::Row& row : staging.pairclasses_rows) {
    pairclasses->AppendRowOrDie({storage::Value(row.e1),
                                 storage::Value(row.e2),
                                 storage::Value(row.v)});
  }

  Result<PairTopologyData*> added = store->AddPair(std::move(data));
  if (!added.ok()) {
    (void)db_->DropTable(alltops->name());
    (void)db_->DropTable(pairclasses->name());
    return added.status();
  }
  PairTopologyData* pair = added.value();
  columnar::AttachSlices(
      *db_, store->catalog(), pair,
      store->ResolveDataTable(db_->entity_set(pair->t1).table_name),
      store->ResolveDataTable(db_->entity_set(pair->t2).table_name));
  return Status::OK();
}

Status TopologyBuilder::BuildPair(storage::EntityTypeId ta,
                                  storage::EntityTypeId tb,
                                  const BuildConfig& config,
                                  TopologyStore* store) {
  return BuildPair(ta, tb, config, std::vector<TopologyStore*>{store});
}

namespace {

Status ValidateShards(const std::vector<TopologyStore*>& shards) {
  if (shards.empty()) {
    return Status::InvalidArgument("sharded build needs at least one shard");
  }
  for (TopologyStore* shard : shards) {
    if (shard == nullptr) {
      return Status::InvalidArgument("sharded build got a null shard store");
    }
  }
  return Status::OK();
}

}  // namespace

Status TopologyBuilder::CommitStagingToShards(
    PairBuildStaging staging, const std::vector<TopologyStore*>& shards) {
  std::vector<PairBuildStaging> slices =
      SplitStagingForShards(std::move(staging), shards.size());
  for (size_t i = 0; i < shards.size(); ++i) {
    TSB_RETURN_IF_ERROR(CommitStaged(std::move(slices[i]), shards[i]));
  }
  return Status::OK();
}

Status TopologyBuilder::BuildPair(storage::EntityTypeId ta,
                                  storage::EntityTypeId tb,
                                  const BuildConfig& config,
                                  const std::vector<TopologyStore*>& shards) {
  TSB_RETURN_IF_ERROR(ValidateBuildConfig(config));
  TSB_RETURN_IF_ERROR(ValidateShards(shards));
  auto [t1, t2] = TopologyStore::NormalizePair(ta, tb);
  if (shards[0]->FindPair(t1, t2) != nullptr) {
    return Status::AlreadyExists("pair already built");
  }
  TSB_ASSIGN_OR_RETURN(PairBuildStaging staging, StagePair(ta, tb, config));
  return CommitStagingToShards(std::move(staging), shards);
}

Status TopologyBuilder::StageAndCommitAll(
    const BuildConfig& config, service::ThreadPool* pool,
    const std::function<bool(storage::EntityTypeId, storage::EntityTypeId)>&
        built,
    const std::function<Status(PairBuildStaging)>& commit) {
  TSB_RETURN_IF_ERROR(ValidateBuildConfig(config));

  // Canonical pair order: commits (and hence TID assignment) follow it in
  // both the sequential and the parallel path.
  std::vector<std::pair<storage::EntityTypeId, storage::EntityTypeId>> todo;
  const size_t n = schema_->num_entity_types();
  for (storage::EntityTypeId t1 = 0; t1 < n; ++t1) {
    for (storage::EntityTypeId t2 = t1; t2 < n; ++t2) {
      if (schema_->EnumeratePaths(t1, t2, config.max_path_length).empty()) {
        continue;
      }
      if (built(t1, t2)) continue;
      todo.emplace_back(t1, t2);
    }
  }

  if (pool == nullptr || pool->num_threads() <= 1 || todo.size() <= 1) {
    for (const auto& [t1, t2] : todo) {
      TSB_ASSIGN_OR_RETURN(PairBuildStaging staging,
                           StagePair(t1, t2, config));
      TSB_RETURN_IF_ERROR(commit(std::move(staging)));
    }
    return Status::OK();
  }

  // Fan the pure stage steps out over the pool; commit in canonical order
  // on this thread as each stage completes. Submission is windowed (a
  // couple of pairs per worker ahead of the commit cursor) so completed
  // out-of-order stagings never pile up: peak staging memory is O(window),
  // not O(all pairs).
  const size_t window = std::max<size_t>(2 * pool->num_threads(), 2);
  auto submit_stage = [&](size_t index) {
    auto [t1, t2] = todo[index];
    std::future<Result<PairBuildStaging>> future = pool->Submit(
        [this, t1, t2, config]() { return StagePair(t1, t2, config); });
    if (!future.valid()) {
      // Pool shut down under us: stage inline so the build still finishes.
      std::promise<Result<PairBuildStaging>> ready;
      ready.set_value(StagePair(t1, t2, config));
      future = ready.get_future();
    }
    return future;
  };

  std::deque<std::future<Result<PairBuildStaging>>> in_flight;
  size_t next = 0;
  Status status = Status::OK();
  while (next < todo.size() || !in_flight.empty()) {
    while (next < todo.size() && in_flight.size() < window) {
      in_flight.push_back(submit_stage(next++));
    }
    Result<PairBuildStaging> staged =
        in_flight.front().get();  // Drain even on error.
    in_flight.pop_front();
    if (!status.ok()) continue;
    if (!staged.ok()) {
      status = staged.status();
      continue;
    }
    status = commit(std::move(staged).value());
  }
  return status;
}

Status TopologyBuilder::BuildAllPairs(const BuildConfig& config,
                                      TopologyStore* store,
                                      service::ThreadPool* pool) {
  return BuildAllPairs(config, std::vector<TopologyStore*>{store}, pool);
}

Status TopologyBuilder::BuildAllPairs(const BuildConfig& config,
                                      const std::vector<TopologyStore*>& shards,
                                      service::ThreadPool* pool) {
  TSB_RETURN_IF_ERROR(ValidateShards(shards));
  return StageAndCommitAll(
      config, pool,
      // Shards are always built in lockstep; shard 0 is the bellwether.
      [&shards](storage::EntityTypeId t1, storage::EntityTypeId t2) {
        return shards[0]->FindPair(t1, t2) != nullptr;
      },
      [this, &shards](PairBuildStaging staging) {
        return CommitStagingToShards(std::move(staging), shards);
      });
}

std::vector<PairBuildStaging> SplitStagingForShards(PairBuildStaging staging,
                                                   size_t num_shards) {
  TSB_CHECK_GE(num_shards, 1u);
  std::vector<PairBuildStaging> slices;
  slices.reserve(num_shards);
  if (num_shards == 1) {
    // One shard is the whole store: the staging moves through whole,
    // rows and table names included.
    slices.push_back(std::move(staging));
    return slices;
  }
  // The rows leave the staging first, so what is left is the row-less
  // template every shard replicates: pair metadata, global freq counters,
  // the full topology list, class registry, and PairClasses rows. The
  // AllTops rows — the dominant structure — are then partitioned into
  // their owning slices in a single pass, never copied wholesale.
  std::vector<PairBuildStaging::Row> rows = std::move(staging.alltops_rows);
  staging.alltops_rows.clear();
  const std::string base_namespace = staging.data.table_namespace;
  for (size_t i = 0; i < num_shards; ++i) {
    // Every slice but the last copies the template; the last takes it.
    slices.push_back(i + 1 < num_shards ? staging : std::move(staging));
    PairTopologyData& data = slices.back().data;
    data.table_namespace = storage::ShardNamespace(base_namespace, i);
    data.alltops_table = data.table_namespace + "AllTops_" + data.pair_name;
    data.pairclasses_table =
        data.table_namespace + "PairClasses_" + data.pair_name;
  }
  for (const PairBuildStaging::Row& row : rows) {
    slices[ShardOfEntityPair(row.e1, row.e2, num_shards)]
        .alltops_rows.push_back(row);
  }
  return slices;
}

}  // namespace core
}  // namespace tsb
