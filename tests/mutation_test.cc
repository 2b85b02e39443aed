// The incremental log-structured store (src/mutation/): the WAL codec and
// its torn-tail recovery, dirty-pair classification, per-pair cache
// eviction, and the tentpole contract that a mutated live store answers
// every one of the nine query methods byte-identically to a from-scratch
// rebuild of the mutated graph — through the single-store engine, the
// sharded executor at N ∈ {1, 4}, after chained batches, after background
// compaction folds, and after a WAL replay into a fresh process image.
// The source memo (a restage re-sweeps only the sources a batch can reach)
// is checked against a memo-less StagePair after every batch of a seeded
// stream, and across a failed batch and an external store swap.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "biozon/domain.h"
#include "biozon/fig3.h"
#include "biozon/schema.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/builder.h"
#include "core/pruner.h"
#include "core/store.h"
#include "engine/engine.h"
#include "mutation/delta_log.h"
#include "mutation/dirty_tracker.h"
#include "mutation/mutation.h"
#include "mutation/mutation_engine.h"
#include "obs/registry.h"
#include "service/query_cache.h"
#include "service/service.h"
#include "service_test_util.h"
#include "shard/scatter_gather.h"
#include "shard/sharded_store.h"
#include "storage/predicate.h"
#include "wire/codec.h"
#include "wire/message.h"

namespace tsb {
namespace {

using engine::MethodKind;
using service_test::Serve;

const std::vector<MethodKind> kAllMethods = {
    MethodKind::kSql,         MethodKind::kFullTop,
    MethodKind::kFastTop,     MethodKind::kFullTopK,
    MethodKind::kFastTopK,    MethodKind::kFullTopKEt,
    MethodKind::kFastTopKEt,  MethodKind::kFullTopKOpt,
    MethodKind::kFastTopKOpt,
};

/// The build configuration every world here is built with unless a test
/// asks for tighter caps.
core::BuildConfig Fig3BuildConfig() {
  core::BuildConfig config;
  config.max_path_length = 3;
  return config;
}

std::string TempWalPath(const std::string& tag) {
  return "/tmp/tsb_mutation_test_" + std::to_string(::getpid()) + "_" + tag +
         ".wal";
}

/// The query mix every identity check runs: unpredicated scans of all
/// three built pairs plus one predicated query (attribute bytes matter),
/// each under all nine methods. Predicates bind to a specific catalog's
/// table schemas, hence the builder-per-world shape.
std::vector<engine::TopologyQuery> FixtureQueries(const storage::Catalog& db) {
  std::vector<engine::TopologyQuery> out;
  for (const auto& [a, b] : std::vector<std::pair<std::string, std::string>>{
           {"Protein", "DNA"}, {"Protein", "Unigene"}, {"Unigene", "DNA"}}) {
    engine::TopologyQuery q;
    q.entity_set1 = a;
    q.entity_set2 = b;
    q.scheme = core::RankScheme::kFreq;
    q.k = 10;
    out.push_back(q);
  }
  engine::TopologyQuery pred;
  pred.entity_set1 = "Protein";
  pred.pred1 = storage::MakeContainsKeyword(db.GetTable("Protein")->schema(),
                                            "DESC", "enzyme");
  pred.entity_set2 = "DNA";
  pred.pred2 = storage::MakeEquals(db.GetTable("DNA")->schema(), "TYPE",
                                   storage::Value("mRNA"));
  pred.scheme = core::RankScheme::kFreq;
  pred.k = 10;
  out.push_back(pred);
  return out;
}

void PruneAllPairs(storage::Catalog* db, core::TopologyStore* store) {
  core::PruneConfig prune;
  prune.frequency_threshold = 0;
  std::vector<std::pair<storage::EntityTypeId, storage::EntityTypeId>> keys;
  for (const auto& [key, pair] : store->pairs()) keys.push_back(key);
  for (const auto& [t1, t2] : keys) {
    ASSERT_TRUE(core::PruneFrequentTopologies(db, store, t1, t2, prune).ok());
  }
}

// ---------------------------------------------------------------------------
// Worlds
// ---------------------------------------------------------------------------

/// A live Figure-3 world whose store sits behind a StoreHandle, so the
/// mutation engine can swap overlay epochs in behind the engine.
struct LiveWorld {
  // db must outlive everything below: retired stores drop their tables
  // from it on destruction (members destroy in reverse order).
  storage::Catalog db;
  biozon::BiozonSchema ids;
  std::unique_ptr<graph::DataGraphView> view;
  std::unique_ptr<graph::SchemaGraph> schema;
  std::shared_ptr<core::StoreHandle> handle;
  std::unique_ptr<engine::Engine> engine;
  std::unique_ptr<mutation::MutationEngine> mutator;
};

std::unique_ptr<LiveWorld> MakeLiveWorld(
    const core::BuildConfig& config = Fig3BuildConfig()) {
  auto w = std::make_unique<LiveWorld>();
  w->ids = biozon::BuildFigure3Database(&w->db);
  w->view = std::make_unique<graph::DataGraphView>(w->db);
  w->schema = std::make_unique<graph::SchemaGraph>(w->db);
  auto store = std::make_shared<core::TopologyStore>();
  core::TopologyBuilder builder(&w->db, w->schema.get(), w->view.get());
  TSB_CHECK(builder.BuildAllPairs(config, store.get()).ok());
  PruneAllPairs(&w->db, store.get());
  w->handle = std::make_shared<core::StoreHandle>(store);
  w->engine = std::make_unique<engine::Engine>(
      &w->db, w->handle, w->schema.get(), w->view.get(),
      core::ScoreModel(&store->catalog(),
                       biozon::MakeBiozonDomainKnowledge(w->ids)));
  mutation::MutationEngine::Options options;
  options.build = config;
  w->mutator = std::make_unique<mutation::MutationEngine>(
      &w->db, w->schema.get(),
      std::vector<std::shared_ptr<core::StoreHandle>>{w->handle}, options);
  return w;
}

/// In-memory model of the mutated Figure-3 database, mirroring the COW
/// row order the overlay produces (original order minus removed rows,
/// additions appended) — the ground-truth data the oracle rebuilds from.
class Fig3Model {
 public:
  Fig3Model() {
    ids_ = biozon::BuildFigure3Database(&scratch_);
    for (const storage::EntitySetDef& es : scratch_.entity_sets()) {
      Load(es.table_name);
    }
    for (const storage::RelationshipSetDef& rs :
         scratch_.relationship_sets()) {
      Load(rs.table_name);
    }
  }

  void Apply(const mutation::Mutation& op) {
    switch (op.kind) {
      case mutation::MutationKind::kAddNode: {
        const storage::EntitySetDef* es = scratch_.FindEntitySet(op.set_name);
        TSB_CHECK(es != nullptr) << op.set_name;
        const storage::TableSchema& schema =
            scratch_.GetTable(es->table_name)->schema();
        storage::Tuple row(schema.num_columns());
        for (size_t c = 0; c < schema.num_columns(); ++c) {
          row[c] = schema.column(c).name == es->id_column
                       ? storage::Value(op.id)
                       : ZeroValue(schema.column(c).type);
        }
        for (const auto& [column, value] : op.attributes) {
          row[*schema.FindColumn(column)] = value;
        }
        Rows& t = tables_[es->table_name];
        t.rows.push_back(std::move(row));
        t.dead.push_back(false);
        break;
      }
      case mutation::MutationKind::kRemoveNode: {
        const storage::EntitySetDef* es = scratch_.FindEntitySet(op.set_name);
        TSB_CHECK(es != nullptr) << op.set_name;
        Kill(es->table_name, es->id_column, op.id);
        // The cascade the applier performs: every incident edge goes too.
        for (const storage::RelationshipSetDef& rs :
             scratch_.relationship_sets()) {
          if (rs.from_type == es->id) {
            KillAll(rs.table_name, rs.from_column, op.id);
          }
          if (rs.to_type == es->id) {
            KillAll(rs.table_name, rs.to_column, op.id);
          }
        }
        break;
      }
      case mutation::MutationKind::kAddEdge: {
        const storage::RelationshipSetDef* rs =
            scratch_.FindRelationshipSet(op.set_name);
        TSB_CHECK(rs != nullptr) << op.set_name;
        const storage::TableSchema& schema =
            scratch_.GetTable(rs->table_name)->schema();
        storage::Tuple row(schema.num_columns());
        row[*schema.FindColumn(rs->id_column)] = storage::Value(op.id);
        row[*schema.FindColumn(rs->from_column)] = storage::Value(op.from);
        row[*schema.FindColumn(rs->to_column)] = storage::Value(op.to);
        Rows& t = tables_[rs->table_name];
        t.rows.push_back(std::move(row));
        t.dead.push_back(false);
        break;
      }
      case mutation::MutationKind::kRemoveEdge: {
        const storage::RelationshipSetDef* rs =
            scratch_.FindRelationshipSet(op.set_name);
        TSB_CHECK(rs != nullptr) << op.set_name;
        Kill(rs->table_name, rs->id_column, op.id);
        break;
      }
      case mutation::MutationKind::kUpdateAttribute: {
        const storage::EntitySetDef* es = scratch_.FindEntitySet(op.set_name);
        TSB_CHECK(es != nullptr) << op.set_name;
        const storage::TableSchema& schema =
            scratch_.GetTable(es->table_name)->schema();
        const size_t id_col = *schema.FindColumn(es->id_column);
        Rows& t = tables_[es->table_name];
        for (size_t r = 0; r < t.rows.size(); ++r) {
          if (t.dead[r] || t.rows[r][id_col].AsInt64() != op.id) continue;
          for (const auto& [column, value] : op.attributes) {
            t.rows[r][*schema.FindColumn(column)] = value;
          }
        }
        break;
      }
    }
  }

  void ApplyHistory(const std::vector<mutation::MutationBatch>& history) {
    for (const mutation::MutationBatch& batch : history) {
      for (const mutation::Mutation& op : batch.ops) Apply(op);
    }
  }

  /// Appends the surviving rows into the same-named (empty) tables of
  /// `db`, which must already hold the biozon schema.
  void Materialize(storage::Catalog* db) const {
    for (const auto& [name, t] : tables_) {
      storage::Table* table = db->GetTable(name);
      for (size_t r = 0; r < t.rows.size(); ++r) {
        if (!t.dead[r]) table->AppendRowOrDie(t.rows[r]);
      }
    }
  }

 private:
  struct Rows {
    std::vector<storage::Tuple> rows;
    std::vector<bool> dead;
  };

  static storage::Value ZeroValue(storage::ColumnType type) {
    switch (type) {
      case storage::ColumnType::kInt64:
        return storage::Value(static_cast<int64_t>(0));
      case storage::ColumnType::kDouble:
        return storage::Value(0.0);
      case storage::ColumnType::kString:
        return storage::Value(std::string());
    }
    return storage::Value(static_cast<int64_t>(0));
  }

  void Load(const std::string& table_name) {
    const storage::Table* table = scratch_.GetTable(table_name);
    Rows t;
    for (size_t r = 0; r < table->num_rows(); ++r) {
      t.rows.push_back(table->GetRow(r));
      t.dead.push_back(false);
    }
    tables_.emplace(table_name, std::move(t));
  }

  void Kill(const std::string& table_name, const std::string& id_column,
            int64_t id) {
    const size_t c =
        *scratch_.GetTable(table_name)->schema().FindColumn(id_column);
    Rows& t = tables_[table_name];
    for (size_t r = 0; r < t.rows.size(); ++r) {
      if (!t.dead[r] && t.rows[r][c].AsInt64() == id) t.dead[r] = true;
    }
  }

  void KillAll(const std::string& table_name,
               const std::string& endpoint_column, int64_t id) {
    Kill(table_name, endpoint_column, id);
  }

  storage::Catalog scratch_;
  biozon::BiozonSchema ids_;
  std::map<std::string, Rows> tables_;
};

/// The acceptance oracle: a second catalog holding the final (mutated)
/// data, rebuilt from scratch. Its topology catalog is seeded from the
/// live store's so TIDs line up — the same TID-continuity contract the
/// overlay path maintains via the shared catalog.
struct OracleWorld {
  storage::Catalog db;
  biozon::BiozonSchema ids;
  std::unique_ptr<graph::DataGraphView> view;
  std::unique_ptr<graph::SchemaGraph> schema;
  std::shared_ptr<core::TopologyStore> store;
  std::unique_ptr<engine::Engine> engine;
};

std::unique_ptr<OracleWorld> BuildMutatedOracle(
    const std::vector<mutation::MutationBatch>& history,
    const core::TopologyCatalog& live_catalog,
    const core::BuildConfig& config = Fig3BuildConfig()) {
  auto w = std::make_unique<OracleWorld>();
  Fig3Model model;
  model.ApplyHistory(history);
  w->ids = biozon::CreateBiozonSchema(&w->db);
  model.Materialize(&w->db);
  w->view = std::make_unique<graph::DataGraphView>(w->db);
  w->schema = std::make_unique<graph::SchemaGraph>(w->db);
  w->store = std::make_shared<core::TopologyStore>();
  auto seeded = std::make_shared<core::TopologyCatalog>();
  for (core::Tid tid = 1; tid <= static_cast<core::Tid>(live_catalog.size());
       ++tid) {
    const core::TopologyInfo& info = live_catalog.Get(tid);
    seeded->InternWithCode(info.graph, info.code, info.num_classes,
                           live_catalog.ClassKeysOf(tid));
  }
  w->store->adopt_catalog(seeded);
  core::TopologyBuilder builder(&w->db, w->schema.get(), w->view.get());
  TSB_CHECK(builder.BuildAllPairs(config, w->store.get()).ok());
  PruneAllPairs(&w->db, w->store.get());
  w->engine = std::make_unique<engine::Engine>(
      &w->db, w->store.get(), w->schema.get(), w->view.get(),
      core::ScoreModel(&w->store->catalog(),
                       biozon::MakeBiozonDomainKnowledge(w->ids)));
  return w;
}

/// A mixed add/remove/attribute history, split across three batches so
/// the overlay chains generations before any compaction.
std::vector<mutation::MutationBatch> MixedHistory() {
  std::vector<mutation::MutationBatch> history(3);
  history[0].ops = {
      mutation::AddNode(
          "Protein", 500,
          {{"DESC", storage::Value(std::string(
                        "ubiquitin-conjugating enzyme E2 variant X"))}}),
      mutation::AddEdge("Encodes", 600, 500, 742),
      mutation::AddEdge("Uni_encodes", 601, 188, 500),
  };
  history[1].ops = {
      mutation::RemoveEdge("Uni_contains", 93),
      mutation::RemoveNode("Protein", 34),  // Cascades Encodes 44 and
                                            // Uni_encodes 14.
  };
  history[2].ops = {
      mutation::UpdateAttribute("DNA", 215, "TYPE",
                                storage::Value(std::string("rRNA"))),
      mutation::UpdateAttribute(
          "Protein", 78, "DESC",
          storage::Value(std::string("renamed variant MMS2"))),
  };
  return history;
}

/// A seeded stream of valid batches over the Figure-3 sets mixing all five
/// ops: node additions (some re-using a removed id), edge additions and
/// removals, node removals with their cascades, attribute updates, and
/// every 20th batch a remove-then-re-add of one id (into another set) with
/// a fresh edge on it. Tracks the live graph itself, so each op is valid
/// against the ops before it.
std::vector<mutation::MutationBatch> RandomStream(uint64_t seed,
                                                  size_t num_batches) {
  struct Rel {
    const char* name;
    const char* from;
    const char* to;
  };
  const std::vector<Rel> rels = {{"Encodes", "Protein", "DNA"},
                                 {"Uni_encodes", "Unigene", "Protein"},
                                 {"Uni_contains", "Unigene", "DNA"}};
  const std::vector<std::string> sets = {"Protein", "Unigene", "DNA"};
  struct Edge {
    std::string rel;
    int64_t id, from, to;
  };
  std::map<std::string, std::vector<int64_t>> nodes = {
      {"Protein", {32, 78, 34, 44}},
      {"Unigene", {103, 150, 188, 194}},
      {"DNA", {214, 215, 742}}};
  std::vector<Edge> edges = {
      {"Encodes", 57, 32, 214},      {"Encodes", 44, 34, 215},
      {"Uni_encodes", 25, 103, 78},  {"Uni_encodes", 14, 103, 34},
      {"Uni_encodes", 31, 150, 78},  {"Uni_encodes", 42, 188, 44},
      {"Uni_encodes", 11, 194, 44},  {"Uni_contains", 62, 103, 215},
      {"Uni_contains", 93, 150, 215}, {"Uni_contains", 121, 188, 742},
      {"Uni_contains", 37, 194, 742}};
  std::vector<int64_t> freed;  // Removed node ids, free for re-use.
  int64_t next_node = 1000;
  int64_t next_edge = 5000;
  Rng rng(seed);
  auto pick = [&](size_t n) { return static_cast<size_t>(rng.NextBounded(n)); };

  auto add_node = [&](const std::string& set, int64_t id) {
    nodes[set].push_back(id);
    const char* words[] = {"ubiquitin-conjugating enzyme", "kinase",
                           "hypothetical protein", "enzyme variant"};
    if (set == "DNA") {
      return mutation::AddNode(
          set, id,
          {{"TYPE", storage::Value(std::string(pick(2) ? "mRNA" : "rRNA"))},
           {"DESC", storage::Value(std::string(words[pick(4)]))}});
    }
    return mutation::AddNode(
        set, id, {{"DESC", storage::Value(std::string(words[pick(4)]))}});
  };
  auto add_edge = [&](const Rel& rel, int64_t from, int64_t to) {
    edges.push_back({rel.name, next_edge, from, to});
    return mutation::AddEdge(rel.name, next_edge++, from, to);
  };
  auto remove_node = [&](const std::string& set, size_t index,
                         mutation::MutationBatch* batch) {
    const int64_t id = nodes[set][index];
    nodes[set].erase(nodes[set].begin() + static_cast<ptrdiff_t>(index));
    edges.erase(std::remove_if(edges.begin(), edges.end(),
                               [id](const Edge& e) {
                                 return e.from == id || e.to == id;
                               }),
                edges.end());
    batch->ops.push_back(mutation::RemoveNode(set, id));
    return id;
  };

  std::vector<mutation::MutationBatch> stream(num_batches);
  for (size_t b = 0; b < num_batches; ++b) {
    mutation::MutationBatch& batch = stream[b];
    if (b % 20 == 19) {
      // Remove one Protein and re-add its id as a Unigene, wired up anew.
      const int64_t id = remove_node("Protein", pick(nodes["Protein"].size()),
                                     &batch);
      batch.ops.push_back(add_node("Unigene", id));
      batch.ops.push_back(
          add_edge(rels[2], id, nodes["DNA"][pick(nodes["DNA"].size())]));
      continue;
    }
    const size_t num_ops = 1 + pick(4);
    for (size_t o = 0; o < num_ops; ++o) {
      const size_t r = pick(100);
      if (r < 22) {
        int64_t id = next_node++;
        if (!freed.empty() && pick(2) == 0) {
          id = freed.back();
          freed.pop_back();
        }
        batch.ops.push_back(add_node(sets[pick(sets.size())], id));
      } else if (r < 65) {
        const Rel& rel = rels[pick(rels.size())];
        const std::vector<int64_t>& from = nodes[rel.from];
        const std::vector<int64_t>& to = nodes[rel.to];
        batch.ops.push_back(
            add_edge(rel, from[pick(from.size())], to[pick(to.size())]));
      } else if (r < 80) {
        if (edges.empty()) continue;
        const size_t e = pick(edges.size());
        batch.ops.push_back(mutation::RemoveEdge(edges[e].rel, edges[e].id));
        edges.erase(edges.begin() + static_cast<ptrdiff_t>(e));
      } else if (r < 90) {
        const std::string& set = sets[pick(sets.size())];
        if (nodes[set].size() <= 3) continue;
        freed.push_back(remove_node(set, pick(nodes[set].size()), &batch));
      } else {
        const std::string& set = sets[pick(sets.size())];
        const int64_t id = nodes[set][pick(nodes[set].size())];
        batch.ops.push_back(
            set == "DNA"
                ? mutation::UpdateAttribute(set, id, "TYPE",
                                            storage::Value(std::string(
                                                pick(2) ? "mRNA" : "rRNA")))
                : mutation::UpdateAttribute(set, id, "DESC",
                                            storage::Value(std::string(
                                                "renamed enzyme"))));
      }
    }
    if (batch.ops.empty()) {
      batch.ops.push_back(mutation::UpdateAttribute(
          "Protein", nodes["Protein"].front(), "DESC",
          storage::Value(std::string("touched"))));
    }
  }
  return stream;
}

void ExpectSameGraph(const graph::LabeledGraph& got,
                     const graph::LabeledGraph& want, const std::string& what) {
  EXPECT_EQ(got.node_labels(), want.node_labels()) << what;
  ASSERT_EQ(got.edges().size(), want.edges().size()) << what;
  for (size_t e = 0; e < got.edges().size(); ++e) {
    EXPECT_EQ(got.edges()[e].u, want.edges()[e].u) << what;
    EXPECT_EQ(got.edges()[e].v, want.edges()[e].v) << what;
    EXPECT_EQ(got.edges()[e].label, want.edges()[e].label) << what;
  }
}

void ExpectSameRows(const std::vector<core::PairBuildStaging::Row>& got,
                    const std::vector<core::PairBuildStaging::Row>& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t r = 0; r < got.size(); ++r) {
    EXPECT_TRUE(got[r].e1 == want[r].e1 && got[r].e2 == want[r].e2 &&
                got[r].v == want[r].v)
        << what << " row " << r;
  }
}

/// Field-by-field identity of two stagings of one pair.
void ExpectSameStaging(const core::PairBuildStaging& got,
                       const core::PairBuildStaging& want,
                       const std::string& what) {
  const core::PairTopologyData& g = got.data;
  const core::PairTopologyData& w = want.data;
  EXPECT_EQ(g.t1, w.t1) << what;
  EXPECT_EQ(g.t2, w.t2) << what;
  EXPECT_EQ(g.pair_name, w.pair_name) << what;
  EXPECT_EQ(g.num_related_pairs, w.num_related_pairs) << what;
  EXPECT_EQ(g.truncated_pairs, w.truncated_pairs) << what;
  EXPECT_EQ(g.truncated_representatives, w.truncated_representatives)
      << what;
  EXPECT_EQ(g.class_by_key, w.class_by_key) << what;
  ASSERT_EQ(g.classes.size(), w.classes.size()) << what;
  for (size_t c = 0; c < g.classes.size(); ++c) {
    EXPECT_EQ(g.classes[c].id, w.classes[c].id) << what;
    EXPECT_EQ(g.classes[c].key, w.classes[c].key) << what;
    EXPECT_TRUE(g.classes[c].path == w.classes[c].path) << what;
    EXPECT_EQ(g.classes[c].path_tid, w.classes[c].path_tid) << what;
    EXPECT_EQ(g.classes[c].instance_pairs, w.classes[c].instance_pairs)
        << what;
  }
  EXPECT_EQ(got.class_path_local_tid, want.class_path_local_tid) << what;
  EXPECT_EQ(got.local_by_code, want.local_by_code) << what;
  ASSERT_EQ(got.topologies.size(), want.topologies.size()) << what;
  for (size_t t = 0; t < got.topologies.size(); ++t) {
    const auto& gt = got.topologies[t];
    const auto& wt = want.topologies[t];
    EXPECT_EQ(gt.code, wt.code) << what << " topology " << t;
    EXPECT_EQ(gt.num_classes, wt.num_classes) << what << " topology " << t;
    EXPECT_EQ(gt.class_keys, wt.class_keys) << what << " topology " << t;
    EXPECT_EQ(gt.frequency, wt.frequency) << what << " topology " << t;
    ExpectSameGraph(gt.graph, wt.graph, what);
  }
  ExpectSameRows(got.alltops_rows, want.alltops_rows, what + " AllTops");
  ExpectSameRows(got.pairclasses_rows, want.pairclasses_rows,
                 what + " PairClasses");
}

/// Which truncations some memoized slice has recorded.
struct TruncationsSeen {
  bool paths_per_source = false;
  bool class_representatives = false;
  bool union_combinations = false;
};

/// For every pair the engine holds a memo of: the memoized StagePair on
/// the live view (a copy of the engine's memo, so its surviving slices are
/// reused) must equal a memo-less StagePair field by field.
void ExpectMemosMatchFreshStaging(const mutation::MutationEngine& mutator,
                                  const core::TopologyStore& live,
                                  storage::Catalog* db,
                                  const graph::SchemaGraph& schema,
                                  const core::BuildConfig& config,
                                  const std::string& what,
                                  TruncationsSeen* seen = nullptr) {
  ASSERT_NE(live.data_view(), nullptr) << what;
  core::TopologyBuilder builder(db, &schema, live.data_view().get());
  for (const auto& [key, pair] : live.pairs()) {
    std::optional<core::SourceMemo> memo = mutator.SourceMemoOf(key);
    if (!memo.has_value()) continue;
    if (seen != nullptr) {
      for (const auto& [a, slice] : memo->slices) {
        seen->paths_per_source |= slice.source_truncated;
        seen->class_representatives |= slice.reps_truncated;
        for (const core::SourceMemo::Dest& dest : slice.dests) {
          seen->union_combinations |= dest.union_truncated;
        }
      }
    }
    auto memoized = builder.StagePair(key.first, key.second, config, &*memo);
    auto fresh = builder.StagePair(key.first, key.second, config);
    ASSERT_TRUE(memoized.ok() && fresh.ok()) << what;
    ExpectSameStaging(*memoized, *fresh, what + " " + pair.pair_name);
  }
}

// ---------------------------------------------------------------------------
// Batch codec + wire frames
// ---------------------------------------------------------------------------

mutation::MutationBatch ExampleBatch() {
  mutation::MutationBatch batch;
  batch.ops = {
      mutation::AddNode("Protein", 7,
                        {{"DESC", storage::Value(std::string("p7"))}}),
      mutation::RemoveNode("Protein", 34),
      mutation::AddEdge("Encodes", 9, 7, 742),
      mutation::RemoveEdge("Uni_contains", 93),
      mutation::UpdateAttribute("DNA", 215, "TYPE",
                                storage::Value(std::string("rRNA"))),
  };
  return batch;
}

TEST(MutationCodecTest, BatchRoundTripsByteIdentically) {
  const mutation::MutationBatch batch = ExampleBatch();
  std::string encoded;
  mutation::EncodeMutationBatch(batch, &encoded);
  auto decoded = mutation::DecodeMutationBatch(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, batch);
  std::string re;
  mutation::EncodeMutationBatch(*decoded, &re);
  EXPECT_EQ(re, encoded);
}

TEST(MutationCodecTest, EveryTruncatedPrefixIsRejected) {
  std::string encoded;
  mutation::EncodeMutationBatch(ExampleBatch(), &encoded);
  for (size_t len = 0; len < encoded.size(); ++len) {
    auto decoded =
        mutation::DecodeMutationBatch(std::string_view(encoded).substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
  }
}

TEST(MutationCodecTest, MutationWireFramesRoundTrip) {
  wire::MutationWireRequest request;
  request.id = 41;
  request.batch = ExampleBatch();
  std::string frame;
  wire::EncodeMutationRequest(request, &frame);
  auto kind = wire::PeekMessageKind(frame);
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(*kind, wire::MessageKind::kMutationRequest);
  auto decoded = wire::DecodeMutationRequest(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->id, 41u);
  EXPECT_EQ(decoded->batch, request.batch);

  wire::MutationWireResponse response;
  response.request_id = 41;
  response.error = {wire::WireErrorCode::kFailedPrecondition, "read only"};
  response.applied_ops = 5;
  response.dirty_pairs = 3;
  response.apply_seconds = 0.25;
  std::string rframe;
  wire::EncodeMutationResponse(response, &rframe);
  auto rdecoded = wire::DecodeMutationResponse(rframe);
  ASSERT_TRUE(rdecoded.ok()) << rdecoded.status();
  EXPECT_EQ(rdecoded->request_id, 41u);
  EXPECT_EQ(rdecoded->error.code, wire::WireErrorCode::kFailedPrecondition);
  EXPECT_EQ(rdecoded->error.message, "read only");
  EXPECT_EQ(rdecoded->applied_ops, 5u);
  EXPECT_EQ(rdecoded->dirty_pairs, 3u);
  EXPECT_EQ(rdecoded->apply_seconds, 0.25);
}

// ---------------------------------------------------------------------------
// DeltaLog: durability, torn tails, checksum corruption
// ---------------------------------------------------------------------------

TEST(DeltaLogTest, RoundTripsBatchesAcrossReopen) {
  const std::string path = TempWalPath("roundtrip");
  std::remove(path.c_str());
  const std::vector<mutation::MutationBatch> history = MixedHistory();
  {
    mutation::DeltaLog wal;
    std::vector<mutation::MutationBatch> replayed;
    auto stats = wal.Open(path, &replayed);
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_EQ(replayed.size(), 0u);
    for (const mutation::MutationBatch& batch : history) {
      ASSERT_TRUE(wal.Append(batch).ok());
    }
    EXPECT_EQ(wal.appended_records(), history.size());
  }
  mutation::DeltaLog wal;
  std::vector<mutation::MutationBatch> replayed;
  auto stats = wal.Open(path, &replayed);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->batches, history.size());
  EXPECT_EQ(stats->truncated_bytes, 0u);
  ASSERT_EQ(replayed.size(), history.size());
  for (size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(replayed[i], history[i]) << i;
  }
  wal.Close();
  std::remove(path.c_str());
}

TEST(DeltaLogTest, TornTailIsTruncatedAndTheLogStaysAppendable) {
  const std::string path = TempWalPath("torn");
  std::remove(path.c_str());
  const std::vector<mutation::MutationBatch> history = MixedHistory();
  {
    mutation::DeltaLog wal;
    std::vector<mutation::MutationBatch> replayed;
    ASSERT_TRUE(wal.Open(path, &replayed).ok());
    for (const mutation::MutationBatch& batch : history) {
      ASSERT_TRUE(wal.Append(batch).ok());
    }
  }
  {
    // A SIGKILL mid-write leaves a partial record: a length prefix that
    // promises more bytes than the file holds.
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char torn[] = "\xff\xff\x00\x00garbage";
    std::fwrite(torn, 1, sizeof(torn) - 1, f);
    std::fclose(f);
  }
  mutation::DeltaLog wal;
  std::vector<mutation::MutationBatch> replayed;
  auto stats = wal.Open(path, &replayed);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->batches, history.size());
  EXPECT_GT(stats->truncated_bytes, 0u);
  ASSERT_EQ(replayed.size(), history.size());

  // The tail was truncated back to the last valid boundary, so the log
  // accepts new records and a clean reopen sees all of them.
  ASSERT_TRUE(wal.Append(history[0]).ok());
  wal.Close();
  mutation::DeltaLog again;
  std::vector<mutation::MutationBatch> all;
  auto clean = again.Open(path, &all);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->truncated_bytes, 0u);
  EXPECT_EQ(all.size(), history.size() + 1);
  again.Close();
  std::remove(path.c_str());
}

TEST(DeltaLogTest, ChecksumCorruptionDropsTheTailRecord) {
  const std::string path = TempWalPath("corrupt");
  std::remove(path.c_str());
  const std::vector<mutation::MutationBatch> history = MixedHistory();
  {
    mutation::DeltaLog wal;
    std::vector<mutation::MutationBatch> replayed;
    ASSERT_TRUE(wal.Open(path, &replayed).ok());
    for (const mutation::MutationBatch& batch : history) {
      ASSERT_TRUE(wal.Append(batch).ok());
    }
  }
  {
    // Flip the last payload byte: the record's length is intact but its
    // checksum no longer matches.
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -1, SEEK_END);
    int last = std::fgetc(f);
    std::fseek(f, -1, SEEK_END);
    std::fputc(last ^ 0x5a, f);
    std::fclose(f);
  }
  mutation::DeltaLog wal;
  std::vector<mutation::MutationBatch> replayed;
  auto stats = wal.Open(path, &replayed);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->batches, history.size() - 1);
  EXPECT_GT(stats->truncated_bytes, 0u);
  ASSERT_EQ(replayed.size(), history.size() - 1);
  for (size_t i = 0; i + 1 < history.size(); ++i) {
    EXPECT_EQ(replayed[i], history[i]) << i;
  }
  wal.Close();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Dirty-pair classification
// ---------------------------------------------------------------------------

TEST(DirtyTrackerTest, AttributeUpdatesAreCacheOnlyEdgesAreStructural) {
  storage::Catalog db;
  biozon::BiozonSchema ids = biozon::BuildFigure3Database(&db);
  graph::SchemaGraph schema(db);
  mutation::DirtyPairTracker tracker(&schema, &db);
  // Every canonical pair over the three populated types, as a base build
  // with max_path_length = 3 produces.
  const std::vector<mutation::TypePair> built = {
      {std::min(ids.protein, ids.dna), std::max(ids.protein, ids.dna)},
      {std::min(ids.protein, ids.unigene), std::max(ids.protein, ids.unigene)},
      {std::min(ids.unigene, ids.dna), std::max(ids.unigene, ids.dna)},
  };

  mutation::MutationBatch attr;
  attr.ops = {mutation::UpdateAttribute("Protein", 32, "DESC",
                                        storage::Value(std::string("x")))};
  auto dirty = tracker.Classify(attr, built, 3);
  ASSERT_TRUE(dirty.ok()) << dirty.status();
  EXPECT_TRUE(dirty->structural.empty());
  ASSERT_FALSE(dirty->cache_only.empty());
  for (const mutation::TypePair& pair : dirty->cache_only) {
    EXPECT_TRUE(pair.first == ids.protein || pair.second == ids.protein)
        << "attribute update dirtied a pair that cannot read Protein bytes";
  }

  mutation::MutationBatch edge;
  edge.ops = {mutation::AddEdge("Encodes", 600, 32, 742)};
  auto structural = tracker.Classify(edge, built, 3);
  ASSERT_TRUE(structural.ok()) << structural.status();
  // A Protein-DNA edge sits on short schema walks between all three
  // populated pairs at l = 3: every built pair is structurally dirty.
  EXPECT_EQ(structural->structural.size(), built.size());

  mutation::MutationBatch unknown;
  unknown.ops = {mutation::AddEdge("Nope", 1, 2, 3)};
  EXPECT_FALSE(tracker.Classify(unknown, built, 3).ok());
}

// ---------------------------------------------------------------------------
// Per-pair cache eviction
// ---------------------------------------------------------------------------

TEST(QueryCacheTest, EvictByPrefixDropsOnlyMatchingEntries) {
  service::ShardedLruCache<engine::QueryResult> cache;
  auto value = std::make_shared<const engine::QueryResult>();
  ASSERT_TRUE(cache.Insert("r0|p1_2g0|alpha", value));
  ASSERT_TRUE(cache.Insert("r0|p1_2g0|beta", value));
  ASSERT_TRUE(cache.Insert("r0|p1_3g0|alpha", value));
  EXPECT_EQ(cache.GetStats().entries, 3u);

  EXPECT_EQ(cache.EvictByPrefix("r0|p1_2g0|"), 2u);
  EXPECT_EQ(cache.GetStats().entries, 1u);
  EXPECT_EQ(cache.Lookup("r0|p1_2g0|alpha"), nullptr);
  EXPECT_EQ(cache.Lookup("r0|p1_2g0|beta"), nullptr);
  EXPECT_NE(cache.Lookup("r0|p1_3g0|alpha"), nullptr);
  EXPECT_EQ(cache.EvictByPrefix("r9|"), 0u);
}

// ---------------------------------------------------------------------------
// The tentpole: overlay reads are byte-identical to a from-scratch rebuild
// ---------------------------------------------------------------------------

class MutationFig3Test : public ::testing::Test {
 protected:
  void SetUp() override { live_ = MakeLiveWorld(); }

  /// Runs the full query mix under all nine methods against both engines
  /// and insists on byte-identical entries.
  void ExpectIdenticalToOracle(const engine::Engine& live_engine,
                               const storage::Catalog& live_db,
                               const OracleWorld& oracle,
                               const std::string& what) {
    const std::vector<engine::TopologyQuery> live_queries =
        FixtureQueries(live_db);
    const std::vector<engine::TopologyQuery> oracle_queries =
        FixtureQueries(oracle.db);
    for (size_t q = 0; q < live_queries.size(); ++q) {
      for (MethodKind method : kAllMethods) {
        auto a = live_engine.Execute(live_queries[q], method);
        auto b = oracle.engine->Execute(oracle_queries[q], method);
        ASSERT_EQ(a.ok(), b.ok())
            << what << " query " << q << " "
            << engine::MethodKindToString(method) << " live="
            << (a.ok() ? "ok" : a.status().ToString()) << " oracle="
            << (b.ok() ? "ok" : b.status().ToString());
        if (!a.ok()) continue;
        EXPECT_EQ(a->entries, b->entries)
            << what << " query " << q << " "
            << engine::MethodKindToString(method);
      }
    }
  }

  std::unique_ptr<LiveWorld> live_;
};

TEST_F(MutationFig3Test, AdditionsMatchFromScratchRebuildOnAllNineMethods) {
  const std::vector<mutation::MutationBatch> history = {MixedHistory()[0]};
  auto stats = live_->mutator->Apply(history[0]);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->generation, 1u);
  EXPECT_EQ(stats->applied_ops, 3u);
  EXPECT_GT(stats->structural_pairs, 0u);

  auto oracle =
      BuildMutatedOracle(history, live_->handle->Snapshot()->catalog());
  ExpectIdenticalToOracle(*live_->engine, live_->db, *oracle, "additions");
}

TEST_F(MutationFig3Test, RemovalsCascadeAndMatchFromScratchRebuild) {
  // The base history's removals need nothing from batch 0: run them alone.
  const std::vector<mutation::MutationBatch> history = {MixedHistory()[1]};
  auto stats = live_->mutator->Apply(history[0]);
  ASSERT_TRUE(stats.ok()) << stats.status();

  auto oracle =
      BuildMutatedOracle(history, live_->handle->Snapshot()->catalog());
  ExpectIdenticalToOracle(*live_->engine, live_->db, *oracle, "removals");
}

TEST_F(MutationFig3Test, AttributeUpdatesMatchWithoutRestagingAnyPair) {
  const std::vector<mutation::MutationBatch> history = {MixedHistory()[2]};
  auto stats = live_->mutator->Apply(history[0]);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->structural_pairs, 0u)
      << "attribute-only batches must not re-stage precompute";
  EXPECT_GT(stats->cache_only_pairs, 0u);

  auto oracle =
      BuildMutatedOracle(history, live_->handle->Snapshot()->catalog());
  ExpectIdenticalToOracle(*live_->engine, live_->db, *oracle, "attributes");
}

TEST_F(MutationFig3Test, ChainedBatchesThenCompactionStayIdentical) {
  const std::vector<mutation::MutationBatch> history = MixedHistory();
  for (const mutation::MutationBatch& batch : history) {
    ASSERT_TRUE(live_->mutator->Apply(batch).ok());
  }
  EXPECT_EQ(live_->mutator->generation(), history.size());
  EXPECT_EQ(live_->mutator->uncompacted_generations(), history.size());

  auto oracle =
      BuildMutatedOracle(history, live_->handle->Snapshot()->catalog());
  ExpectIdenticalToOracle(*live_->engine, live_->db, *oracle, "chained");

  auto fold = live_->mutator->CompactNow();
  ASSERT_TRUE(fold.ok()) << fold.status();
  EXPECT_EQ(fold->generations_folded, history.size());
  EXPECT_GT(fold->pairs_folded, 0u);
  EXPECT_EQ(live_->mutator->uncompacted_generations(), 0u);
  ExpectIdenticalToOracle(*live_->engine, live_->db, *oracle, "compacted");

  // A second fold with nothing accumulated is a zero-stat no-op.
  auto idle = live_->mutator->CompactNow();
  ASSERT_TRUE(idle.ok());
  EXPECT_EQ(idle->generations_folded, 0u);

  // Mutations keep landing on the compacted epoch.
  mutation::MutationBatch more;
  more.ops = {mutation::AddEdge("Uni_contains", 700, 150, 742)};
  ASSERT_TRUE(live_->mutator->Apply(more).ok());
  std::vector<mutation::MutationBatch> extended = history;
  extended.push_back(more);
  auto oracle2 =
      BuildMutatedOracle(extended, live_->handle->Snapshot()->catalog());
  ExpectIdenticalToOracle(*live_->engine, live_->db, *oracle2,
                          "post-compaction batch");
}

TEST_F(MutationFig3Test, EngineCachedSetsRetireWithTheirEpoch) {
  // Fast-Top reads build the pruned topologies' exception-pair sets and,
  // under exclude_weak, the weak-topology set. Every mutation generation
  // and compaction round serves a new epoch with new table names; the
  // sets of a retired epoch must go with it, not pile up for the life of
  // the engine.
  engine::TopologyQuery q = FixtureQueries(live_->db)[0];
  q.exclude_weak = true;
  auto read = [&]() {
    auto result = live_->engine->Execute(q, MethodKind::kFastTop);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_GT(result->stats.subqueries, 0u);
  };
  read();
  const size_t one_epoch = live_->engine->CachedSetsForTest();
  ASSERT_GT(one_epoch, 0u);
  for (int64_t gen = 0; gen < 8; ++gen) {
    // Add an Encodes edge, then take it away again: structural batches,
    // each re-staging the Protein-DNA pair under a new generation.
    mutation::MutationBatch batch;
    batch.ops = {gen % 2 == 0 ? mutation::AddEdge("Encodes", 900 + gen, 32,
                                                  742)
                              : mutation::RemoveEdge("Encodes", 899 + gen)};
    ASSERT_TRUE(live_->mutator->Apply(batch).ok());
    read();
    EXPECT_LE(live_->engine->CachedSetsForTest(), 2 * one_epoch)
        << "generation " << gen + 1;
  }
  ASSERT_TRUE(live_->mutator->CompactNow().ok());
  read();
  EXPECT_LE(live_->engine->CachedSetsForTest(), 2 * one_epoch);
}

TEST_F(MutationFig3Test, InvalidBatchesFailAtomicallyWithNoSideEffects) {
  const engine::TopologyQuery probe = FixtureQueries(live_->db)[0];
  auto before = live_->engine->Execute(probe, MethodKind::kFullTop);
  ASSERT_TRUE(before.ok());

  mutation::MutationBatch empty;
  EXPECT_FALSE(live_->mutator->Apply(empty).ok());

  mutation::MutationBatch duplicate;
  duplicate.ops = {mutation::AddNode("Protein", 32)};  // Id already taken.
  EXPECT_FALSE(live_->mutator->Apply(duplicate).ok());

  mutation::MutationBatch dangling;
  dangling.ops = {mutation::AddEdge("Encodes", 800, 9999, 742)};
  EXPECT_FALSE(live_->mutator->Apply(dangling).ok());

  mutation::MutationBatch late_failure;
  late_failure.ops = {
      mutation::AddNode("Protein", 501),
      mutation::RemoveEdge("Encodes", 12345),  // No such edge: op 2 fails.
  };
  EXPECT_FALSE(live_->mutator->Apply(late_failure).ok());

  EXPECT_EQ(live_->mutator->generation(), 0u);
  auto after = live_->engine->Execute(probe, MethodKind::kFullTop);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->entries, before->entries);
}

TEST_F(MutationFig3Test, StatusStringReportsTheApplyAndFoldCounters) {
  auto first = live_->mutator->Apply(MixedHistory()[0]);
  ASSERT_TRUE(first.ok()) << first.status();
  // A pair's first restage sweeps every source and fills its memo.
  EXPECT_GT(first->sources_swept, 0u);
  EXPECT_EQ(first->sources_reused, 0u);
  const size_t memo_bytes = live_->mutator->source_memo_bytes();
  EXPECT_GT(memo_bytes, 0u);
  std::string status = live_->mutator->StatusString();
  EXPECT_NE(status.find("generation: 1"), std::string::npos) << status;
  EXPECT_NE(status.find("uncompacted_generations: 1"), std::string::npos);
  EXPECT_NE(status.find("pending_pairs:"), std::string::npos);
  EXPECT_NE(status.find("sources_swept_total: " +
                        std::to_string(first->sources_swept)),
            std::string::npos)
      << status;
  EXPECT_NE(status.find("sources_reused_total: 0"), std::string::npos)
      << status;
  EXPECT_NE(status.find("source_memo_bytes: " + std::to_string(memo_bytes)),
            std::string::npos)
      << status;
  ASSERT_TRUE(live_->mutator->CompactNow().ok());
  status = live_->mutator->StatusString();
  EXPECT_NE(status.find("uncompacted_generations: 0"), std::string::npos)
      << status;
  EXPECT_NE(status.find("compaction_rounds: 1"), std::string::npos) << status;

  // Compaction keeps the memos: the next restage reuses unreached sources.
  auto second = live_->mutator->Apply(MixedHistory()[1]);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_GT(second->sources_reused, 0u);

  obs::MetricsRegistry registry;
  registry.Register(live_->mutator.get());
  const std::string text = registry.RenderPrometheus();
  for (const char* family :
       {"tsb_mutation_sources_swept_total", "tsb_mutation_sources_reused_total",
        "tsb_mutation_source_memo_bytes"}) {
    EXPECT_NE(text.find(family), std::string::npos) << family;
  }
  EXPECT_NE(text.find("tsb_mutation_sources_reused_total " +
                      std::to_string(second->sources_reused)),
            std::string::npos)
      << text;
  // The whole tsb_mutation_* scrape of this fixed history, byte for byte.
  const Hash128 digest = StableHasher().Add(text).Digest();
  EXPECT_EQ(digest.hi, 15340945140699200540u) << text;
  EXPECT_EQ(digest.lo, 6177577575581767388u);
}

TEST_F(MutationFig3Test, FailedRestageKeepsLaterBatchesIdenticalToRebuild) {
  mutation::MutationBatch first;
  first.ops = {mutation::AddEdge("Encodes", 600, 78, 742)};
  auto stats = live_->mutator->Apply(first);
  ASSERT_TRUE(stats.ok()) << stats.status();
  const std::vector<mutation::TypePair> dirty = stats->dirty.structural;
  ASSERT_GE(dirty.size(), 2u);

  // An edge of the same relationship set dirties the same pairs. Occupy
  // the last one's AllTops name so its commit fails after the others were
  // restaged and committed.
  const core::PairTopologyData* last = live_->handle->Snapshot()->FindPair(
      dirty.back().first, dirty.back().second);
  ASSERT_NE(last, nullptr);
  const std::string blocker =
      "m" + std::to_string(live_->mutator->generation() + 1) + ".AllTops_" +
      last->pair_name;
  ASSERT_TRUE(live_->db
                  .CreateTable(blocker, storage::TableSchema(
                                            {{"X", storage::ColumnType::kInt64}}))
                  .ok());
  mutation::MutationBatch failing;
  failing.ops = {mutation::AddEdge("Encodes", 601, 44, 214)};
  auto failed = live_->mutator->Apply(failing);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(live_->mutator->generation(), 1u);
  for (const mutation::TypePair& key : dirty) {
    EXPECT_FALSE(live_->mutator->SourceMemoOf(key).has_value())
        << "a failed batch must drop its dirty pairs' memos";
  }
  ASSERT_TRUE(live_->db.DropTable(blocker).ok());

  // Later batches re-use the failed generation's namespace and describe a
  // history in which the failed batch never happened.
  std::vector<mutation::MutationBatch> history = {first};
  mutation::MutationBatch later[2];
  later[0].ops = {mutation::RemoveEdge("Uni_contains", 93),
                  mutation::AddEdge("Encodes", 602, 44, 214)};
  later[1].ops = {mutation::AddEdge("Uni_encodes", 603, 150, 32)};
  for (const mutation::MutationBatch& batch : later) {
    auto applied = live_->mutator->Apply(batch);
    ASSERT_TRUE(applied.ok()) << applied.status();
    history.push_back(batch);
    ExpectMemosMatchFreshStaging(*live_->mutator, *live_->handle->Snapshot(),
                                 &live_->db, *live_->schema,
                                 Fig3BuildConfig(), "after the failure");
  }
  auto oracle =
      BuildMutatedOracle(history, live_->handle->Snapshot()->catalog());
  ExpectIdenticalToOracle(*live_->engine, live_->db, *oracle,
                          "after a failed restage");
}

TEST_F(MutationFig3Test, ExternalRebuildDropsTheSourceMemo) {
  service::TopologyService svc(live_->engine.get(), &live_->db,
                               service::ServiceConfig{});
  ASSERT_TRUE(svc.AttachLiveStore(live_->schema.get(), live_->view.get()).ok());
  mutation::MutationEngine::Options options;
  options.build = Fig3BuildConfig();
  ASSERT_TRUE(svc.EnableMutations(options).ok());
  mutation::MutationEngine* mutator = svc.mutation_engine();

  ASSERT_TRUE(svc.ApplyMutations(MixedHistory()[0]).ok());
  EXPECT_GT(mutator->source_memo_bytes(), 0u);

  // Rebuild stages a new epoch from the service's base view, so the live
  // graph is the fixture again and the memos describe a graph gone.
  service::RebuildOptions rebuild;
  rebuild.build = Fig3BuildConfig();
  rebuild.prune_threshold = 0;
  ASSERT_TRUE(svc.Rebuild(rebuild).ok());

  const std::vector<mutation::MutationBatch> history = {MixedHistory()[2],
                                                        MixedHistory()[1]};
  auto attributes = svc.ApplyMutations(history[0]);
  ASSERT_TRUE(attributes.ok()) << attributes.status();
  EXPECT_EQ(attributes->structural_pairs, 0u);
  EXPECT_EQ(mutator->source_memo_bytes(), 0u)
      << "a store swapped in by Rebuild must drop every memo";

  auto removals = svc.ApplyMutations(history[1]);
  ASSERT_TRUE(removals.ok()) << removals.status();
  EXPECT_EQ(removals->sources_reused, 0u);
  auto oracle =
      BuildMutatedOracle(history, live_->handle->Snapshot()->catalog());
  ExpectIdenticalToOracle(*live_->engine, live_->db, *oracle,
                          "after an external rebuild");
}

TEST_F(MutationFig3Test, WalReplayReproducesAcknowledgedBatchesExactly) {
  const std::string path = TempWalPath("replay");
  std::remove(path.c_str());
  const std::vector<mutation::MutationBatch> history = MixedHistory();
  {
    mutation::DeltaLog wal;
    std::vector<mutation::MutationBatch> replayed;
    ASSERT_TRUE(wal.Open(path, &replayed).ok());
    live_->mutator->set_delta_log(&wal);
    for (const mutation::MutationBatch& batch : history) {
      ASSERT_TRUE(live_->mutator->ApplyLogged(batch).ok());
    }
    // The fleet snapshot reads the mutation and WAL counters off the
    // engine's own export.
    const obs::FleetSnapshot fleet =
        service::FleetSnapshotOf(live_->mutator->Read(), nullptr);
    EXPECT_EQ(fleet.mutation_batches, live_->mutator->batches_applied());
    EXPECT_EQ(fleet.mutation_ops, live_->mutator->ops_applied());
    EXPECT_EQ(fleet.overlay_generations,
              live_->mutator->uncompacted_generations());
    EXPECT_EQ(fleet.compaction_folds, live_->mutator->compaction_rounds());
    EXPECT_EQ(fleet.wal_records, history.size());
    EXPECT_EQ(fleet.wal_records, wal.appended_records());
    EXPECT_EQ(fleet.wal_bytes, wal.appended_bytes());
    EXPECT_GT(fleet.wal_bytes, 0u);
    live_->mutator->set_delta_log(nullptr);
  }

  // A "restarted process": an identical fresh base world that recovers
  // purely from the WAL, as shard_server --wal-dir does on startup.
  std::unique_ptr<LiveWorld> recovered = MakeLiveWorld();
  mutation::DeltaLog wal;
  std::vector<mutation::MutationBatch> replayed;
  auto stats = wal.Open(path, &replayed);
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_EQ(replayed.size(), history.size());
  ASSERT_TRUE(recovered->mutator->Replay(replayed).ok());
  EXPECT_EQ(recovered->mutator->generation(), history.size());

  const std::vector<engine::TopologyQuery> queries = FixtureQueries(live_->db);
  const std::vector<engine::TopologyQuery> rqueries =
      FixtureQueries(recovered->db);
  for (size_t q = 0; q < queries.size(); ++q) {
    for (MethodKind method : kAllMethods) {
      auto a = live_->engine->Execute(queries[q], method);
      auto b = recovered->engine->Execute(rqueries[q], method);
      ASSERT_EQ(a.ok(), b.ok()) << q << " "
                                << engine::MethodKindToString(method);
      if (a.ok()) {
        EXPECT_EQ(a->entries, b->entries)
            << q << " " << engine::MethodKindToString(method);
      }
    }
  }
  wal.Close();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Sharded overlays
// ---------------------------------------------------------------------------

class ShardedMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ids_ = biozon::BuildFigure3Database(&db_);
    view_ = std::make_unique<graph::DataGraphView>(db_);
    schema_ = std::make_unique<graph::SchemaGraph>(db_);
  }

  std::unique_ptr<shard::ScatterGatherExecutor> MakeSharded(
      size_t n, const std::string& tag,
      const core::BuildConfig& config = Fig3BuildConfig()) {
    auto sharded = std::make_shared<shard::ShardedTopologyStore>(n);
    core::TopologyBuilder builder(&db_, schema_.get(), view_.get());
    core::BuildConfig build = config;
    build.table_namespace = tag + std::to_string(n) + ".";
    TSB_CHECK(sharded->Build(&builder, build).ok());
    core::PruneConfig prune;
    prune.frequency_threshold = 0;
    for (size_t i = 0; i < n; ++i) {
      auto snapshot = sharded->Snapshot(i);
      std::vector<std::pair<storage::EntityTypeId, storage::EntityTypeId>>
          keys;
      for (const auto& [key, pair] : snapshot->pairs()) keys.push_back(key);
      for (const auto& [t1, t2] : keys) {
        TSB_CHECK(core::PruneFrequentTopologies(&db_, snapshot.get(), t1, t2,
                                                prune)
                      .ok());
      }
    }
    return std::make_unique<shard::ScatterGatherExecutor>(
        &db_, sharded, schema_.get(), view_.get(),
        biozon::MakeBiozonDomainKnowledge(ids_),
        engine::SqlBaselineOptions{}, shard::ScatterGatherConfig{});
  }

  /// The query mix under all nine methods, executor against oracle.
  void ExpectMatchesOracle(const shard::ScatterGatherExecutor& executor,
                           const OracleWorld& oracle,
                           const std::string& what) {
    const std::vector<engine::TopologyQuery> queries = FixtureQueries(db_);
    const std::vector<engine::TopologyQuery> oqueries =
        FixtureQueries(oracle.db);
    for (size_t q = 0; q < queries.size(); ++q) {
      for (MethodKind method : kAllMethods) {
        auto a = executor.Execute(queries[q], method);
        auto b = oracle.engine->Execute(oqueries[q], method);
        ASSERT_EQ(a.ok(), b.ok())
            << what << ", query " << q << " "
            << engine::MethodKindToString(method);
        if (!a.ok()) continue;
        EXPECT_EQ(a->entries, b->entries)
            << what << ", query " << q << " "
            << engine::MethodKindToString(method);
        EXPECT_FALSE(a->partial);
      }
    }
  }

  storage::Catalog db_;
  biozon::BiozonSchema ids_;
  std::unique_ptr<graph::DataGraphView> view_;
  std::unique_ptr<graph::SchemaGraph> schema_;
};

TEST_F(ShardedMutationTest, OverlayMatchesFromScratchAtOneAndFourShards) {
  const std::vector<mutation::MutationBatch> history = MixedHistory();
  for (size_t n : {1u, 4u}) {
    auto executor = MakeSharded(n, "mm");
    std::vector<std::shared_ptr<core::StoreHandle>> handles;
    for (size_t i = 0; i < n; ++i) {
      handles.push_back(executor->mutable_store()->handle(i));
    }
    mutation::MutationEngine::Options options;
    options.build.max_path_length = 3;
    mutation::MutationEngine mutator(&db_, schema_.get(), handles, options);
    for (const mutation::MutationBatch& batch : history) {
      auto stats = mutator.Apply(batch);
      ASSERT_TRUE(stats.ok()) << n << " shards: " << stats.status();
    }

    auto oracle = BuildMutatedOracle(
        history, executor->mutable_store()->Snapshot(0)->catalog());
    ExpectMatchesOracle(*executor, *oracle,
                        std::to_string(n) + " shards");

    // Rolling per-shard compaction preserves the identity.
    auto fold = mutator.CompactNow();
    ASSERT_TRUE(fold.ok()) << fold.status();
    ExpectMatchesOracle(*executor, *oracle,
                        "post-fold " + std::to_string(n) + " shards");
  }
}

TEST_F(ShardedMutationTest, SourceMemoMatchesFreshStagingOverASeededStream) {
  // Caps small enough that every truncation fires on the growing graph.
  core::BuildConfig config = Fig3BuildConfig();
  config.max_class_representatives = 2;
  config.max_union_combinations = 3;
  config.max_paths_per_source = 8;
  const std::vector<mutation::MutationBatch> stream = RandomStream(13, 200);
  for (size_t n : {1u, 4u}) {
    auto executor = MakeSharded(n, "ms", config);
    std::vector<std::shared_ptr<core::StoreHandle>> handles;
    for (size_t i = 0; i < n; ++i) {
      handles.push_back(executor->mutable_store()->handle(i));
    }
    mutation::MutationEngine::Options options;
    options.build = config;
    mutation::MutationEngine mutator(&db_, schema_.get(), handles, options);
    TruncationsSeen seen;
    size_t swept = 0;
    size_t reused = 0;
    for (size_t b = 0; b < stream.size(); ++b) {
      const std::string what =
          std::to_string(n) + " shards, batch " + std::to_string(b);
      auto stats = mutator.Apply(stream[b]);
      ASSERT_TRUE(stats.ok()) << what << ": " << stats.status();
      swept += stats->sources_swept;
      reused += stats->sources_reused;
      if (b == stream.size() / 2) {
        // A fold leaves the graph unchanged and keeps the memos.
        const size_t memo_bytes = mutator.source_memo_bytes();
        ASSERT_TRUE(mutator.CompactNow().ok());
        EXPECT_EQ(mutator.source_memo_bytes(), memo_bytes);
      }
      ExpectMemosMatchFreshStaging(mutator,
                                   *executor->mutable_store()->Snapshot(0),
                                   &db_, *schema_, config, what, &seen);
      if (HasFatalFailure()) return;
    }
    EXPECT_TRUE(seen.paths_per_source);
    EXPECT_TRUE(seen.class_representatives);
    EXPECT_TRUE(seen.union_combinations);
    EXPECT_GT(reused, swept) << "the memo should spare most sweeps";

    auto oracle = BuildMutatedOracle(
        stream, executor->mutable_store()->Snapshot(0)->catalog(), config);
    ExpectMatchesOracle(*executor, *oracle,
                        std::to_string(n) + " shards after the stream");
  }
}

// ---------------------------------------------------------------------------
// Service integration: ApplyMutations + per-pair cache retention
// ---------------------------------------------------------------------------

class ServiceMutationTest : public ::testing::Test {
 protected:
  void SetUp() override { live_ = MakeLiveWorld(); }

  engine::TopologyQuery ProteinUnigene() const {
    engine::TopologyQuery q;
    q.entity_set1 = "Protein";
    q.entity_set2 = "Unigene";
    q.scheme = core::RankScheme::kFreq;
    q.k = 10;
    return q;
  }

  engine::TopologyQuery ProteinDnaTyped() const {
    engine::TopologyQuery q;
    q.entity_set1 = "Protein";
    q.entity_set2 = "DNA";
    q.pred2 = storage::MakeEquals(live_->db.GetTable("DNA")->schema(), "TYPE",
                                  storage::Value("mRNA"));
    q.scheme = core::RankScheme::kFreq;
    q.k = 10;
    return q;
  }

  std::unique_ptr<LiveWorld> live_;
};

TEST_F(ServiceMutationTest, ApplyMutationsEvictsDirtyPairsAndKeepsCleanOnes) {
  service::TopologyService svc(live_->engine.get(), &live_->db,
                               service::ServiceConfig{});
  ASSERT_TRUE(svc.AttachLiveStore(live_->schema.get(), live_->view.get()).ok());
  mutation::MutationEngine::Options options;
  options.build.max_path_length = 3;
  ASSERT_TRUE(svc.EnableMutations(options).ok());
  ASSERT_NE(svc.mutation_engine(), nullptr);
  // Double enable is rejected.
  EXPECT_FALSE(svc.EnableMutations(options).ok());

  // Warm both pairs.
  auto pu_cold = Serve(svc, ProteinUnigene(), MethodKind::kFullTop);
  ASSERT_TRUE(pu_cold.error.ok());
  EXPECT_FALSE(pu_cold.from_cache);
  auto pd_cold = Serve(svc, ProteinDnaTyped(), MethodKind::kFullTop);
  ASSERT_TRUE(pd_cold.error.ok());
  EXPECT_FALSE(pd_cold.from_cache);
  EXPECT_TRUE(Serve(svc, ProteinUnigene(), MethodKind::kFullTop).from_cache);
  EXPECT_TRUE(Serve(svc, ProteinDnaTyped(), MethodKind::kFullTop).from_cache);

  // A DNA attribute flip invalidates only pairs that can read DNA bytes:
  // Protein-DNA is evicted, Protein-Unigene survives in cache.
  mutation::MutationBatch batch;
  batch.ops = {mutation::UpdateAttribute("DNA", 215, "TYPE",
                                         storage::Value(std::string("rRNA")))};
  auto stats = svc.ApplyMutations(batch);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->structural_pairs, 0u);
  EXPECT_GT(stats->cache_only_pairs, 0u);

  auto pu_warm = Serve(svc, ProteinUnigene(), MethodKind::kFullTop);
  ASSERT_TRUE(pu_warm.error.ok());
  EXPECT_TRUE(pu_warm.from_cache)
      << "clean-pair cache entries must survive a mutation";
  EXPECT_EQ(pu_warm.result.entries, pu_cold.result.entries);

  auto pd_fresh = Serve(svc, ProteinDnaTyped(), MethodKind::kFullTop);
  ASSERT_TRUE(pd_fresh.error.ok());
  EXPECT_FALSE(pd_fresh.from_cache)
      << "dirty-pair cache entries must be evicted";
  // DNA 215 no longer matches TYPE = mRNA; the live engine agrees.
  auto direct = live_->engine->Execute(ProteinDnaTyped(), MethodKind::kFullTop);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(pd_fresh.result.entries, direct->entries);
  EXPECT_NE(pd_fresh.result.entries, pd_cold.result.entries)
      << "the attribute flip must be observable through the predicate";

  // The re-computed result is cached under the pair's new generation.
  EXPECT_TRUE(Serve(svc, ProteinDnaTyped(), MethodKind::kFullTop).from_cache);
}

TEST_F(ServiceMutationTest, ApplyMutationsRequiresEnableMutations) {
  service::TopologyService svc(live_->engine.get(), &live_->db,
                               service::ServiceConfig{});
  mutation::MutationBatch batch;
  batch.ops = {mutation::RemoveEdge("Uni_contains", 93)};
  auto stats = svc.ApplyMutations(batch);
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServiceMutationTest, CallersEngineAndHandleFollowRebuildAndMutations) {
  // A service built from the caller's engine writes through the caller's
  // own StoreHandle, so that engine keeps answering what the service does.
  service::TopologyService svc(live_->engine.get(), &live_->db,
                               service::ServiceConfig{});
  auto expect_engine_agrees = [&](const std::string& what) {
    for (const engine::TopologyQuery& query : FixtureQueries(live_->db)) {
      for (MethodKind method : kAllMethods) {
        auto direct = live_->engine->Execute(query, method);
        auto served = Serve(svc, query, method);
        ASSERT_EQ(direct.ok(), served.error.ok())
            << what << " " << engine::MethodKindToString(method);
        if (!direct.ok()) continue;
        EXPECT_EQ(direct->entries, served.result.entries)
            << what << " " << engine::MethodKindToString(method);
      }
    }
  };

  ASSERT_EQ(live_->handle->epoch(), 0u);
  service::RebuildOptions rebuild;
  rebuild.build = Fig3BuildConfig();
  rebuild.prune_threshold = 0;
  auto rebuilt = svc.Rebuild(rebuild);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_EQ(rebuilt->epoch, 1u);
  EXPECT_EQ(live_->handle->epoch(), 1u);
  // One shard is the whole store: the epoch namespace has no shard part.
  EXPECT_NE(live_->db.FindTable("e1.AllTops_Protein_DNA"), nullptr);
  expect_engine_agrees("after Rebuild");

  mutation::MutationEngine::Options options;
  options.build = Fig3BuildConfig();
  ASSERT_TRUE(svc.EnableMutations(options).ok());
  for (const mutation::MutationBatch& batch : MixedHistory()) {
    const uint64_t before = live_->handle->epoch();
    auto applied = svc.ApplyMutations(batch);
    ASSERT_TRUE(applied.ok()) << applied.status();
    EXPECT_GT(live_->handle->epoch(), before);
  }
  expect_engine_agrees("after ApplyMutations");
}

TEST_F(ServiceMutationTest, ApplyMutationsRacingEnableMutationsIsSafe) {
  // EnableMutations assigns the mutation engine under the writers' lock;
  // ApplyMutations must read it under that lock too (TSan checks this).
  // Every call either lands or is refused as not yet enabled.
  service::TopologyService svc(live_->engine.get(), &live_->db,
                               service::ServiceConfig{});
  mutation::MutationBatch batch;
  batch.ops = {mutation::UpdateAttribute("DNA", 215, "TYPE",
                                         storage::Value(std::string("rRNA")))};
  std::atomic<bool> enabled{false};
  std::atomic<size_t> refused{0};
  std::atomic<size_t> applied{0};
  std::atomic<size_t> unexpected{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&]() {
      // Keep applying until three calls started after the enable returned.
      for (size_t after_enable = 0; after_enable < 3;) {
        const bool was_enabled = enabled.load();
        auto stats = svc.ApplyMutations(batch);
        if (stats.ok()) {
          ++applied;
        } else if (stats.status().code() == StatusCode::kFailedPrecondition) {
          ++refused;
        } else {
          ++unexpected;
        }
        if (was_enabled) ++after_enable;
      }
    });
  }
  while (refused.load() < 4) std::this_thread::yield();
  mutation::MutationEngine::Options options;
  options.build = Fig3BuildConfig();
  const Status enable = svc.EnableMutations(options);
  enabled.store(true);
  for (std::thread& writer : writers) writer.join();
  ASSERT_TRUE(enable.ok()) << enable;
  EXPECT_EQ(unexpected.load(), 0u);
  EXPECT_GE(refused.load(), 4u);
  EXPECT_GE(applied.load(), 12u);
}

}  // namespace
}  // namespace tsb
