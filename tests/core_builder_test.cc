// Builder, store, and scorer behaviour on synthetic databases (beyond the
// Figure-3 worked example covered in core_fig3_test.cc).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>

#include "biozon/domain.h"
#include "biozon/generator.h"
#include "common/hash.h"
#include "core/builder.h"
#include "core/pruner.h"
#include "core/scorer.h"
#include "core/store.h"
#include "core/topology.h"
#include "graph/canonical.h"
#include "graph/data_graph.h"
#include "graph/schema_graph.h"
#include "service/thread_pool.h"

namespace tsb {
namespace {

biozon::GeneratorConfig SmallConfig(uint64_t seed) {
  biozon::GeneratorConfig config;
  config.seed = seed;
  config.scale = 0.03;  // ~90 proteins, ~70 DNAs, ...
  return config;
}

struct BuiltDb {
  storage::Catalog db;
  biozon::BiozonSchema ids;
  std::unique_ptr<graph::DataGraphView> view;
  std::unique_ptr<graph::SchemaGraph> schema;
  core::TopologyStore store;
  const core::PairTopologyData* pair = nullptr;
};

std::unique_ptr<BuiltDb> BuildSmall(uint64_t seed, size_t l = 3) {
  auto built = std::make_unique<BuiltDb>();
  built->ids = biozon::GenerateBiozon(SmallConfig(seed), &built->db);
  built->view = std::make_unique<graph::DataGraphView>(built->db);
  built->schema = std::make_unique<graph::SchemaGraph>(built->db);
  core::TopologyBuilder builder(&built->db, built->schema.get(),
                                built->view.get());
  core::BuildConfig config;
  config.max_path_length = l;
  TSB_CHECK(builder
                .BuildPair(built->ids.protein, built->ids.dna, config,
                           &built->store)
                .ok());
  built->pair = built->store.FindPair(built->ids.protein, built->ids.dna);
  return built;
}

TEST(GeneratorTest, DeterministicForSeed) {
  storage::Catalog db1;
  storage::Catalog db2;
  biozon::GenerateBiozon(SmallConfig(7), &db1);
  biozon::GenerateBiozon(SmallConfig(7), &db2);
  for (const char* table : {"Protein", "DNA", "Encodes", "Uni_contains"}) {
    const storage::Table* t1 = db1.GetTable(table);
    const storage::Table* t2 = db2.GetTable(table);
    ASSERT_EQ(t1->num_rows(), t2->num_rows()) << table;
    for (size_t i = 0; i < t1->num_rows(); ++i) {
      EXPECT_EQ(t1->GetRow(i), t2->GetRow(i));
    }
  }
}

TEST(GeneratorTest, KeywordSelectivitiesCalibrated) {
  storage::Catalog db;
  biozon::GeneratorConfig config;
  config.seed = 3;
  config.scale = 0.5;
  biozon::GenerateBiozon(config, &db);
  const storage::Table& proteins = *db.GetTable("Protein");
  auto check = [&](const char* tier, double expected, double tolerance) {
    auto pred = biozon::SelectivityPredicate(db, "Protein", tier);
    EXPECT_NEAR(storage::Selectivity(proteins, *pred), expected, tolerance)
        << tier;
  };
  check("selective", config.selective_fraction, 0.01);
  check("medium", config.medium_fraction, 0.04);
  check("unselective", config.unselective_fraction, 0.04);
}

TEST(GeneratorTest, ReferentialIntegrityHolds) {
  storage::Catalog db;
  biozon::GenerateBiozon(SmallConfig(11), &db);
  // DataGraphView aborts on dangling references; constructing it is the
  // integrity check.
  graph::DataGraphView view(db);
  EXPECT_GT(view.num_nodes(), 0u);
  EXPECT_GT(view.num_edges(), 0u);
}

TEST(GeneratorTest, StatsReportTotals) {
  storage::Catalog db;
  biozon::GeneratorStats stats;
  biozon::GenerateBiozon(SmallConfig(5), &db, &stats);
  EXPECT_GT(stats.total_entities, 0u);
  EXPECT_GT(stats.total_relationships, 0u);
  EXPECT_EQ(stats.total_entities, graph::DataGraphView(db).num_nodes());
}

TEST(BuilderTest, FrequencySumsMatchAllTopsRows) {
  auto built = BuildSmall(21);
  const storage::Table& alltops =
      *built->db.GetTable(built->pair->alltops_table);
  size_t freq_total = 0;
  for (const auto& [tid, freq] : built->pair->freq) freq_total += freq;
  EXPECT_EQ(freq_total, alltops.num_rows());
  EXPECT_GT(alltops.num_rows(), 0u);
}

TEST(BuilderTest, ObservedTidsSortedAndValid) {
  auto built = BuildSmall(22);
  std::vector<core::Tid> tids = built->pair->ObservedTids();
  EXPECT_TRUE(std::is_sorted(tids.begin(), tids.end()));
  for (core::Tid tid : tids) {
    const core::TopologyInfo& info = built->store.catalog().Get(tid);
    EXPECT_EQ(info.tid, tid);
    EXPECT_TRUE(info.graph.IsConnected());
    EXPECT_GE(info.graph.num_nodes(), 2u);
  }
}

TEST(BuilderTest, DeterministicAcrossRuns) {
  auto b1 = BuildSmall(23);
  auto b2 = BuildSmall(23);
  const storage::Table& t1 = *b1->db.GetTable(b1->pair->alltops_table);
  const storage::Table& t2 = *b2->db.GetTable(b2->pair->alltops_table);
  ASSERT_EQ(t1.num_rows(), t2.num_rows());
  for (size_t i = 0; i < t1.num_rows(); ++i) {
    EXPECT_EQ(t1.GetRow(i), t2.GetRow(i));
  }
}

TEST(BuilderTest, CapsTriggerTruncationCounters) {
  auto built = std::make_unique<BuiltDb>();
  built->ids = biozon::GenerateBiozon(SmallConfig(29), &built->db);
  built->view = std::make_unique<graph::DataGraphView>(built->db);
  built->schema = std::make_unique<graph::SchemaGraph>(built->db);
  core::TopologyBuilder builder(&built->db, built->schema.get(),
                                built->view.get());
  core::BuildConfig config;
  config.max_path_length = 3;
  config.max_class_representatives = 1;
  config.max_paths_per_source = 5;
  ASSERT_TRUE(builder
                  .BuildPair(built->ids.protein, built->ids.dna, config,
                             &built->store)
                  .ok());
  const core::PairTopologyData* pair =
      built->store.FindPair(built->ids.protein, built->ids.dna);
  EXPECT_GT(pair->truncated_pairs + pair->truncated_representatives, 0u);
}

TEST(BuilderTest, BuildAllPairsCoversConnectedTypePairs) {
  auto built = std::make_unique<BuiltDb>();
  built->ids = biozon::GenerateBiozon(SmallConfig(31), &built->db);
  built->view = std::make_unique<graph::DataGraphView>(built->db);
  built->schema = std::make_unique<graph::SchemaGraph>(built->db);
  core::TopologyBuilder builder(&built->db, built->schema.get(),
                                built->view.get());
  core::BuildConfig config;
  config.max_path_length = 2;
  ASSERT_TRUE(builder.BuildAllPairs(config, &built->store).ok());
  // Protein-DNA, Protein-Interaction, Protein-Unigene, DNA-Unigene,
  // DNA-Interaction, ... every schema-connected unordered type pair.
  EXPECT_TRUE(
      built->store.FindPair(built->ids.protein, built->ids.dna) != nullptr);
  EXPECT_TRUE(built->store.FindPair(built->ids.protein,
                                    built->ids.interaction) != nullptr);
  EXPECT_TRUE(built->store.FindPair(built->ids.dna, built->ids.unigene) !=
              nullptr);
  EXPECT_TRUE(built->store.FindPair(built->ids.protein, built->ids.protein) !=
              nullptr);
  EXPECT_GT(built->store.pairs().size(), 5u);
}

// --- Config validation ------------------------------------------------------

TEST(BuilderTest, RejectsDegenerateConfigs) {
  auto built = std::make_unique<BuiltDb>();
  built->ids = biozon::GenerateBiozon(SmallConfig(61), &built->db);
  built->view = std::make_unique<graph::DataGraphView>(built->db);
  built->schema = std::make_unique<graph::SchemaGraph>(built->db);
  core::TopologyBuilder builder(&built->db, built->schema.get(),
                                built->view.get());

  auto expect_invalid = [&](core::BuildConfig config) {
    Status pair_status = builder.BuildPair(built->ids.protein,
                                           built->ids.dna, config,
                                           &built->store);
    EXPECT_EQ(pair_status.code(), StatusCode::kInvalidArgument)
        << pair_status;
    Status all_status = builder.BuildAllPairs(config, &built->store);
    EXPECT_EQ(all_status.code(), StatusCode::kInvalidArgument) << all_status;
    EXPECT_TRUE(built->store.pairs().empty());
  };

  core::BuildConfig zero_length;
  zero_length.max_path_length = 0;
  expect_invalid(zero_length);

  core::BuildConfig zero_reps;
  zero_reps.max_class_representatives = 0;
  expect_invalid(zero_reps);

  core::BuildConfig zero_combos;
  zero_combos.max_union_combinations = 0;
  expect_invalid(zero_combos);

  core::BuildConfig zero_paths;
  zero_paths.max_paths_per_source = 0;
  expect_invalid(zero_paths);
}

TEST(BuilderTest, DuplicateBuildReturnsAlreadyExists) {
  auto built = BuildSmall(67);
  core::TopologyBuilder builder(&built->db, built->schema.get(),
                                built->view.get());
  core::BuildConfig config;
  Status dup = builder.BuildPair(built->ids.protein, built->ids.dna, config,
                                 &built->store);
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
}

// --- Staged build determinism ----------------------------------------------

/// Asserts b's store/catalog/tables are byte-identical to a's.
void ExpectIdenticalStores(const BuiltDb& a, const BuiltDb& b) {
  // Catalog: same TIDs, codes, structure facts, and class keys.
  ASSERT_EQ(a.store.catalog().size(), b.store.catalog().size());
  for (core::Tid tid = 1;
       tid <= static_cast<core::Tid>(a.store.catalog().size()); ++tid) {
    const core::TopologyInfo& ia = a.store.catalog().Get(tid);
    const core::TopologyInfo& ib = b.store.catalog().Get(tid);
    EXPECT_EQ(ia.code, ib.code) << "TID " << tid;
    EXPECT_EQ(ia.num_classes, ib.num_classes) << "TID " << tid;
    EXPECT_EQ(ia.is_path, ib.is_path) << "TID " << tid;
    EXPECT_EQ(a.store.catalog().ClassKeysOf(tid),
              b.store.catalog().ClassKeysOf(tid))
        << "TID " << tid;
  }

  // Pair registry: same pairs, frequencies, classes, and table contents.
  ASSERT_EQ(a.store.pairs().size(), b.store.pairs().size());
  auto ita = a.store.pairs().begin();
  auto itb = b.store.pairs().begin();
  for (; ita != a.store.pairs().end(); ++ita, ++itb) {
    ASSERT_EQ(ita->first, itb->first);
    const core::PairTopologyData& pa = ita->second;
    const core::PairTopologyData& pb = itb->second;
    EXPECT_EQ(pa.pair_name, pb.pair_name);
    EXPECT_EQ(pa.freq, pb.freq) << pa.pair_name;
    EXPECT_EQ(pa.num_related_pairs, pb.num_related_pairs) << pa.pair_name;
    ASSERT_EQ(pa.classes.size(), pb.classes.size()) << pa.pair_name;
    for (size_t c = 0; c < pa.classes.size(); ++c) {
      EXPECT_EQ(pa.classes[c].key, pb.classes[c].key);
      EXPECT_EQ(pa.classes[c].path_tid, pb.classes[c].path_tid);
      EXPECT_EQ(pa.classes[c].instance_pairs, pb.classes[c].instance_pairs);
    }
    for (const std::string* name :
         {&pa.alltops_table, &pa.pairclasses_table}) {
      const storage::Table& ta = *a.db.GetTable(*name);
      const storage::Table& tb = *b.db.GetTable(*name);
      ASSERT_EQ(ta.num_rows(), tb.num_rows()) << *name;
      for (size_t i = 0; i < ta.num_rows(); ++i) {
        ASSERT_EQ(ta.GetRow(i), tb.GetRow(i)) << *name << " row " << i;
      }
    }
  }
}

TEST(BuilderTest, ParallelBuildAllPairsMatchesSequentialByteForByte) {
  // The tentpole contract: fanning stage steps over N workers and
  // committing in canonical pair order yields the exact store (TIDs, class
  // ids, table rows, freq maps) of the sequential build.
  core::BuildConfig config;
  config.max_path_length = 2;

  auto sequential = std::make_unique<BuiltDb>();
  sequential->ids = biozon::GenerateBiozon(SmallConfig(71), &sequential->db);
  sequential->view = std::make_unique<graph::DataGraphView>(sequential->db);
  sequential->schema = std::make_unique<graph::SchemaGraph>(sequential->db);
  core::TopologyBuilder seq_builder(&sequential->db, sequential->schema.get(),
                                    sequential->view.get());
  ASSERT_TRUE(seq_builder.BuildAllPairs(config, &sequential->store).ok());
  ASSERT_GT(sequential->store.pairs().size(), 3u);

  for (size_t threads : {1u, 4u, 8u}) {
    auto parallel = std::make_unique<BuiltDb>();
    parallel->ids = biozon::GenerateBiozon(SmallConfig(71), &parallel->db);
    parallel->view = std::make_unique<graph::DataGraphView>(parallel->db);
    parallel->schema = std::make_unique<graph::SchemaGraph>(parallel->db);
    core::TopologyBuilder par_builder(&parallel->db, parallel->schema.get(),
                                      parallel->view.get());
    service::ThreadPool pool(threads);
    ASSERT_TRUE(
        par_builder.BuildAllPairs(config, &parallel->store, &pool).ok())
        << threads << " threads";
    ExpectIdenticalStores(*sequential, *parallel);
  }
}

TEST(BuilderTest, StagePlusCommitEqualsBuildPair) {
  auto direct = BuildSmall(73);

  auto staged = std::make_unique<BuiltDb>();
  staged->ids = biozon::GenerateBiozon(SmallConfig(73), &staged->db);
  staged->view = std::make_unique<graph::DataGraphView>(staged->db);
  staged->schema = std::make_unique<graph::SchemaGraph>(staged->db);
  core::TopologyBuilder builder(&staged->db, staged->schema.get(),
                                staged->view.get());
  core::BuildConfig config;
  auto staging =
      builder.StagePair(staged->ids.protein, staged->ids.dna, config);
  ASSERT_TRUE(staging.ok()) << staging.status();
  ASSERT_TRUE(
      builder.CommitStaged(std::move(*staging), &staged->store).ok());
  ExpectIdenticalStores(*direct, *staged);
}

TEST(BuilderTest, TableNamespacePrefixesAllPrecomputeTables) {
  auto built = std::make_unique<BuiltDb>();
  built->ids = biozon::GenerateBiozon(SmallConfig(79), &built->db);
  built->view = std::make_unique<graph::DataGraphView>(built->db);
  built->schema = std::make_unique<graph::SchemaGraph>(built->db);
  core::TopologyBuilder builder(&built->db, built->schema.get(),
                                built->view.get());
  core::BuildConfig config;
  config.table_namespace = "e1.";
  ASSERT_TRUE(builder
                  .BuildPair(built->ids.protein, built->ids.dna, config,
                             &built->store)
                  .ok());
  const core::PairTopologyData* pair =
      built->store.FindPair(built->ids.protein, built->ids.dna);
  ASSERT_NE(pair, nullptr);
  EXPECT_EQ(pair->table_namespace, "e1.");
  EXPECT_EQ(pair->alltops_table.rfind("e1.AllTops_", 0), 0u);
  EXPECT_NE(built->db.FindTable(pair->alltops_table), nullptr);

  core::PruneConfig prune;
  prune.frequency_threshold = 0;
  ASSERT_TRUE(core::PruneFrequentTopologies(&built->db, &built->store,
                                            built->ids.protein,
                                            built->ids.dna, prune)
                  .ok());
  EXPECT_EQ(pair->lefttops_table.rfind("e1.LeftTops_", 0), 0u);
  EXPECT_EQ(pair->excptops_table.rfind("e1.ExcpTops_", 0), 0u);
  EXPECT_NE(built->db.FindTable(pair->lefttops_table), nullptr);

  EXPECT_EQ(built->store.PrecomputeTableNames().size(), 4u);
}

void HashGraph(const graph::LabeledGraph& g, StableHasher* h) {
  h->AddU64(g.num_nodes());
  for (uint32_t label : g.node_labels()) h->AddU64(label);
  h->AddU64(g.num_edges());
  for (const graph::LabeledGraph::Edge& e : g.edges()) {
    h->AddU64(e.u).AddU64(e.v).AddU64(e.label);
  }
}

void HashKeys(const std::vector<std::string>& keys, StableHasher* h) {
  h->AddU64(keys.size());
  for (const std::string& key : keys) h->Add(key);
}

void HashClass(const core::ClassInfo& c, StableHasher* h) {
  h->AddU64(c.id).Add(c.key);
  for (storage::EntityTypeId t : c.path.node_types) h->AddU64(t);
  for (const graph::SchemaStep& step : c.path.steps) {
    h->AddU64(step.rel).AddU64(step.forward ? 1 : 0);
  }
  h->AddU64(static_cast<uint64_t>(c.path_tid)).AddU64(c.instance_pairs);
}

/// Stable digest of everything a build produces, in canonical order: the
/// catalog (TID, code, canonical graph, class keys), each pair's metadata,
/// class registry and freq map, and every AllTops and PairClasses row.
Hash128 BuildDigest(const BuiltDb& built) {
  StableHasher h;
  const core::TopologyCatalog& catalog = built.store.catalog();
  h.AddU64(catalog.size());
  for (core::Tid tid = 1; tid <= static_cast<core::Tid>(catalog.size());
       ++tid) {
    const core::TopologyInfo& info = catalog.Get(tid);
    h.AddU64(static_cast<uint64_t>(info.tid)).Add(info.code);
    h.AddU64(info.num_classes).AddU64(info.is_path ? 1 : 0);
    HashGraph(info.graph, &h);
    HashKeys(catalog.ClassKeysOf(tid), &h);
  }
  h.AddU64(built.store.pairs().size());
  for (const auto& [types, pair] : built.store.pairs()) {
    h.AddU64(types.first).AddU64(types.second).Add(pair.pair_name);
    h.AddU64(pair.num_related_pairs).AddU64(pair.truncated_pairs);
    h.AddU64(pair.truncated_representatives);
    h.AddU64(pair.classes.size());
    for (const core::ClassInfo& c : pair.classes) HashClass(c, &h);
    std::vector<std::pair<core::Tid, size_t>> freq(pair.freq.begin(),
                                                   pair.freq.end());
    std::sort(freq.begin(), freq.end());
    h.AddU64(freq.size());
    for (const auto& [tid, count] : freq) {
      h.AddU64(static_cast<uint64_t>(tid)).AddU64(count);
    }
    for (const std::string* name :
         {&pair.alltops_table, &pair.pairclasses_table}) {
      const storage::Table& table = *built.db.GetTable(*name);
      h.Add(*name).AddU64(table.num_rows());
      for (size_t r = 0; r < table.num_rows(); ++r) {
        for (const storage::Value& v : table.GetRow(r)) {
          h.AddU64(static_cast<uint64_t>(v.AsInt64()));
        }
      }
    }
  }
  return h.Digest();
}

TEST(BuilderTest, BuildAllPairsDigestIsPinned) {
  // Every byte the offline build produces at scale 0.1, pinned against a
  // recorded digest: build optimizations must leave the store unchanged.
  constexpr uint64_t kPinnedLo = 0x9c569f057bde6ae3ULL;
  constexpr uint64_t kPinnedHi = 0x6032d6c7ba33b7f4ULL;
  core::BuildConfig config;
  config.max_path_length = 3;
  config.max_class_representatives = 8;
  config.max_union_combinations = 512;
  config.max_paths_per_source = 200000;
  for (size_t threads : {1u, 4u}) {
    auto built = std::make_unique<BuiltDb>();
    biozon::GeneratorConfig gen;
    gen.seed = 42;
    gen.scale = 0.1;
    built->ids = biozon::GenerateBiozon(gen, &built->db);
    built->view = std::make_unique<graph::DataGraphView>(built->db);
    built->schema = std::make_unique<graph::SchemaGraph>(built->db);
    core::TopologyBuilder builder(&built->db, built->schema.get(),
                                  built->view.get());
    service::ThreadPool pool(threads);
    ASSERT_TRUE(builder.BuildAllPairs(config, &built->store, &pool).ok());
    ASSERT_GT(built->store.catalog().size(), 10u);
    const Hash128 digest = BuildDigest(*built);
    EXPECT_EQ(digest.lo, kPinnedLo) << threads << " threads";
    EXPECT_EQ(digest.hi, kPinnedHi) << threads << " threads";
  }
}

/// Stable digest of one pair's staging: class registry, staged topologies
/// (code, canonical graph, class keys, frequency) and buffered rows.
Hash128 StagingDigest(const core::PairBuildStaging& staging) {
  StableHasher h;
  const core::PairTopologyData& data = staging.data;
  h.AddU64(data.num_related_pairs).AddU64(data.truncated_pairs);
  h.AddU64(data.truncated_representatives).AddU64(data.classes.size());
  for (const core::ClassInfo& c : data.classes) HashClass(c, &h);
  for (core::Tid tid : staging.class_path_local_tid) {
    h.AddU64(static_cast<uint64_t>(tid));
  }
  h.AddU64(staging.topologies.size());
  for (const auto& t : staging.topologies) {
    h.Add(t.code).AddU64(t.num_classes).AddU64(t.frequency);
    HashGraph(t.graph, &h);
    HashKeys(t.class_keys, &h);
  }
  for (const auto* rows : {&staging.alltops_rows, &staging.pairclasses_rows}) {
    h.AddU64(rows->size());
    for (const core::PairBuildStaging::Row& row : *rows) {
      h.AddU64(static_cast<uint64_t>(row.e1));
      h.AddU64(static_cast<uint64_t>(row.e2));
      h.AddU64(static_cast<uint64_t>(row.v));
    }
  }
  return h.Digest();
}

TEST(BuilderTest, ShapeIndexCanonicalizesEachUnionShapeOnce) {
  auto built = std::make_unique<BuiltDb>();
  biozon::GeneratorConfig gen = SmallConfig(42);
  gen.scale = 0.06;
  built->ids = biozon::GenerateBiozon(gen, &built->db);
  built->view = std::make_unique<graph::DataGraphView>(built->db);
  built->schema = std::make_unique<graph::SchemaGraph>(built->db);
  const graph::DataGraphView& view = *built->view;
  core::TopologyBuilder builder(&built->db, built->schema.get(), &view);
  const core::BuildConfig config;
  const auto [t1, t2] =
      core::TopologyStore::NormalizePair(built->ids.protein, built->ids.dna);

  core::SourceMemo memo;
  auto first = builder.StagePair(t1, t2, config, &memo);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_GT(memo.canonicalized, 0u);
  EXPECT_EQ(memo.canonicalized, memo.shape_index.size());

  // Count every union the sweeps formed, independently of the builder.
  core::SweepLimits sweep_limits;
  sweep_limits.max_path_length = config.max_path_length;
  sweep_limits.max_class_representatives = config.max_class_representatives;
  sweep_limits.max_paths_per_source = config.max_paths_per_source;
  core::UnionLimits union_limits;
  union_limits.max_union_combinations = config.max_union_combinations;
  size_t unions = 0;
  for (graph::EntityId a : view.EntitiesOfType(t1)) {
    core::SourceSweep sweep = core::SweepFromSource(
        view, *built->schema, a, t2, t1 == t2, sweep_limits);
    for (auto& [b, reps_by_key] : sweep.by_dest) {
      std::vector<std::vector<graph::PathInstance>> class_reps;
      for (auto& [key, reps] : reps_by_key) {
        class_reps.push_back(std::move(reps));
      }
      core::ForEachUnion(view, class_reps, union_limits, nullptr,
                         [&unions](core::UnionGraph&) { ++unions; });
    }
  }
  EXPECT_GE(unions, 10 * memo.canonicalized)
      << unions << " unions, " << memo.canonicalized << " canonicalized";

  // Erasing every slice but keeping the pools re-sweeps every source and
  // finds every union shape in the index.
  memo.slices.clear();
  auto second = builder.StagePair(t1, t2, config, &memo);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(memo.canonicalized, 0u);
  EXPECT_EQ(memo.sources_swept, view.EntitiesOfType(t1).size());
  EXPECT_EQ(memo.sources_reused, 0u);
  EXPECT_TRUE(StagingDigest(*second) == StagingDigest(*first));

  auto fresh = builder.StagePair(t1, t2, config);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_TRUE(StagingDigest(*fresh) == StagingDigest(*first));
}

TEST(StoreTest, AddPairReportsDuplicatesAndBadOrderAsStatus) {
  core::TopologyStore store;
  core::PairTopologyData wrong_order;
  wrong_order.t1 = 5;
  wrong_order.t2 = 2;
  EXPECT_EQ(store.AddPair(std::move(wrong_order)).status().code(),
            StatusCode::kInvalidArgument);

  core::PairTopologyData first;
  first.t1 = 2;
  first.t2 = 5;
  first.pair_name = "A_B";
  ASSERT_TRUE(store.AddPair(std::move(first)).ok());

  core::PairTopologyData duplicate;
  duplicate.t1 = 2;
  duplicate.t2 = 5;
  duplicate.pair_name = "A_B";
  EXPECT_EQ(store.AddPair(std::move(duplicate)).status().code(),
            StatusCode::kAlreadyExists);
  // The store is still usable after the failed registration.
  EXPECT_NE(store.FindPair(2, 5), nullptr);
}

TEST(StoreTest, PairLookupIsOrderInsensitive) {
  auto built = BuildSmall(37);
  EXPECT_EQ(built->store.FindPair(built->ids.protein, built->ids.dna),
            built->store.FindPair(built->ids.dna, built->ids.protein));
}

TEST(StoreTest, NormalizePairOrdersTypes) {
  auto p = core::TopologyStore::NormalizePair(5, 2);
  EXPECT_EQ(p.first, 2u);
  EXPECT_EQ(p.second, 5u);
}

// --- Pruning invariants ---------------------------------------------------------

TEST(PrunerTest, LeftTopsPlusPrunedRowsEqualsAllTops) {
  auto built = BuildSmall(41);
  // Median-frequency threshold prunes something but not everything.
  std::vector<size_t> freqs;
  for (const auto& [tid, f] : built->pair->freq) freqs.push_back(f);
  std::sort(freqs.begin(), freqs.end());
  core::PruneConfig config;
  config.frequency_threshold = freqs[freqs.size() / 2];
  auto stats = core::PruneFrequentTopologies(
      &built->db, &built->store, built->ids.protein, built->ids.dna, config);
  ASSERT_TRUE(stats.ok());

  const storage::Table& alltops =
      *built->db.GetTable(built->pair->alltops_table);
  const storage::Table& lefttops =
      *built->db.GetTable(built->pair->lefttops_table);
  std::set<core::Tid> pruned(built->pair->pruned_tids.begin(),
                             built->pair->pruned_tids.end());
  size_t pruned_rows = 0;
  for (size_t i = 0; i < alltops.num_rows(); ++i) {
    if (pruned.count(alltops.GetInt64(i, 2)) > 0) ++pruned_rows;
  }
  EXPECT_EQ(lefttops.num_rows() + pruned_rows, alltops.num_rows());
}

TEST(PrunerTest, OnlyPathTopologiesArePruned) {
  auto built = BuildSmall(43);
  core::PruneConfig config;
  config.frequency_threshold = 0;
  ASSERT_TRUE(core::PruneFrequentTopologies(&built->db, &built->store,
                                            built->ids.protein,
                                            built->ids.dna, config)
                  .ok());
  for (core::Tid tid : built->pair->pruned_tids) {
    EXPECT_TRUE(built->store.catalog().Get(tid).is_path);
  }
  EXPECT_GT(built->pair->pruned_tids.size(), 0u);
}

TEST(PrunerTest, ExceptionRowsReferencePrunedTids) {
  auto built = BuildSmall(47);
  core::PruneConfig config;
  config.frequency_threshold = 0;
  ASSERT_TRUE(core::PruneFrequentTopologies(&built->db, &built->store,
                                            built->ids.protein,
                                            built->ids.dna, config)
                  .ok());
  std::set<core::Tid> pruned(built->pair->pruned_tids.begin(),
                             built->pair->pruned_tids.end());
  const storage::Table& excp =
      *built->db.GetTable(built->pair->excptops_table);
  for (size_t i = 0; i < excp.num_rows(); ++i) {
    EXPECT_TRUE(pruned.count(excp.GetInt64(i, 2)) > 0);
  }
}

// --- Scoring ---------------------------------------------------------------------

TEST(ScorerTest, FreqAndRareAreInverseOrderings) {
  auto built = BuildSmall(53);
  core::ScoreModel model(&built->store.catalog(),
                         biozon::MakeBiozonDomainKnowledge(built->ids));
  auto by_freq =
      model.RankedTids(core::RankScheme::kFreq, *built->pair);
  auto by_rare =
      model.RankedTids(core::RankScheme::kRare, *built->pair);
  ASSERT_GT(by_freq.size(), 2u);
  // The most frequent topology scores lowest under Rare.
  core::Tid most_frequent = by_freq.front().first;
  double rare_score_of_most_frequent = 0;
  for (const auto& [tid, score] : by_rare) {
    if (tid == most_frequent) rare_score_of_most_frequent = score;
  }
  EXPECT_LE(rare_score_of_most_frequent, by_rare.front().second);
}

TEST(ScorerTest, RankedTidsSortedDescendingWithTidTieBreak) {
  auto built = BuildSmall(59);
  core::ScoreModel model(&built->store.catalog(),
                         biozon::MakeBiozonDomainKnowledge(built->ids));
  for (core::RankScheme scheme :
       {core::RankScheme::kFreq, core::RankScheme::kRare,
        core::RankScheme::kDomain}) {
    auto ranked = model.RankedTids(scheme, *built->pair);
    for (size_t i = 1; i < ranked.size(); ++i) {
      bool ok = ranked[i - 1].second > ranked[i].second ||
                (ranked[i - 1].second == ranked[i].second &&
                 ranked[i - 1].first < ranked[i].first);
      EXPECT_TRUE(ok) << "at " << i;
    }
  }
}

TEST(ScorerTest, DomainRewardsInteractionsAndPenalizesWeakMotifs) {
  // Construct the Figure-16 topology (two proteins encoded by one DNA,
  // interacting through an Interaction node) and a weak P-D-P chain; the
  // domain scorer must prefer the former.
  storage::Catalog db;
  biozon::BiozonSchema ids = biozon::CreateBiozonSchema(&db);
  core::TopologyCatalog catalog;

  graph::LabeledGraph fig16;
  auto d = fig16.AddNode(ids.dna);
  auto p1 = fig16.AddNode(ids.protein);
  auto p2 = fig16.AddNode(ids.protein);
  auto i = fig16.AddNode(ids.interaction);
  fig16.AddEdge(p1, d, ids.encodes);
  fig16.AddEdge(p2, d, ids.encodes);
  fig16.AddEdge(p1, i, ids.interacts_p);
  fig16.AddEdge(p2, i, ids.interacts_p);
  core::Tid fig16_tid = catalog.Intern(fig16, 2);

  graph::LabeledGraph pdp;
  auto a = pdp.AddNode(ids.protein);
  auto b = pdp.AddNode(ids.dna);
  auto c = pdp.AddNode(ids.protein);
  pdp.AddEdge(a, b, ids.encodes);
  pdp.AddEdge(b, c, ids.encodes);
  core::Tid pdp_tid = catalog.Intern(pdp, 1);

  core::ScoreModel model(&catalog, biozon::MakeBiozonDomainKnowledge(ids));
  core::PairTopologyData dummy;
  double fig16_score =
      model.Score(core::RankScheme::kDomain, fig16_tid, dummy);
  double pdp_score = model.Score(core::RankScheme::kDomain, pdp_tid, dummy);
  EXPECT_GT(fig16_score, pdp_score);
  // P-D-P is a weak motif: penalized below the neutral baseline of 1.0.
  EXPECT_LT(pdp_score, 1.0);
}

TEST(ScorerTest, SchemeNamesStable) {
  EXPECT_STREQ(core::RankSchemeToString(core::RankScheme::kFreq), "Freq");
  EXPECT_STREQ(core::RankSchemeToString(core::RankScheme::kRare), "Rare");
  EXPECT_STREQ(core::RankSchemeToString(core::RankScheme::kDomain),
               "Domain");
}

// --- Topology shape classification ----------------------------------------------

TEST(TopologyShapeTest, PathShapes) {
  // Single edge: a path.
  graph::LabeledGraph edge;
  auto a = edge.AddNode(0);
  auto b = edge.AddNode(1);
  edge.AddEdge(a, b, 0);
  EXPECT_TRUE(core::IsPathShaped(edge));

  // Triangle: not a path (cycle).
  graph::LabeledGraph tri = edge;
  auto c = tri.AddNode(2);
  tri.AddEdge(b, c, 0);
  tri.AddEdge(c, a, 0);
  EXPECT_FALSE(core::IsPathShaped(tri));

  // Star with three leaves: not a path (degree-3 hub).
  graph::LabeledGraph star;
  auto hub = star.AddNode(0);
  for (int i = 0; i < 3; ++i) {
    auto leaf = star.AddNode(1);
    star.AddEdge(hub, leaf, 0);
  }
  EXPECT_FALSE(core::IsPathShaped(star));

  // Singleton and empty: not paths.
  graph::LabeledGraph single;
  single.AddNode(0);
  EXPECT_FALSE(core::IsPathShaped(single));
  EXPECT_FALSE(core::IsPathShaped(graph::LabeledGraph()));

  // Disconnected two edges: not a path.
  graph::LabeledGraph two;
  auto p = two.AddNode(0);
  auto q = two.AddNode(1);
  two.AddEdge(p, q, 0);
  auto r = two.AddNode(0);
  auto s = two.AddNode(1);
  two.AddEdge(r, s, 0);
  EXPECT_FALSE(core::IsPathShaped(two));
}

TEST(TopologyShapeTest, ExtractSchemaPathRejectsNonPaths) {
  storage::Catalog db;
  biozon::BiozonSchema ids = biozon::CreateBiozonSchema(&db);
  graph::SchemaGraph schema(db);
  graph::LabeledGraph tri;
  auto p = tri.AddNode(ids.protein);
  auto u = tri.AddNode(ids.unigene);
  auto d = tri.AddNode(ids.dna);
  tri.AddEdge(u, p, ids.uni_encodes);
  tri.AddEdge(u, d, ids.uni_contains);
  tri.AddEdge(p, d, ids.encodes);
  EXPECT_FALSE(core::ExtractSchemaPath(tri, schema).has_value());
}

TEST(TopologyShapeTest, ExtractSchemaPathRejectsInconsistentLabels) {
  storage::Catalog db;
  biozon::BiozonSchema ids = biozon::CreateBiozonSchema(&db);
  graph::SchemaGraph schema(db);
  // 'encodes' connects Protein and DNA, not Protein and Unigene.
  graph::LabeledGraph bad;
  auto p = bad.AddNode(ids.protein);
  auto u = bad.AddNode(ids.unigene);
  bad.AddEdge(p, u, ids.encodes);
  EXPECT_FALSE(core::ExtractSchemaPath(bad, schema).has_value());
}

// --- TopologyCatalog ---------------------------------------------------------------

TEST(TopologyCatalogTest, InternDeduplicatesByCanonicalCode) {
  core::TopologyCatalog catalog;
  graph::LabeledGraph g1 = graph::MakePathGraph({0, 1, 2}, {5, 6});
  graph::LabeledGraph g2 = graph::MakePathGraph({2, 1, 0}, {6, 5});  // Reversed.
  core::Tid t1 = catalog.Intern(g1, 1);
  core::Tid t2 = catalog.Intern(g2, 1);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(catalog.size(), 1u);
}

TEST(TopologyCatalogTest, TidsAreDenseFromOne) {
  core::TopologyCatalog catalog;
  core::Tid t1 = catalog.Intern(graph::MakePathGraph({0, 1}, {0}), 1);
  core::Tid t2 = catalog.Intern(graph::MakePathGraph({0, 2}, {0}), 1);
  EXPECT_EQ(t1, 1);
  EXPECT_EQ(t2, 2);
  EXPECT_EQ(catalog.Get(t1).tid, t1);
}

TEST(TopologyCatalogTest, ClassKeysMergeAcrossObservations) {
  core::TopologyCatalog catalog;
  graph::Canonical c = graph::Canonicalize(graph::MakePathGraph({0, 1}, {0}));
  core::Tid tid = catalog.InternWithCode(c.form, c.code, 1, {"keyA"});
  catalog.InternWithCode(c.form, c.code, 1, {"keyB", "keyA"});
  const core::TopologyInfo& info = catalog.Get(tid);
  ASSERT_EQ(info.class_keys.size(), 2u);
  EXPECT_EQ(info.class_keys[0], "keyA");
  EXPECT_EQ(info.class_keys[1], "keyB");
  // num_classes keeps the first observation.
  EXPECT_EQ(info.num_classes, 1u);
}

TEST(TopologyCatalogTest, ConcurrentInternAssignsConsistentTids) {
  // N threads intern the same graph universe in rotated orders while also
  // reading published entries; every thread must observe the same
  // code->TID mapping (this is the TSan target for catalog interning).
  const size_t kThreads = 8;
  const size_t kGraphs = 64;
  std::vector<graph::LabeledGraph> graphs;
  std::vector<std::string> codes;
  for (size_t i = 0; i < kGraphs; ++i) {
    graph::Canonical c = graph::Canonicalize(graph::MakePathGraph(
        {static_cast<uint32_t>(i % 7), static_cast<uint32_t>(i % 5) + 7,
         static_cast<uint32_t>(i % 3) + 13},
        {static_cast<uint32_t>(i % 4), static_cast<uint32_t>(i % 6)}));
    graphs.push_back(std::move(c.form));
    codes.push_back(std::move(c.code));
  }
  size_t distinct = std::set<std::string>(codes.begin(), codes.end()).size();

  core::TopologyCatalog catalog;
  std::vector<std::vector<core::Tid>> seen(kThreads,
                                           std::vector<core::Tid>(kGraphs));
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t]() {
      for (size_t i = 0; i < kGraphs; ++i) {
        size_t g = (i + t * 11) % kGraphs;  // Rotated interleaving.
        core::Tid tid = catalog.InternWithCode(
            graphs[g], codes[g], 1, {"key" + std::to_string(t % 3)});
        seen[t][g] = tid;
        // Concurrent reads of published entries.
        EXPECT_EQ(catalog.Get(tid).code, codes[g]);
        EXPECT_FALSE(catalog.ClassKeysOf(tid).empty());
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  EXPECT_EQ(catalog.size(), distinct);
  for (size_t g = 0; g < kGraphs; ++g) {
    auto found = catalog.FindByCode(codes[g]);
    ASSERT_TRUE(found.has_value());
    for (size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(seen[t][g], *found) << "thread " << t << " graph " << g;
    }
  }
  // Every thread's key tag got merged exactly once.
  for (core::Tid tid = 1; tid <= static_cast<core::Tid>(catalog.size());
       ++tid) {
    std::vector<std::string> keys = catalog.ClassKeysOf(tid);
    std::set<std::string> unique(keys.begin(), keys.end());
    EXPECT_EQ(unique.size(), keys.size()) << "TID " << tid;
  }
}

TEST(TopologyCatalogTest, FindByCodeRoundTrips) {
  core::TopologyCatalog catalog;
  graph::LabeledGraph g = graph::MakePathGraph({3, 4, 5}, {1, 2});
  core::Tid tid = catalog.Intern(g, 1);
  auto found = catalog.FindByCode(graph::CanonicalCode(g));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, tid);
  EXPECT_FALSE(catalog.FindByCode("nonsense").has_value());
}

}  // namespace
}  // namespace tsb
