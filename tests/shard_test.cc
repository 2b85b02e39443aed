// The sharded topology store (src/shard/): hash partitioning, the shard
// router, scatter-gather ranked execution, and the service integration —
// including the tentpole contract that sharded execution returns
// byte-identical ranked results to the single-store engine for every
// method at N ∈ {1, 2, 4, 7} shards, and that a sharded rebuild rolls
// shards behind live traffic with zero failed queries.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "biozon/domain.h"
#include "biozon/fig3.h"
#include "biozon/generator.h"
#include "core/builder.h"
#include "core/pruner.h"
#include "engine/engine.h"
#include "engine/nquery.h"
#include "engine/result_io.h"
#include "replica/health.h"
#include "replica/replica_set.h"
#include "service/service.h"
#include "service_test_util.h"
#include "shard/replica_loopback.h"
#include "shard/router.h"
#include "shard/scatter_gather.h"
#include "shard/sharded_store.h"
#include "wire/codec.h"
#include "wire/message.h"

namespace tsb {
namespace {

using engine::MethodKind;
using engine::ResultEntry;
using service_test::Serve;

const std::vector<MethodKind> kAllMethods = {
    MethodKind::kSql,         MethodKind::kFullTop,
    MethodKind::kFastTop,     MethodKind::kFullTopK,
    MethodKind::kFastTopK,    MethodKind::kFullTopKEt,
    MethodKind::kFastTopKEt,  MethodKind::kFullTopKOpt,
    MethodKind::kFastTopKOpt,
};

const std::vector<core::RankScheme> kAllSchemes = {
    core::RankScheme::kFreq, core::RankScheme::kRare,
    core::RankScheme::kDomain};

// ---------------------------------------------------------------------------
// Partitioning function
// ---------------------------------------------------------------------------

TEST(ShardOfEntityPairTest, OrientationInsensitiveAndStable) {
  EXPECT_EQ(core::ShardOfEntityPair(32, 214, 4),
            core::ShardOfEntityPair(214, 32, 4));
  EXPECT_EQ(core::ShardOfEntityPair(7, 7, 5), core::ShardOfEntityPair(7, 7, 5));
  // Single shard owns everything.
  for (int64_t e = 0; e < 50; ++e) {
    EXPECT_EQ(core::ShardOfEntityPair(e, e + 1, 1), 0u);
  }
  // Deterministic across calls, and within range.
  for (size_t n : {2u, 4u, 7u}) {
    for (int64_t e = 0; e < 100; ++e) {
      size_t owner = core::ShardOfEntityPair(e, 1000 - e, n);
      EXPECT_LT(owner, n);
      EXPECT_EQ(owner, core::ShardOfEntityPair(e, 1000 - e, n));
    }
  }
}

TEST(ShardOfEntityPairTest, SpreadsAcrossShards) {
  // 500 distinct pairs over 7 shards must touch every shard.
  std::set<size_t> touched;
  for (int64_t e = 0; e < 500; ++e) {
    touched.insert(core::ShardOfEntityPair(e, e * 31 + 7, 7));
  }
  EXPECT_EQ(touched.size(), 7u);
}

// ---------------------------------------------------------------------------
// MergeRankedPartials
// ---------------------------------------------------------------------------

TEST(MergeRankedPartialsTest, InterleavesByScoreThenTid) {
  std::vector<std::vector<ResultEntry>> partials = {
      {{1, 9.0}, {4, 5.0}, {6, 1.0}},
      {{2, 8.0}, {3, 5.0}, {5, 5.0}},
  };
  std::vector<ResultEntry> merged =
      shard::MergeRankedPartials(partials, SIZE_MAX);
  std::vector<ResultEntry> expected = {{1, 9.0}, {2, 8.0}, {3, 5.0},
                                       {4, 5.0}, {5, 5.0}, {6, 1.0}};
  EXPECT_EQ(merged, expected);
}

TEST(MergeRankedPartialsTest, CollapsesDuplicates) {
  // The same topology witnessed on three shards appears once.
  std::vector<std::vector<ResultEntry>> partials = {
      {{1, 4.0}, {2, 2.0}},
      {{1, 4.0}, {3, 3.0}},
      {{1, 4.0}, {2, 2.0}},
  };
  std::vector<ResultEntry> merged =
      shard::MergeRankedPartials(partials, SIZE_MAX);
  std::vector<ResultEntry> expected = {{1, 4.0}, {3, 3.0}, {2, 2.0}};
  EXPECT_EQ(merged, expected);
}

TEST(MergeRankedPartialsTest, HonorsLimitAfterDedup) {
  std::vector<std::vector<ResultEntry>> partials = {
      {{1, 4.0}, {2, 3.0}, {3, 2.0}},
      {{1, 4.0}, {4, 1.0}},
  };
  std::vector<ResultEntry> merged = shard::MergeRankedPartials(partials, 2);
  std::vector<ResultEntry> expected = {{1, 4.0}, {2, 3.0}};
  EXPECT_EQ(merged, expected);
}

TEST(MergeRankedPartialsTest, EmptyPartialsYieldEmpty) {
  EXPECT_TRUE(shard::MergeRankedPartials({}, 10).empty());
  EXPECT_TRUE(shard::MergeRankedPartials({{}, {}}, 10).empty());
}

// ---------------------------------------------------------------------------
// Staging split
// ---------------------------------------------------------------------------

class ShardFig3Test : public ::testing::Test {
 protected:
  void SetUp() override {
    ids_ = biozon::BuildFigure3Database(&db_);
    view_ = std::make_unique<graph::DataGraphView>(db_);
    schema_ = std::make_unique<graph::SchemaGraph>(db_);

    // Unsharded ground truth: all pairs, all pruned (threshold 0), so the
    // Fast methods work everywhere.
    core::TopologyBuilder builder(&db_, schema_.get(), view_.get());
    ASSERT_TRUE(builder.BuildAllPairs(BuildCfg(), &store_).ok());
    PruneAll(&store_);
    engine_ = std::make_unique<engine::Engine>(
        &db_, &store_, schema_.get(), view_.get(),
        core::ScoreModel(&store_.catalog(),
                         biozon::MakeBiozonDomainKnowledge(ids_)));
  }

  static core::BuildConfig BuildCfg(std::string table_namespace = "") {
    core::BuildConfig config;
    config.max_path_length = 3;
    config.table_namespace = std::move(table_namespace);
    return config;
  }

  void PruneAll(core::TopologyStore* store) {
    core::PruneConfig prune;
    prune.frequency_threshold = 0;
    std::vector<std::pair<storage::EntityTypeId, storage::EntityTypeId>> keys;
    for (const auto& [key, pair] : store->pairs()) keys.push_back(key);
    for (const auto& [t1, t2] : keys) {
      ASSERT_TRUE(
          core::PruneFrequentTopologies(&db_, store, t1, t2, prune).ok());
    }
  }

  /// A sharded replica of the ground-truth store under its own namespace
  /// ("n<N>."), pruned identically.
  std::unique_ptr<shard::ScatterGatherExecutor> MakeSharded(size_t n) {
    auto sharded = std::make_shared<shard::ShardedTopologyStore>(n);
    core::TopologyBuilder builder(&db_, schema_.get(), view_.get());
    core::BuildConfig config = BuildCfg("n" + std::to_string(n) + ".");
    EXPECT_TRUE(sharded->Build(&builder, config).ok());
    for (size_t i = 0; i < n; ++i) {
      PruneAll(sharded->Snapshot(i).get());
    }
    return std::make_unique<shard::ScatterGatherExecutor>(
        &db_, sharded, schema_.get(), view_.get(),
        biozon::MakeBiozonDomainKnowledge(ids_));
  }

  engine::TopologyQuery Query(const std::string& set1,
                              const std::string& set2,
                              core::RankScheme scheme, size_t k = 10,
                              bool with_predicates = false) const {
    engine::TopologyQuery q;
    q.entity_set1 = set1;
    q.entity_set2 = set2;
    if (with_predicates) {
      q.pred1 = storage::MakeContainsKeyword(db_.GetTable(set1)->schema(),
                                             "DESC", "enzyme");
      q.pred2 = storage::MakeEquals(db_.GetTable(set2)->schema(), "TYPE",
                                    storage::Value("mRNA"));
    }
    q.scheme = scheme;
    q.k = k;
    return q;
  }

  storage::Catalog db_;
  biozon::BiozonSchema ids_;
  std::unique_ptr<graph::DataGraphView> view_;
  std::unique_ptr<graph::SchemaGraph> schema_;
  core::TopologyStore store_;
  std::unique_ptr<engine::Engine> engine_;
};

TEST_F(ShardFig3Test, SplitStagingPartitionsRowsAndReplicatesMetadata) {
  core::TopologyBuilder builder(&db_, schema_.get(), view_.get());
  auto staged = builder.StagePair(ids_.protein, ids_.dna, BuildCfg("x."));
  ASSERT_TRUE(staged.ok());

  const size_t n = 4;
  std::vector<core::PairBuildStaging> slices =
      core::SplitStagingForShards(*staged, n);
  ASSERT_EQ(slices.size(), n);

  size_t total_rows = 0;
  for (size_t i = 0; i < n; ++i) {
    const core::PairBuildStaging& slice = slices[i];
    // Tables re-namespaced per shard, inside the base namespace.
    EXPECT_EQ(slice.data.table_namespace, "x.s" + std::to_string(i) + ".");
    EXPECT_EQ(slice.data.alltops_table,
              slice.data.table_namespace + "AllTops_" +
                  staged->data.pair_name);
    // Rows on their owning shard only.
    for (const core::PairBuildStaging::Row& row : slice.alltops_rows) {
      EXPECT_EQ(core::ShardOfEntityPair(row.e1, row.e2, n), i);
    }
    total_rows += slice.alltops_rows.size();
    // Replicated: topology list (with global frequencies), class registry,
    // exception bookkeeping.
    ASSERT_EQ(slice.topologies.size(), staged->topologies.size());
    for (size_t t = 0; t < slice.topologies.size(); ++t) {
      EXPECT_EQ(slice.topologies[t].code, staged->topologies[t].code);
      EXPECT_EQ(slice.topologies[t].frequency,
                staged->topologies[t].frequency);
    }
    EXPECT_EQ(slice.data.classes.size(), staged->data.classes.size());
    EXPECT_EQ(slice.data.num_related_pairs, staged->data.num_related_pairs);
    EXPECT_EQ(slice.pairclasses_rows.size(),
              staged->pairclasses_rows.size());
  }
  EXPECT_EQ(total_rows, staged->alltops_rows.size());
}

TEST_F(ShardFig3Test, ShardedBuildReplicatesCatalogAndPartitionsTables) {
  for (size_t n : {1u, 2u, 4u, 7u}) {
    auto executor = MakeSharded(n);
    const shard::ShardedTopologyStore& sharded = executor->store();

    size_t rows_across_shards = 0;
    for (size_t i = 0; i < n; ++i) {
      std::shared_ptr<core::TopologyStore> snapshot = sharded.Snapshot(i);
      // Catalog replica: identical to the unsharded build's catalog.
      ASSERT_EQ(snapshot->catalog().size(), store_.catalog().size());
      for (core::Tid tid = 1;
           tid <= static_cast<core::Tid>(store_.catalog().size()); ++tid) {
        EXPECT_EQ(snapshot->catalog().Get(tid).code,
                  store_.catalog().Get(tid).code);
      }
      // Every pair registered on every shard, with global freq maps.
      ASSERT_EQ(snapshot->pairs().size(), store_.pairs().size());
      for (const auto& [key, pair] : store_.pairs()) {
        const core::PairTopologyData* replica =
            snapshot->FindPair(key.first, key.second);
        ASSERT_NE(replica, nullptr);
        EXPECT_EQ(replica->freq, pair.freq);
        EXPECT_EQ(replica->pruned_tids, pair.pruned_tids);
        rows_across_shards +=
            db_.GetTable(replica->alltops_table)->num_rows();
        // Rows hash to this shard.
        const storage::Table& alltops =
            *db_.GetTable(replica->alltops_table);
        for (size_t r = 0; r < alltops.num_rows(); ++r) {
          EXPECT_EQ(
              core::ShardOfEntityPair(alltops.GetInt64(r, 0),
                                      alltops.GetInt64(r, 1), n),
              i);
        }
      }
    }
    // The slices are a partition: row counts add up to the whole store.
    size_t unsharded_rows = 0;
    for (const auto& [key, pair] : store_.pairs()) {
      unsharded_rows += db_.GetTable(pair.alltops_table)->num_rows();
    }
    EXPECT_EQ(rows_across_shards, unsharded_rows) << n << " shards";
  }
}

// ---------------------------------------------------------------------------
// The tentpole: sharded == unsharded, every method × N ∈ {1, 2, 4, 7}
// ---------------------------------------------------------------------------

TEST_F(ShardFig3Test, EveryMethodByteIdenticalAcrossShardCounts) {
  struct Case {
    engine::TopologyQuery query;
    const char* label;
  };
  std::vector<Case> cases;
  for (core::RankScheme scheme : kAllSchemes) {
    cases.push_back({Query("Protein", "DNA", scheme, 10, true),
                     "Protein/DNA predicated"});
    cases.push_back({Query("Protein", "DNA", scheme, 2, true),
                     "Protein/DNA k=2"});
    cases.push_back(
        {Query("Protein", "Unigene", scheme, 10), "Protein/Unigene"});
    cases.push_back({Query("DNA", "Unigene", scheme, 1), "DNA/Unigene k=1"});
  }
  {
    engine::TopologyQuery weak = Query("Protein", "DNA",
                                       core::RankScheme::kDomain, 10, true);
    weak.exclude_weak = true;
    cases.push_back({weak, "Protein/DNA exclude_weak"});
  }

  for (size_t n : {1u, 2u, 4u, 7u}) {
    auto executor = MakeSharded(n);
    for (const Case& c : cases) {
      for (MethodKind method : kAllMethods) {
        auto expected = engine_->Execute(c.query, method);
        auto actual = executor->Execute(c.query, method);
        ASSERT_EQ(expected.ok(), actual.ok())
            << c.label << " " << engine::MethodKindToString(method)
            << " @" << n << " shards: " << expected.status().ToString()
            << " vs " << actual.status().ToString();
        if (!expected.ok()) continue;
        EXPECT_EQ(expected->entries, actual->entries)
            << c.label << " " << engine::MethodKindToString(method) << " @"
            << n << " shards";
      }
    }
  }
}

TEST_F(ShardFig3Test, ReversedOrientationMatchesToo) {
  // The merge must stay byte-identical when the query names the pair in
  // non-storage order (rq.swapped paths).
  auto executor = MakeSharded(4);
  for (MethodKind method : kAllMethods) {
    engine::TopologyQuery q = Query("DNA", "Protein",
                                    core::RankScheme::kFreq, 10);
    auto expected = engine_->Execute(q, method);
    auto actual = executor->Execute(q, method);
    ASSERT_TRUE(expected.ok() && actual.ok());
    EXPECT_EQ(expected->entries, actual->entries)
        << engine::MethodKindToString(method);
  }
}

TEST_F(ShardFig3Test, UnknownEntitySetSurfacesNotFound) {
  auto executor = MakeSharded(2);
  auto result = executor->Execute(
      Query("Protein", "Nope", core::RankScheme::kFreq),
      MethodKind::kFullTop);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(ShardFig3Test, TripleQueriesMatchSingleStore) {
  engine::TripleQuery triple;
  triple.entity_set1 = "Protein";
  triple.entity_set2 = "Unigene";
  triple.entity_set3 = "DNA";

  auto expected = engine::ExecuteTripleQuery(&db_, &store_, *schema_, *view_,
                                             triple);
  ASSERT_TRUE(expected.ok());
  ASSERT_FALSE(expected->entries.empty());

  for (size_t n : {1u, 2u, 4u, 7u}) {
    auto executor = MakeSharded(n);
    auto actual = executor->ExecuteTriple(triple);
    ASSERT_TRUE(actual.ok()) << n << " shards";
    ASSERT_EQ(actual->entries.size(), expected->entries.size());
    for (size_t i = 0; i < expected->entries.size(); ++i) {
      EXPECT_EQ(actual->entries[i].tid, expected->entries[i].tid);
      EXPECT_EQ(actual->entries[i].frequency,
                expected->entries[i].frequency);
    }
    EXPECT_EQ(actual->triples_examined, expected->triples_examined);
  }
}

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

class ShardRouterTest : public ::testing::Test {
 protected:
  /// A hand-built shard set for one pair (types 0, 1): shard i holds
  /// `rows_per_shard[i]` AllTops rows.
  void BuildShards(const std::vector<size_t>& rows_per_shard) {
    storage::TableSchema row_schema(
        {{"E1", storage::ColumnType::kInt64},
         {"E2", storage::ColumnType::kInt64},
         {"TID", storage::ColumnType::kInt64}});
    int64_t next_entity = 0;
    for (size_t i = 0; i < rows_per_shard.size(); ++i) {
      auto store = std::make_shared<core::TopologyStore>();
      core::PairTopologyData data;
      data.t1 = 0;
      data.t2 = 1;
      data.pair_name = "T";
      data.alltops_table = "rt.s" + std::to_string(i) + ".AllTops_T";
      data.pairclasses_table = "rt.s" + std::to_string(i) + ".PairClasses_T";
      auto table = db_.CreateTable(data.alltops_table, row_schema);
      ASSERT_TRUE(table.ok());
      for (size_t r = 0; r < rows_per_shard[i]; ++r) {
        table.value()->AppendRowOrDie({storage::Value(next_entity++),
                                       storage::Value(next_entity++),
                                       storage::Value(int64_t{1})});
      }
      ASSERT_TRUE(store->AddPair(std::move(data)).ok());
      snapshots_.push_back(std::move(store));
    }
  }

  storage::Catalog db_;
  std::vector<std::shared_ptr<core::TopologyStore>> snapshots_;
  shard::ShardRouter router_;
};

TEST_F(ShardRouterTest, SkipsEmptyShards) {
  BuildShards({3, 0, 2, 0});
  shard::ShardRoute route =
      router_.Route(db_, snapshots_, 0, 1, MethodKind::kFullTop);
  EXPECT_EQ(route.shards, (std::vector<size_t>{0, 2}));
  EXPECT_EQ(route.designated, 0u);
  EXPECT_FALSE(route.single_shard());
}

TEST_F(ShardRouterTest, AllRowsOnOneShardDegeneratesToSingleShard) {
  BuildShards({0, 0, 5, 0});
  shard::ShardRoute route =
      router_.Route(db_, snapshots_, 0, 1, MethodKind::kFastTopK);
  EXPECT_EQ(route.shards, (std::vector<size_t>{2}));
  EXPECT_EQ(route.designated, 2u);
  EXPECT_TRUE(route.single_shard());
}

TEST_F(ShardRouterTest, NoRowsAnywhereRoutesToShardZero) {
  BuildShards({0, 0, 0});
  shard::ShardRoute route =
      router_.Route(db_, snapshots_, 0, 1, MethodKind::kFullTop);
  EXPECT_EQ(route.shards, (std::vector<size_t>{0}));
  EXPECT_TRUE(route.single_shard());
}

TEST_F(ShardRouterTest, SqlBaselineNeverScatters) {
  BuildShards({3, 4, 5});
  shard::ShardRoute route =
      router_.Route(db_, snapshots_, 0, 1, MethodKind::kSql);
  EXPECT_EQ(route.shards, (std::vector<size_t>{0}));
  EXPECT_TRUE(route.single_shard());
}

// ---------------------------------------------------------------------------
// Sharded service: cache, rebuild behind live traffic, async batches
// ---------------------------------------------------------------------------

class ShardedServiceTest : public ShardFig3Test {
 protected:
  void SetUp() override {
    ShardFig3Test::SetUp();
    executor_ = MakeSharded(4);
  }

  service::ServiceConfig SvcConfig(size_t threads = 4) const {
    service::ServiceConfig config;
    config.num_threads = threads;
    return config;
  }

  std::unique_ptr<shard::ScatterGatherExecutor> executor_;
};

TEST_F(ShardedServiceTest, ServesIdenticalResultsAndCaches) {
  service::TopologyService svc(executor_.get(), &db_, SvcConfig());
  engine::TopologyQuery q =
      Query("Protein", "DNA", core::RankScheme::kFreq, 10, true);

  auto expected = engine_->Execute(q, MethodKind::kFastTopKEt);
  ASSERT_TRUE(expected.ok());

  auto cold = Serve(svc, q, MethodKind::kFastTopKEt);
  ASSERT_TRUE(cold.error.ok());
  EXPECT_FALSE(cold.from_cache);
  EXPECT_EQ(cold.result.entries, expected->entries);

  auto warm = Serve(svc, q, MethodKind::kFastTopKEt);
  ASSERT_TRUE(warm.error.ok());
  EXPECT_TRUE(warm.from_cache);
  EXPECT_EQ(warm.result.entries, expected->entries);
}

TEST_F(ShardedServiceTest, RebuildRollsShardsAndInvalidatesCache) {
  service::TopologyService svc(executor_.get(), &db_, SvcConfig());
  engine::TopologyQuery q =
      Query("Protein", "DNA", core::RankScheme::kDomain, 10, true);
  auto before = Serve(svc, q, MethodKind::kFullTopK);
  ASSERT_TRUE(before.error.ok());
  ASSERT_TRUE(Serve(svc, q, MethodKind::kFullTopK).from_cache);

  const std::string stamp_before = executor_->store().EpochStamp();
  service::RebuildOptions rebuild;
  rebuild.build = BuildCfg();  // Namespace overridden with "e<N>."
  rebuild.prune_threshold = 0;
  auto stats = svc.Rebuild(rebuild);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->shards_swapped, 4u);
  EXPECT_EQ(stats->pairs_built, store_.pairs().size());
  EXPECT_NE(executor_->store().EpochStamp(), stamp_before);

  // Same data, new epoch: identical results, served cold (the shard-aware
  // fingerprint changed), then cached again.
  auto after = Serve(svc, q, MethodKind::kFullTopK);
  ASSERT_TRUE(after.error.ok());
  EXPECT_FALSE(after.from_cache);
  EXPECT_EQ(after.result.entries, before.result.entries);
  EXPECT_TRUE(Serve(svc, q, MethodKind::kFullTopK).from_cache);
}

TEST_F(ShardedServiceTest, DefaultTransportIsOneReplicaSetFollowingRebuilds) {
  ASSERT_EQ(executor_->transport(), &executor_->default_transport());
  service::TopologyService svc(executor_.get(), &db_, SvcConfig());
  service::RebuildOptions rebuild;
  rebuild.build = BuildCfg();
  rebuild.prune_threshold = 0;
  auto stats = svc.Rebuild(rebuild);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->shards_swapped, 4u);

  const engine::TopologyQuery q =
      Query("Protein", "DNA", core::RankScheme::kFreq);
  for (MethodKind method : kAllMethods) {
    auto expected = engine_->Execute(q, method);
    auto actual = Serve(svc, q, method);
    ASSERT_EQ(expected.ok(), actual.error.ok())
        << engine::MethodKindToString(method);
    if (!expected.ok()) continue;
    EXPECT_EQ(actual.result.entries, expected->entries)
        << engine::MethodKindToString(method);
    EXPECT_FALSE(actual.result.partial);
  }

  // One replica per shard, healthy throughout: its stamps carry the
  // swapped epoch, so it is never quarantined as stale.
  replica::ReplicaSetTransport& transport = executor_->default_transport();
  const obs::MetricsRead rows = executor_->transport_metrics()->Read();
  const service::ReplicaMetricsSnapshot replicas =
      transport.replica_metrics().Snapshot();
  size_t scattered = 0;
  for (size_t s = 0; s < 4; ++s) {
    ASSERT_EQ(transport.num_replicas(s), 1u);
    EXPECT_EQ(transport.health().state(s, 0),
              replica::ReplicaHealth::kHealthy)
        << s;
    const service::ReplicaSnapshot& r0 = replicas.shards[s].replicas[0];
    EXPECT_EQ(r0.quarantines, 0u) << s;
    const std::string shard = std::to_string(s);
    EXPECT_EQ(rows.Count("tsb_transport_requests_total", {shard}),
              r0.attempts)
        << s;
    if (r0.attempts == 0) continue;
    ++scattered;
    EXPECT_GT(rows.Count("tsb_transport_bytes_sent_total", {shard}), 0u) << s;
    EXPECT_GT(rows.Count("tsb_transport_bytes_received_total", {shard}), 0u)
        << s;
    EXPECT_EQ(rows.Count("tsb_transport_failures_total", {shard}), 0u) << s;
    EXPECT_EQ(transport.health().shard_epoch(s),
              executor_->store().handle(s)->epoch())
        << s;
  }
  EXPECT_GT(scattered, 0u) << "fixture must scatter for this test to bite";

  std::vector<const engine::Engine*> engines;
  for (size_t s = 0; s < 4; ++s) {
    engines.push_back(&executor_->shard_engine(s));
  }
  replica::ReplicaSetTransport other(
      shard::MakeLoopbackReplicaGrid(&db_, &executor_->store(), engines, 1)
          .channels);
  executor_->set_transport(&other);
  EXPECT_EQ(executor_->transport(), &other);
  executor_->set_transport(nullptr);
  EXPECT_EQ(executor_->transport(), &executor_->default_transport());
  svc.Shutdown();
}

TEST_F(ShardedServiceTest, RebuildBehindLiveTrafficLosesNoQueries) {
  service::TopologyService svc(executor_.get(), &db_, SvcConfig(4));

  std::vector<engine::TopologyQuery> queries = {
      Query("Protein", "DNA", core::RankScheme::kFreq, 10, true),
      Query("Protein", "Unigene", core::RankScheme::kRare, 10),
      Query("DNA", "Unigene", core::RankScheme::kDomain, 5),
  };
  const std::vector<MethodKind> methods = {
      MethodKind::kFullTop, MethodKind::kFastTopK, MethodKind::kFullTopKEt};
  std::vector<std::vector<ResultEntry>> expected;
  for (const engine::TopologyQuery& q : queries) {
    for (MethodKind m : methods) {
      auto r = engine_->Execute(q, m);
      ASSERT_TRUE(r.ok());
      expected.push_back(r->entries);
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<size_t> failures{0};
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> served{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&]() {
      while (!stop.load(std::memory_order_acquire)) {
        size_t index = 0;
        for (const engine::TopologyQuery& q : queries) {
          for (MethodKind m : methods) {
            auto response = Serve(svc, q, m);
            if (!response.error.ok()) {
              ++failures;
            } else if (response.result.entries != expected[index]) {
              ++mismatches;
            }
            ++served;
            ++index;
          }
        }
      }
    });
  }

  // Two back-to-back rebuilds while the clients hammer.
  service::RebuildOptions rebuild;
  rebuild.build = BuildCfg();
  rebuild.prune_threshold = 0;
  for (int round = 0; round < 2; ++round) {
    auto stats = svc.Rebuild(rebuild);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->shards_swapped, 4u);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(served.load(), 0u);
}

TEST_F(ShardedServiceTest, TripleQueriesFlowThroughShardSet) {
  service::TopologyService svc(executor_.get(), &db_, SvcConfig());
  engine::TripleQuery triple;
  triple.entity_set1 = "Protein";
  triple.entity_set2 = "Unigene";
  triple.entity_set3 = "DNA";
  auto expected = engine::ExecuteTripleQuery(&db_, &store_, *schema_, *view_,
                                             triple);
  ASSERT_TRUE(expected.ok());

  auto response = svc.SubmitTriple(triple).get();
  ASSERT_TRUE(response.result.ok());
  ASSERT_EQ(response.result->entries.size(), expected->entries.size());
  for (size_t i = 0; i < expected->entries.size(); ++i) {
    EXPECT_EQ(response.result->entries[i].tid, expected->entries[i].tid);
    EXPECT_EQ(response.result->entries[i].frequency,
              expected->entries[i].frequency);
  }
}

/// The response frame payload `svc` sends for `request`, encoded, with the
/// clock readings (wall seconds, thread CPU) zeroed: they are the only
/// bytes two equivalent services may disagree on.
std::string ServedBytes(service::TopologyService* svc,
                        const wire::WireRequest& request) {
  wire::CollectingSink sink;
  svc->Submit(request, sink);
  sink.WaitForFrames(1);
  wire::WireResponse response = sink.Frames()[0].response;
  response.service_seconds = 0.0;
  response.result.stats.seconds = 0.0;
  response.result.stats.cpu_ns = 0;
  std::string bytes;
  wire::EncodeQueryResponse(response, &bytes);
  return bytes;
}

TEST_F(ShardFig3Test, EngineServiceSendsTheBytesOfAOneShardExecutorService) {
  // The Engine* constructor wraps the caller's engine in a one-shard
  // executor; a service over an explicitly built one-shard executor must
  // send the very same bytes: entries, plan text, counters, cache flags.
  auto executor = MakeSharded(1);
  service::TopologyService single(engine_.get(), &db_,
                                  service::ServiceConfig{});
  service::TopologyService fleet(executor.get(), &db_,
                                 service::ServiceConfig{});
  uint64_t id = 1;
  for (const char* pass : {"cold", "cached"}) {
    for (MethodKind method : kAllMethods) {
      wire::WireRequest request;
      request.id = id++;
      request.query =
          Query("Protein", "DNA", core::RankScheme::kDomain, 10, true);
      request.method = method;
      EXPECT_EQ(ServedBytes(&single, request), ServedBytes(&fleet, request))
          << engine::MethodKindToString(method) << " " << pass;
    }
  }

  engine::TripleQuery triple;
  triple.entity_set1 = "Protein";
  triple.entity_set2 = "Unigene";
  triple.entity_set3 = "DNA";
  for (const char* pass : {"cold", "cached"}) {
    service::TripleResponse a = single.SubmitTriple(triple).get();
    service::TripleResponse b = fleet.SubmitTriple(triple).get();
    ASSERT_TRUE(a.result.ok()) << a.result.status();
    ASSERT_TRUE(b.result.ok()) << b.result.status();
    EXPECT_EQ(a.from_cache, b.from_cache) << pass;
    std::string a_bytes;
    std::string b_bytes;
    engine::EncodeTripleQueryResult(*a.result, &a_bytes);
    engine::EncodeTripleQueryResult(*b.result, &b_bytes);
    EXPECT_EQ(a_bytes, b_bytes) << pass;
  }
  EXPECT_EQ(single.CacheStats().bytes, fleet.CacheStats().bytes);
}

// ---------------------------------------------------------------------------
// Generator-backed equivalence (non-trivial row distribution)
// ---------------------------------------------------------------------------

TEST(ShardGeneratorTest, ShardedMatchesUnshardedOnSyntheticBiozon) {
  storage::Catalog db;
  biozon::GeneratorConfig gen;
  gen.scale = 0.05;
  biozon::BiozonSchema ids = biozon::GenerateBiozon(gen, &db);
  graph::DataGraphView view(db);
  graph::SchemaGraph schema(db);

  core::BuildConfig config;
  config.max_path_length = 2;
  config.max_class_representatives = 8;
  config.max_union_combinations = 256;

  core::TopologyStore store;
  core::TopologyBuilder builder(&db, &schema, &view);
  ASSERT_TRUE(builder.BuildAllPairs(config, &store).ok());
  core::PruneConfig prune;
  prune.frequency_threshold = 4;
  std::vector<std::pair<storage::EntityTypeId, storage::EntityTypeId>> keys;
  for (const auto& [key, pair] : store.pairs()) keys.push_back(key);
  for (const auto& [t1, t2] : keys) {
    ASSERT_TRUE(
        core::PruneFrequentTopologies(&db, &store, t1, t2, prune).ok());
  }
  engine::Engine eng(&db, &store, &schema, &view,
                     core::ScoreModel(&store.catalog(),
                                      biozon::MakeBiozonDomainKnowledge(ids)));

  auto sharded = std::make_shared<shard::ShardedTopologyStore>(3);
  core::BuildConfig sharded_config = config;
  sharded_config.table_namespace = "g.";
  ASSERT_TRUE(sharded->Build(&builder, sharded_config).ok());
  for (size_t i = 0; i < 3; ++i) {
    for (const auto& [key, pair] : store.pairs()) {
      ASSERT_TRUE(core::PruneFrequentTopologies(&db,
                                                sharded->Snapshot(i).get(),
                                                key.first, key.second, prune)
                      .ok());
    }
  }
  shard::ScatterGatherExecutor executor(
      &db, sharded, &schema, &view, biozon::MakeBiozonDomainKnowledge(ids));

  const std::vector<MethodKind> methods = {
      MethodKind::kFullTop, MethodKind::kFastTop, MethodKind::kFullTopK,
      MethodKind::kFastTopK, MethodKind::kFullTopKEt,
      MethodKind::kFastTopKEt};
  for (const char* set2 : {"DNA", "Unigene"}) {
    engine::TopologyQuery q;
    q.entity_set1 = "Protein";
    q.pred1 = biozon::SelectivityPredicate(db, "Protein", "medium");
    q.entity_set2 = set2;
    q.scheme = core::RankScheme::kFreq;
    q.k = 5;
    for (MethodKind method : methods) {
      auto expected = eng.Execute(q, method);
      auto actual = executor.Execute(q, method);
      ASSERT_EQ(expected.ok(), actual.ok());
      if (!expected.ok()) continue;
      EXPECT_EQ(expected->entries, actual->entries)
          << set2 << " " << engine::MethodKindToString(method);
    }
  }
}

}  // namespace
}  // namespace tsb
