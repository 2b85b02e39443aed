// The columnar block mirrors (src/columnar/) and the engine's block-scan
// cursor: slice construction and validation, corruption fallback, the
// byte-identity contract against the row engine for all nine methods
// (unsharded and at N ∈ {1, 2, 4} shards), row ET plans across an epoch
// swap, and the blocks_total / blocks_skipped ExecStats plumbing.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "biozon/domain.h"
#include "biozon/fig3.h"
#include "columnar/blocks.h"
#include "common/logging.h"
#include "core/builder.h"
#include "core/pruner.h"
#include "engine/engine.h"
#include "engine/result_io.h"
#include "shard/scatter_gather.h"
#include "shard/sharded_store.h"

namespace tsb {
namespace {

using engine::MethodKind;
using engine::ResultEntry;

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

class ColumnarFig3Test : public ::testing::Test {
 protected:
  void SetUp() override {
    ids_ = biozon::BuildFigure3Database(&db_);
    view_ = std::make_unique<graph::DataGraphView>(db_);
    schema_ = std::make_unique<graph::SchemaGraph>(db_);
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

  core::PairTopologyData* ProteinDnaPair() {
    core::PairTopologyData* pair = store_.FindPair(ids_.protein, ids_.dna);
    EXPECT_NE(pair, nullptr);
    return pair;
  }

  /// Execute with the columnar gate set and all other options default.
  engine::QueryResult Run(const engine::TopologyQuery& q, MethodKind method,
                          bool use_columnar) const {
    engine::ExecOptions options;
    options.use_columnar = use_columnar;
    auto result = engine_->Execute(q, method, options);
    EXPECT_TRUE(result.ok()) << result.status();
    return std::move(result.value());
  }

  storage::Catalog db_;
  biozon::BiozonSchema ids_;
  std::unique_ptr<graph::DataGraphView> view_;
  std::unique_ptr<graph::SchemaGraph> schema_;
  core::TopologyStore store_;
  std::unique_ptr<engine::Engine> engine_;
};

engine::TopologyQuery ExampleQuery(const storage::Catalog& db,
                                   core::RankScheme scheme, size_t k = 10) {
  engine::TopologyQuery q;
  q.entity_set1 = "Protein";
  q.pred1 = storage::MakeContainsKeyword(db.GetTable("Protein")->schema(),
                                         "DESC", "enzyme");
  q.entity_set2 = "DNA";
  q.pred2 = storage::MakeEquals(db.GetTable("DNA")->schema(), "TYPE",
                                storage::Value("mRNA"));
  q.scheme = scheme;
  q.k = k;
  return q;
}

// ---------------------------------------------------------------------------
// Slice construction and validation
// ---------------------------------------------------------------------------

TEST_F(ColumnarFig3Test, SlicesAttachedAtBuildAndPrune) {
  core::PairTopologyData* pair = ProteinDnaPair();
  ASSERT_NE(pair->alltops_blocks, nullptr);
  ASSERT_NE(pair->lefttops_blocks, nullptr);  // Pair was pruned in SetUp.

  const columnar::ColumnarSlice& all = *pair->alltops_blocks;
  EXPECT_EQ(all.source_table, pair->alltops_table);
  EXPECT_TRUE(columnar::CheckSliceShape(all));
  EXPECT_TRUE(columnar::ValidateSlice(all));
  EXPECT_EQ(all.num_rows(),
            db_.GetTable(pair->alltops_table)->num_rows());
  EXPECT_GT(all.num_rows(), 0u);
  EXPECT_GT(all.MemoryBytes(), 0u);
  // One group per distinct TID in the pair's frequency map.
  EXPECT_EQ(all.groups.size(), pair->freq.size());

  const columnar::ColumnarSlice& left = *pair->lefttops_blocks;
  EXPECT_EQ(left.source_table, pair->lefttops_table);
  EXPECT_TRUE(columnar::ValidateSlice(left));
  EXPECT_EQ(left.num_rows(),
            db_.GetTable(pair->lefttops_table)->num_rows());
}

TEST_F(ColumnarFig3Test, AttachIsIdempotent) {
  core::PairTopologyData* pair = ProteinDnaPair();
  const columnar::ColumnarSlice* before = pair->alltops_blocks.get();
  columnar::AttachSlices(db_, store_.catalog(), pair);
  EXPECT_EQ(pair->alltops_blocks.get(), before);  // Not rebuilt.
}

TEST_F(ColumnarFig3Test, EmptySliceIsValidAndScansToNothing) {
  // What BuildSlice yields for an existing-but-empty tops table: named,
  // zero rows, zero blocks, empty dictionaries.
  auto slice = std::make_shared<columnar::ColumnarSlice>();
  slice->source_table = "EmptyTops";
  slice->e1_table = "Protein";
  slice->e2_table = "DNA";
  EXPECT_TRUE(columnar::CheckSliceShape(*slice));
  EXPECT_TRUE(columnar::ValidateSlice(*slice));

  columnar::BlockScanCursor cursor(slice, columnar::BlockScanCursor::Masks{});
  std::vector<uint8_t> qualified;
  cursor.QualifyAllGroups(&qualified);
  EXPECT_TRUE(qualified.empty());
  EXPECT_EQ(cursor.Counters().blocks_total, 0u);
}

TEST_F(ColumnarFig3Test, MalformedSlicesFailValidation) {
  const columnar::ColumnarSlice& good = *ProteinDnaPair()->alltops_blocks;
  ASSERT_TRUE(columnar::ValidateSlice(good));

  // Each mutation breaks exactly one invariant; every one must be caught.
  struct Case {
    const char* name;
    void (*corrupt)(columnar::ColumnarSlice*);
    bool shape_detects;  // Caught by the cheap per-query screen too?
  };
  const std::vector<Case> cases = {
      {"truncated score array",
       [](columnar::ColumnarSlice* s) { s->score.pop_back(); }, true},
      {"missing zone",
       [](columnar::ColumnarSlice* s) { s->zones.pop_back(); }, true},
      {"group overshoots rows",
       [](columnar::ColumnarSlice* s) { s->groups.back().count += 1; }, true},
      {"class_keys size mismatch",
       [](columnar::ColumnarSlice* s) { s->class_keys.pop_back(); }, true},
      {"dict id/row length mismatch",
       [](columnar::ColumnarSlice* s) { s->e1_dict_row.pop_back(); }, true},
      {"non-monotone class_id",
       [](columnar::ColumnarSlice* s) {
         s->class_id.front() = static_cast<uint32_t>(s->groups.size() - 1);
       },
       false},
      {"score out of sort order",
       [](columnar::ColumnarSlice* s) { s->score.front() = -1.0; }, false},
      {"zone max_score stale",
       [](columnar::ColumnarSlice* s) { s->zones.front().max_score += 1.0; },
       false},
      {"dict code out of bounds",
       [](columnar::ColumnarSlice* s) {
         s->e1_code.front() = static_cast<uint32_t>(s->e1_dict_id.size());
       },
       false},
  };
  for (const Case& c : cases) {
    columnar::ColumnarSlice bad = good;
    c.corrupt(&bad);
    EXPECT_FALSE(columnar::ValidateSlice(bad)) << c.name;
    if (c.shape_detects) {
      EXPECT_FALSE(columnar::CheckSliceShape(bad)) << c.name;
    }
  }
}

// ---------------------------------------------------------------------------
// Row fallback
// ---------------------------------------------------------------------------

TEST_F(ColumnarFig3Test, DisablingColumnarMatchesAndSkipsBlockCounters) {
  engine::TopologyQuery q = ExampleQuery(db_, core::RankScheme::kFreq);
  engine::QueryResult on = Run(q, MethodKind::kFullTop, true);
  engine::QueryResult off = Run(q, MethodKind::kFullTop, false);
  EXPECT_EQ(on.entries, off.entries);
  EXPECT_GT(on.stats.blocks_total, 0u);
  EXPECT_EQ(off.stats.blocks_total, 0u);
  EXPECT_NE(on.stats.plan.find("[columnar]"), std::string::npos);
  EXPECT_EQ(off.stats.plan.find("[columnar]"), std::string::npos);
}

TEST_F(ColumnarFig3Test, MalformedAttachedSliceFallsBackToRowPath) {
  core::PairTopologyData* pair = ProteinDnaPair();
  engine::TopologyQuery q = ExampleQuery(db_, core::RankScheme::kFreq);
  const engine::QueryResult oracle = Run(q, MethodKind::kFullTop, false);

  // Shape-level corruption: the per-query CheckSliceShape screen must
  // decline the slice and the query must silently take the row path.
  auto bad = std::make_shared<columnar::ColumnarSlice>(*pair->alltops_blocks);
  bad->zones.pop_back();
  std::shared_ptr<const columnar::ColumnarSlice> saved = pair->alltops_blocks;
  pair->alltops_blocks = bad;
  engine::QueryResult degraded = Run(q, MethodKind::kFullTop, true);
  pair->alltops_blocks = saved;

  EXPECT_EQ(degraded.entries, oracle.entries);
  EXPECT_EQ(degraded.stats.blocks_total, 0u);
  EXPECT_EQ(degraded.stats.plan.find("[columnar]"), std::string::npos);
}

TEST_F(ColumnarFig3Test, DetachedSliceFallsBackToRowPath) {
  core::PairTopologyData* pair = ProteinDnaPair();
  engine::TopologyQuery q = ExampleQuery(db_, core::RankScheme::kFreq);
  const engine::QueryResult oracle = Run(q, MethodKind::kFastTopK, false);

  std::shared_ptr<const columnar::ColumnarSlice> saved =
      pair->lefttops_blocks;
  pair->lefttops_blocks = nullptr;
  engine::QueryResult degraded = Run(q, MethodKind::kFastTopK, true);
  pair->lefttops_blocks = saved;

  EXPECT_EQ(degraded.entries, oracle.entries);
}

// ---------------------------------------------------------------------------
// Byte-identity property sweep
// ---------------------------------------------------------------------------

/// Deterministic random predicate over one side's entity table.
storage::PredicateRef RandomPredicate(std::mt19937* rng,
                                      const storage::Catalog& db,
                                      const std::string& entity_set,
                                      int depth = 0) {
  const storage::TableSchema& schema = db.GetTable(entity_set)->schema();
  const bool is_protein = entity_set == "Protein";
  static const char* kKeywords[] = {"enzyme", "mrna", "protein", "ubiquitin",
                                    "sapiens", "absentword"};
  // IDs present in either table plus misses.
  static const int64_t kIds[] = {32, 78, 34, 44, 214, 215, 742, 999};

  std::uniform_int_distribution<int> pick(0, depth >= 2 ? 4 : 6);
  switch (pick(*rng)) {
    case 0:
      return storage::MakeTrue();
    case 1: {
      std::uniform_int_distribution<size_t> kw(0, 5);
      return storage::MakeContainsKeyword(schema, "DESC",
                                          kKeywords[kw(*rng)]);
    }
    case 2: {
      std::uniform_int_distribution<size_t> id(0, 7);
      return storage::MakeEquals(schema, "ID", storage::Value(kIds[id(*rng)]));
    }
    case 3: {
      if (!is_protein) {
        // DNA has TYPE; exercise string equality (and a guaranteed miss).
        std::uniform_int_distribution<int> t(0, 2);
        const char* type = t(*rng) == 0 ? "gene" : "mRNA";
        return storage::MakeEquals(schema, "TYPE", storage::Value(type));
      }
      std::uniform_int_distribution<int64_t> lo(0, 100);
      const int64_t l = lo(*rng);
      return storage::MakeInt64Between(schema, "ID", l, l + 50);
    }
    case 4: {
      std::uniform_int_distribution<int64_t> lo(0, 800);
      const int64_t l = lo(*rng);
      return storage::MakeInt64Between(schema, "ID", l, l + 200);
    }
    case 5:
      return storage::MakeNot(RandomPredicate(rng, db, entity_set, depth + 1));
    default: {
      storage::PredicateRef a =
          RandomPredicate(rng, db, entity_set, depth + 1);
      storage::PredicateRef b =
          RandomPredicate(rng, db, entity_set, depth + 1);
      std::uniform_int_distribution<int> c(0, 1);
      return c(*rng) == 0 ? storage::MakeAnd(std::move(a), std::move(b))
                          : storage::MakeOr(std::move(a), std::move(b));
    }
  }
}

TEST_F(ColumnarFig3Test, RandomPredicatesMatchRowPathForAllNineMethods) {
  std::mt19937 rng(20260808);
  const std::vector<std::pair<std::string, std::string>> orientations = {
      {"Protein", "DNA"}, {"DNA", "Protein"}, {"Protein", "Protein"}};
  const std::vector<size_t> ks = {1, 2, 3, 5, 10};

  for (int trial = 0; trial < 40; ++trial) {
    const auto& [set1, set2] = orientations[trial % orientations.size()];
    engine::TopologyQuery q;
    q.entity_set1 = set1;
    q.pred1 = RandomPredicate(&rng, db_, set1);
    q.entity_set2 = set2;
    q.pred2 = RandomPredicate(&rng, db_, set2);
    q.scheme = kAllSchemes[trial % kAllSchemes.size()];
    q.k = ks[trial % ks.size()];
    q.exclude_weak = trial % 4 == 0;

    for (MethodKind method : kAllMethods) {
      engine::QueryResult on = Run(q, method, true);
      engine::QueryResult off = Run(q, method, false);
      ASSERT_EQ(on.entries, off.entries)
          << "trial " << trial << " " << engine::MethodKindToString(method)
          << " " << set1 << "/" << set2 << " k=" << q.k;
    }
  }
}

TEST_F(ColumnarFig3Test, ShardedColumnarMatchesShardedRowPath) {
  std::mt19937 rng(4096);
  for (size_t n : {1u, 2u, 4u}) {
    std::unique_ptr<shard::ScatterGatherExecutor> sharded = MakeSharded(n);
    sharded->PrepareIndexes("Protein", "DNA");
    for (int trial = 0; trial < 8; ++trial) {
      engine::TopologyQuery q;
      q.entity_set1 = "Protein";
      q.pred1 = RandomPredicate(&rng, db_, "Protein");
      q.entity_set2 = "DNA";
      q.pred2 = RandomPredicate(&rng, db_, "DNA");
      q.scheme = kAllSchemes[trial % kAllSchemes.size()];
      q.k = trial % 2 == 0 ? 3 : 10;

      for (MethodKind method : kAllMethods) {
        engine::ExecOptions on;
        on.use_columnar = true;
        engine::ExecOptions off;
        off.use_columnar = false;
        auto col = sharded->Execute(q, method, on);
        auto row = sharded->Execute(q, method, off);
        ASSERT_TRUE(col.ok()) << col.status();
        ASSERT_TRUE(row.ok()) << row.status();
        ASSERT_EQ(col->entries, row->entries)
            << "N=" << n << " trial " << trial << " "
            << engine::MethodKindToString(method);
        // The sharded answer must also equal the unsharded engine's.
        engine::QueryResult direct = Run(q, method, true);
        ASSERT_EQ(col->entries, direct.entries)
            << "N=" << n << " trial " << trial << " "
            << engine::MethodKindToString(method);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Row ET plans across a store swap
// ---------------------------------------------------------------------------

TEST(ColumnarEpochTest, EtPlansSurviveEpochSwap) {
  storage::Catalog db;
  biozon::BiozonSchema ids = biozon::BuildFigure3Database(&db);
  graph::DataGraphView view(db);
  graph::SchemaGraph schema(db);

  auto build_store = [&](const std::string& ns) {
    auto store = std::make_shared<core::TopologyStore>();
    core::TopologyBuilder builder(&db, &schema, &view);
    core::BuildConfig config;
    config.max_path_length = 3;
    config.table_namespace = ns;
    TSB_CHECK(builder.BuildAllPairs(config, store.get()).ok());
    core::PruneConfig prune;
    prune.frequency_threshold = 0;
    std::vector<std::pair<storage::EntityTypeId, storage::EntityTypeId>> keys;
    for (const auto& [key, pair] : store->pairs()) keys.push_back(key);
    for (const auto& [t1, t2] : keys) {
      TSB_CHECK(
          core::PruneFrequentTopologies(&db, store.get(), t1, t2, prune).ok());
    }
    return store;
  };

  auto handle = std::make_shared<core::StoreHandle>(build_store(""));
  engine::Engine engine(&db, handle, &schema, &view,
                        core::ScoreModel(&handle->Snapshot()->catalog(),
                                         biozon::MakeBiozonDomainKnowledge(
                                             ids)));

  engine::TopologyQuery q = ExampleQuery(db, core::RankScheme::kFreq);
  // Row path so the DGJ plan actually runs.
  engine::ExecOptions row;
  row.use_columnar = false;

  auto before = engine.Execute(q, MethodKind::kFullTopKEt, row);
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(before->entries.empty());

  // Swap in a freshly built epoch: its DGJ plans read the new epoch's
  // tables and give the same answer.
  handle->Swap(build_store("e1."));
  auto after = engine.Execute(q, MethodKind::kFullTopKEt, row);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->entries, after->entries);

  auto swapped_et = engine.Execute(q, MethodKind::kFastTopKEt, row);
  ASSERT_TRUE(swapped_et.ok());
  EXPECT_EQ(before->entries, swapped_et->entries);
}

// ---------------------------------------------------------------------------
// ExecStats block counters on the wire
// ---------------------------------------------------------------------------

TEST_F(ColumnarFig3Test, BlockCountersSurviveStatsRoundTrip) {
  engine::TopologyQuery q = ExampleQuery(db_, core::RankScheme::kFreq);
  engine::QueryResult result = Run(q, MethodKind::kFullTopK, true);
  EXPECT_GT(result.stats.blocks_total, 0u);
  EXPECT_LE(result.stats.blocks_skipped, result.stats.blocks_total);

  std::string buf;
  engine::EncodeQueryResult(result, &buf);
  BinaryReader reader(buf);
  auto decoded = engine::DecodeQueryResult(&reader);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->entries, result.entries);
  EXPECT_EQ(decoded->stats.blocks_total, result.stats.blocks_total);
  EXPECT_EQ(decoded->stats.blocks_skipped, result.stats.blocks_skipped);
  EXPECT_EQ(decoded->stats.rows_scanned, result.stats.rows_scanned);
}

TEST_F(ColumnarFig3Test, ZoneMapsSkipBlocksOnEarlyStop) {
  // k = 1 over the ranked cursor: the top group answers immediately, so
  // later blocks are never touched and count as skipped.
  engine::TopologyQuery q = ExampleQuery(db_, core::RankScheme::kFreq, 1);
  engine::QueryResult result = Run(q, MethodKind::kFullTopK, true);
  ASSERT_EQ(result.entries.size(), 1u);
  EXPECT_GT(result.stats.blocks_total, 0u);
}

}  // namespace
}  // namespace tsb
