// The nine query-evaluation methods on the Figure-3 fixture: Example 2.1's
// query must return {T1, T2, T3, T4} under every strategy.

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "biozon/domain.h"
#include "biozon/fig3.h"
#include "biozon/generator.h"
#include "common/hash.h"
#include "core/builder.h"
#include "core/pruner.h"
#include "engine/engine.h"
#include "graph/canonical.h"

namespace tsb {
namespace {

using engine::MethodKind;

const std::vector<MethodKind> kAllMethods = {
    MethodKind::kSql,         MethodKind::kFullTop,
    MethodKind::kFastTop,     MethodKind::kFullTopK,
    MethodKind::kFastTopK,    MethodKind::kFullTopKEt,
    MethodKind::kFastTopKEt,  MethodKind::kFullTopKOpt,
    MethodKind::kFastTopKOpt,
};

/// Stable digest of every method's entries for `queries` under all three
/// schemes and three executions each: the columnar path, the row path, and
/// the row ET plan with HDGJ at the first level and the sides flipped.
Hash128 AnswerDigest(const engine::Engine& engine,
                     const std::vector<engine::TopologyQuery>& queries) {
  engine::ExecOptions columnar;
  engine::ExecOptions row;
  row.use_columnar = false;
  engine::ExecOptions flipped_dgj;
  flipped_dgj.dgj_algs = {engine::DgjAlg::kHdgj, engine::DgjAlg::kIdgj};
  flipped_dgj.et_side_order = {1, 0};
  StableHasher h;
  for (engine::TopologyQuery q : queries) {
    for (core::RankScheme scheme :
         {core::RankScheme::kFreq, core::RankScheme::kRare,
          core::RankScheme::kDomain}) {
      q.scheme = scheme;
      for (MethodKind method : kAllMethods) {
        for (const engine::ExecOptions* options :
             {&columnar, &row, &flipped_dgj}) {
          // The SQL baseline reads base data only and ranks like every
          // other method; one execution per query pins it.
          if (method == MethodKind::kSql &&
              (options != &columnar || scheme != core::RankScheme::kFreq)) {
            continue;
          }
          auto result = engine.Execute(q, method, *options);
          EXPECT_TRUE(result.ok()) << result.status();
          if (!result.ok()) continue;
          h.AddU64(result->entries.size());
          for (const engine::ResultEntry& entry : result->entries) {
            uint64_t score_bits = 0;
            std::memcpy(&score_bits, &entry.score, sizeof(score_bits));
            h.AddU64(static_cast<uint64_t>(entry.tid)).AddU64(score_bits);
          }
        }
      }
    }
  }
  return h.Digest();
}

class EngineFig3Test : public ::testing::Test {
 protected:
  void SetUp() override {
    ids_ = biozon::BuildFigure3Database(&db_);
    view_ = std::make_unique<graph::DataGraphView>(db_);
    schema_ = std::make_unique<graph::SchemaGraph>(db_);
    core::TopologyBuilder builder(&db_, schema_.get(), view_.get());
    core::BuildConfig config;
    config.max_path_length = 3;
    ASSERT_TRUE(
        builder.BuildPair(ids_.protein, ids_.dna, config, &store_).ok());
    ASSERT_TRUE(
        builder.BuildPair(ids_.protein, ids_.protein, config, &store_).ok());
    core::PruneConfig prune;
    prune.frequency_threshold = 0;  // Prune all path topologies.
    ASSERT_TRUE(core::PruneFrequentTopologies(&db_, &store_, ids_.protein,
                                              ids_.dna, prune)
                    .ok());
    ASSERT_TRUE(core::PruneFrequentTopologies(&db_, &store_, ids_.protein,
                                              ids_.protein, prune)
                    .ok());
    engine_ = std::make_unique<engine::Engine>(
        &db_, &store_, schema_.get(), view_.get(),
        core::ScoreModel(&store_.catalog(),
                         biozon::MakeBiozonDomainKnowledge(ids_)));
    engine_->PrepareIndexes("Protein", "DNA");
  }

  /// Example 2.1: { (Protein, desc.ct('enzyme')), (DNA, type = 'mRNA') }.
  engine::TopologyQuery ExampleQuery(core::RankScheme scheme,
                                     size_t k = 10) const {
    engine::TopologyQuery q;
    q.entity_set1 = "Protein";
    q.pred1 = storage::MakeContainsKeyword(db_.GetTable("Protein")->schema(),
                                           "DESC", "enzyme");
    q.entity_set2 = "DNA";
    q.pred2 = storage::MakeEquals(db_.GetTable("DNA")->schema(), "TYPE",
                                  storage::Value("mRNA"));
    q.scheme = scheme;
    q.k = k;
    return q;
  }

  std::set<core::Tid> TidSet(const engine::QueryResult& result) const {
    std::set<core::Tid> tids;
    for (const auto& entry : result.entries) tids.insert(entry.tid);
    return tids;
  }

  /// The four expected topologies of Figure 5, identified by structure.
  std::set<core::Tid> ExpectedT1toT4() const {
    std::set<core::Tid> expected;
    for (const core::TopologyInfo& info : store_.catalog().infos()) {
      // T1: single encodes edge; T2: the P-U-D path; T3/T4: the two-class
      // unions. Exclude only the (34, 215) triangle: 3 nodes, 3 edges.
      bool is_triangle =
          info.graph.num_nodes() == 3 && info.graph.num_edges() == 3;
      if (!is_triangle &&
          store_.FindPair(ids_.protein, ids_.dna)->freq.count(info.tid)) {
        expected.insert(info.tid);
      }
    }
    return expected;
  }

  storage::Catalog db_;
  biozon::BiozonSchema ids_;
  std::unique_ptr<graph::DataGraphView> view_;
  std::unique_ptr<graph::SchemaGraph> schema_;
  core::TopologyStore store_;
  std::unique_ptr<engine::Engine> engine_;
};

TEST_F(EngineFig3Test, FullTopReturnsT1toT4) {
  auto result =
      engine_->Execute(ExampleQuery(core::RankScheme::kFreq),
                       MethodKind::kFullTop);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->entries.size(), 4u);
  EXPECT_EQ(TidSet(*result), ExpectedT1toT4());
}

TEST_F(EngineFig3Test, AllNineMethodsAgreeOnTheResultSet) {
  const std::set<core::Tid> expected = ExpectedT1toT4();
  for (MethodKind method :
       {MethodKind::kSql, MethodKind::kFullTop, MethodKind::kFastTop,
        MethodKind::kFullTopK, MethodKind::kFastTopK, MethodKind::kFullTopKEt,
        MethodKind::kFastTopKEt, MethodKind::kFullTopKOpt,
        MethodKind::kFastTopKOpt}) {
    for (core::RankScheme scheme :
         {core::RankScheme::kFreq, core::RankScheme::kRare,
          core::RankScheme::kDomain}) {
      auto result = engine_->Execute(ExampleQuery(scheme), method);
      ASSERT_TRUE(result.ok()) << engine::MethodKindToString(method);
      EXPECT_EQ(TidSet(*result), expected)
          << engine::MethodKindToString(method) << " / "
          << core::RankSchemeToString(scheme);
    }
  }
}

TEST_F(EngineFig3Test, ResultsAreScoreOrdered) {
  for (core::RankScheme scheme :
       {core::RankScheme::kFreq, core::RankScheme::kRare,
        core::RankScheme::kDomain}) {
    auto result =
        engine_->Execute(ExampleQuery(scheme), MethodKind::kFullTop);
    ASSERT_TRUE(result.ok());
    for (size_t i = 1; i < result->entries.size(); ++i) {
      bool ordered =
          result->entries[i - 1].score > result->entries[i].score ||
          (result->entries[i - 1].score == result->entries[i].score &&
           result->entries[i - 1].tid < result->entries[i].tid);
      EXPECT_TRUE(ordered);
    }
  }
}

TEST_F(EngineFig3Test, TopKIsPrefixOfFullRanking) {
  auto full = engine_->Execute(ExampleQuery(core::RankScheme::kDomain),
                               MethodKind::kFullTop);
  ASSERT_TRUE(full.ok());
  for (size_t k = 1; k <= 4; ++k) {
    for (MethodKind method :
         {MethodKind::kFullTopK, MethodKind::kFastTopK,
          MethodKind::kFullTopKEt, MethodKind::kFastTopKEt,
          MethodKind::kFullTopKOpt, MethodKind::kFastTopKOpt}) {
      auto topk = engine_->Execute(
          ExampleQuery(core::RankScheme::kDomain, k), method);
      ASSERT_TRUE(topk.ok());
      ASSERT_EQ(topk->entries.size(), std::min(k, full->entries.size()))
          << engine::MethodKindToString(method) << " k=" << k;
      for (size_t i = 0; i < topk->entries.size(); ++i) {
        EXPECT_EQ(topk->entries[i].tid, full->entries[i].tid)
            << engine::MethodKindToString(method) << " k=" << k;
      }
    }
  }
}

TEST_F(EngineFig3Test, HdgjPlanMatchesIdgjPlan) {
  engine::ExecOptions idgj;
  engine::ExecOptions hdgj;
  hdgj.dgj_algs = {engine::DgjAlg::kHdgj, engine::DgjAlg::kHdgj};
  auto r1 = engine_->Execute(ExampleQuery(core::RankScheme::kFreq),
                             MethodKind::kFastTopKEt, idgj);
  auto r2 = engine_->Execute(ExampleQuery(core::RankScheme::kFreq),
                             MethodKind::kFastTopKEt, hdgj);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r1->entries.size(), r2->entries.size());
  for (size_t i = 0; i < r1->entries.size(); ++i) {
    EXPECT_EQ(r1->entries[i].tid, r2->entries[i].tid);
  }
  // HDGJ pays per-group rebuilds.
  EXPECT_GT(r2->stats.builds, 0u);
}

TEST_F(EngineFig3Test, EmptyPredicateSideYieldsEmptyResult) {
  engine::TopologyQuery q = ExampleQuery(core::RankScheme::kFreq);
  q.pred1 = storage::MakeContainsKeyword(db_.GetTable("Protein")->schema(),
                                         "DESC", "nonexistentkeyword");
  for (MethodKind method :
       {MethodKind::kSql, MethodKind::kFullTop, MethodKind::kFastTop,
        MethodKind::kFastTopKEt}) {
    auto result = engine_->Execute(q, method);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->entries.empty())
        << engine::MethodKindToString(method);
  }
}

TEST_F(EngineFig3Test, UnconstrainedQueryIncludesTriangle) {
  engine::TopologyQuery q;
  q.entity_set1 = "Protein";
  q.entity_set2 = "DNA";
  q.scheme = core::RankScheme::kFreq;
  q.k = 10;
  auto result = engine_->Execute(q, MethodKind::kFullTop);
  ASSERT_TRUE(result.ok());
  // All five observed topologies, including the (34, 215) triangle.
  EXPECT_EQ(result->entries.size(), 5u);
}

TEST_F(EngineFig3Test, SelfPairQueryConsistentAcrossMethods) {
  engine::TopologyQuery q;
  q.entity_set1 = "Protein";
  q.pred1 = storage::MakeContainsKeyword(db_.GetTable("Protein")->schema(),
                                         "DESC", "enzyme");
  q.entity_set2 = "Protein";
  q.scheme = core::RankScheme::kFreq;
  q.k = 10;
  auto full = engine_->Execute(q, MethodKind::kFullTop);
  ASSERT_TRUE(full.ok());
  for (MethodKind method :
       {MethodKind::kSql, MethodKind::kFastTop, MethodKind::kFullTopK,
        MethodKind::kFastTopK, MethodKind::kFullTopKEt,
        MethodKind::kFastTopKEt}) {
    auto result = engine_->Execute(q, method);
    ASSERT_TRUE(result.ok()) << engine::MethodKindToString(method);
    EXPECT_EQ(TidSet(*result), TidSet(*full))
        << engine::MethodKindToString(method);
  }
}

TEST_F(EngineFig3Test, UnknownEntitySetFails) {
  engine::TopologyQuery q;
  q.entity_set1 = "Nope";
  q.entity_set2 = "DNA";
  auto result = engine_->Execute(q, MethodKind::kFullTop);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(EngineFig3Test, UnbuiltPairFails) {
  engine::TopologyQuery q;
  q.entity_set1 = "Unigene";
  q.entity_set2 = "Interaction";
  auto result = engine_->Execute(q, MethodKind::kFullTop);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(EngineFig3Test, StatsArePopulated) {
  auto result = engine_->Execute(ExampleQuery(core::RankScheme::kFreq),
                                 MethodKind::kFullTop);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->stats.seconds, 0.0);
  EXPECT_GT(result->stats.rows_scanned, 0u);
  EXPECT_FALSE(result->stats.plan.empty());
}

TEST_F(EngineFig3Test, FastTopCountsOnlineSubqueries) {
  auto result = engine_->Execute(ExampleQuery(core::RankScheme::kFreq),
                                 MethodKind::kFastTop);
  ASSERT_TRUE(result.ok());
  // Two pruned topologies (T1, T2) -> two online checks.
  EXPECT_EQ(result->stats.subqueries, 2u);
}

TEST_F(EngineFig3Test, FastTopKChargesEachEntityTableOnce) {
  // Keyword predicates on both sides; k above every topology count, so the
  // ranked source is drained with or without the pruned-topology checks.
  engine::TopologyQuery q = ExampleQuery(core::RankScheme::kFreq, 1000);
  q.pred2 = storage::MakeContainsKeyword(db_.GetTable("DNA")->schema(),
                                         "DESC", "mrna");
  const uint64_t entity_rows = db_.GetTable("Protein")->num_rows() +
                               db_.GetTable("DNA")->num_rows();
  for (bool use_columnar : {true, false}) {
    SCOPED_TRACE(use_columnar ? "columnar" : "row");
    engine::ExecOptions checks;
    checks.use_columnar = use_columnar;
    engine::ExecOptions skip = checks;
    skip.skip_pruned_checks = true;
    auto checked = engine_->Execute(q, MethodKind::kFastTopK, checks);
    auto unchecked = engine_->Execute(q, MethodKind::kFastTopK, skip);
    ASSERT_TRUE(checked.ok());
    ASSERT_TRUE(unchecked.ok());
    EXPECT_EQ(checked->stats.plan.find("[columnar]") != std::string::npos,
              use_columnar);
    ASSERT_GT(checked->stats.subqueries, 0u);
    EXPECT_EQ(unchecked->stats.subqueries, 0u);
    // The online checks read the masks the scan already evaluated: no
    // entity row is charged a second time.
    EXPECT_EQ(checked->stats.rows_scanned, unchecked->stats.rows_scanned);
    EXPECT_GT(checked->stats.rows_scanned, entity_rows);
  }
}

TEST_F(EngineFig3Test, ExcludeWeakDropsPupTopologies) {
  // T3 and T4 contain the P-U-P homolog motif (two proteins under one
  // Unigene); with exclude_weak the Example-2.1 result shrinks to the
  // plain path topologies T1 and T2.
  engine::TopologyQuery q = ExampleQuery(core::RankScheme::kFreq);
  q.exclude_weak = true;
  auto filtered = engine_->Execute(q, MethodKind::kFullTop);
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(filtered->entries.size(), 2u);
  for (const auto& entry : filtered->entries) {
    EXPECT_TRUE(store_.catalog().Get(entry.tid).is_path);
  }
  // Fast-Top agrees under exclusion.
  auto fast = engine_->Execute(q, MethodKind::kFastTop);
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(TidSet(*fast), TidSet(*filtered));
}

TEST_F(EngineFig3Test, InstancesRespectQueryPredicates) {
  // The (34, 215) triangle topology exists in AllTops, but protein 34 does
  // not satisfy the 'enzyme' predicate: the query-scoped instance API must
  // return nothing for it, while the pair-level core retrieval finds it.
  core::Tid triangle = core::kNoTid;
  for (const core::TopologyInfo& info : store_.catalog().infos()) {
    if (info.graph.num_nodes() == 3 && info.graph.num_edges() == 3) {
      triangle = info.tid;
    }
  }
  ASSERT_NE(triangle, core::kNoTid);
  auto scoped = engine_->Instances(ExampleQuery(core::RankScheme::kFreq),
                                   triangle);
  ASSERT_TRUE(scoped.ok());
  EXPECT_TRUE(scoped->empty());
  auto unscoped = core::RetrieveInstances(db_, store_, *schema_, *view_,
                                          ids_.protein, ids_.dna, triangle);
  EXPECT_EQ(unscoped.size(), 1u);
}

TEST_F(EngineFig3Test, InstancesOfQualifyingTopology) {
  // T1 = Protein-Encodes-DNA, witnessed by the qualifying pair (32, 214).
  core::Tid t1 = core::kNoTid;
  for (const core::TopologyInfo& info : store_.catalog().infos()) {
    if (info.graph.num_nodes() == 2) t1 = info.tid;
  }
  ASSERT_NE(t1, core::kNoTid);
  auto instances =
      engine_->Instances(ExampleQuery(core::RankScheme::kFreq), t1);
  ASSERT_TRUE(instances.ok());
  ASSERT_EQ(instances->size(), 1u);
  EXPECT_EQ((*instances)[0].a, 32);
  EXPECT_EQ((*instances)[0].b, 214);
  EXPECT_EQ((*instances)[0].subgraph.num_edges(), 1u);
}

TEST_F(EngineFig3Test, MethodKindPredicates) {
  EXPECT_FALSE(engine::MethodIsTopK(MethodKind::kSql));
  EXPECT_FALSE(engine::MethodIsTopK(MethodKind::kFullTop));
  EXPECT_FALSE(engine::MethodIsTopK(MethodKind::kFastTop));
  EXPECT_TRUE(engine::MethodIsTopK(MethodKind::kFullTopK));
  EXPECT_TRUE(engine::MethodIsTopK(MethodKind::kFastTopKEt));
  EXPECT_STREQ(engine::MethodKindToString(MethodKind::kFastTopKOpt),
               "Fast-Top-k-Opt");
}

TEST_F(EngineFig3Test, KZeroReturnsNothingFromTopKMethods) {
  engine::TopologyQuery q = ExampleQuery(core::RankScheme::kFreq, 0);
  for (MethodKind method :
       {MethodKind::kFullTopK, MethodKind::kFastTopK,
        MethodKind::kFullTopKEt, MethodKind::kFastTopKEt}) {
    auto result = engine_->Execute(q, method);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->entries.empty())
        << engine::MethodKindToString(method);
  }
}

TEST_F(EngineFig3Test, QuerySwappedEntityOrderGivesSameSet) {
  engine::TopologyQuery q;
  q.entity_set1 = "DNA";
  q.pred1 = storage::MakeEquals(db_.GetTable("DNA")->schema(), "TYPE",
                                storage::Value("mRNA"));
  q.entity_set2 = "Protein";
  q.pred2 = storage::MakeContainsKeyword(db_.GetTable("Protein")->schema(),
                                         "DESC", "enzyme");
  q.scheme = core::RankScheme::kFreq;
  q.k = 10;
  auto swapped = engine_->Execute(q, MethodKind::kFullTop);
  auto normal = engine_->Execute(ExampleQuery(core::RankScheme::kFreq),
                                 MethodKind::kFullTop);
  ASSERT_TRUE(swapped.ok());
  ASSERT_TRUE(normal.ok());
  EXPECT_EQ(TidSet(*swapped), TidSet(*normal));
  // Also through the ET path, which maps sides onto E1/E2 explicitly.
  auto swapped_et = engine_->Execute(q, MethodKind::kFastTopKEt);
  ASSERT_TRUE(swapped_et.ok());
  EXPECT_EQ(TidSet(*swapped_et), TidSet(*normal));
}

TEST_F(EngineFig3Test, AnswersArePinned) {
  // Both pairs of the fixture, the self pair included, pinned against a
  // recorded digest of every method's entries: plan rewrites must leave
  // the answers unchanged.
  constexpr uint64_t kPinnedLo = 0x79f0b4567a4e263cULL;
  constexpr uint64_t kPinnedHi = 0x007c9508263fc47eULL;
  const storage::TableSchema& protein = db_.GetTable("Protein")->schema();
  std::vector<engine::TopologyQuery> queries;
  for (storage::PredicateRef pred :
       {storage::PredicateRef(nullptr),
        storage::MakeContainsKeyword(protein, "DESC", "enzyme"),
        storage::MakeInt64Between(protein, "ID", 30, 60)}) {
    for (const char* other : {"Protein", "DNA"}) {
      engine::TopologyQuery q;
      q.entity_set1 = "Protein";
      q.pred1 = pred;
      q.entity_set2 = other;
      q.k = 3;
      queries.push_back(q);
    }
  }
  const Hash128 digest = AnswerDigest(*engine_, queries);
  EXPECT_EQ(digest.lo, kPinnedLo) << std::hex << digest.lo;
  EXPECT_EQ(digest.hi, kPinnedHi) << std::hex << digest.hi;
}

TEST(EngineBiozonTest, AnswersArePinned) {
  // Every method's entries on a scale-0.1 Biozon build of (Protein, DNA),
  // queried in both orientations over the keyword selectivity tiers.
  constexpr uint64_t kPinnedLo = 0x6331417f7062b8d6ULL;
  constexpr uint64_t kPinnedHi = 0x53c26701219ddc18ULL;
  storage::Catalog db;
  biozon::GeneratorConfig gen;
  gen.seed = 42;
  gen.scale = 0.1;
  const biozon::BiozonSchema ids = biozon::GenerateBiozon(gen, &db);
  graph::DataGraphView view(db);
  graph::SchemaGraph schema(db);
  core::TopologyStore store;
  core::TopologyBuilder builder(&db, &schema, &view);
  core::BuildConfig config;
  config.max_path_length = 3;
  config.max_class_representatives = 8;
  config.max_union_combinations = 512;
  ASSERT_TRUE(builder.BuildPair(ids.protein, ids.dna, config, &store).ok());
  core::PruneConfig prune;
  prune.frequency_threshold =
      store.FindPair(ids.protein, ids.dna)->num_related_pairs / 200;
  ASSERT_TRUE(
      core::PruneFrequentTopologies(&db, &store, ids.protein, ids.dna, prune)
          .ok());
  engine::SqlBaselineOptions sql;
  sql.max_candidates = 500;
  engine::Engine engine(
      &db, &store, &schema, &view,
      core::ScoreModel(&store.catalog(),
                       biozon::MakeBiozonDomainKnowledge(ids)),
      sql);
  engine.PrepareIndexes("Protein", "DNA");

  std::vector<engine::TopologyQuery> queries;
  for (const char* tier : {"selective", "medium", "unselective"}) {
    for (bool protein_first : {true, false}) {
      engine::TopologyQuery q;
      q.entity_set1 = protein_first ? "Protein" : "DNA";
      q.pred1 = biozon::SelectivityPredicate(db, q.entity_set1, tier);
      q.entity_set2 = protein_first ? "DNA" : "Protein";
      q.pred2 = biozon::SelectivityPredicate(db, q.entity_set2, "unselective");
      q.k = 10;
      q.exclude_weak = !protein_first;
      queries.push_back(q);
    }
  }
  const Hash128 digest = AnswerDigest(engine, queries);
  EXPECT_EQ(digest.lo, kPinnedLo) << std::hex << digest.lo;
  EXPECT_EQ(digest.hi, kPinnedHi) << std::hex << digest.hi;
}

}  // namespace
}  // namespace tsb
