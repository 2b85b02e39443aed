#include <gtest/gtest.h>

#include <limits>

#include "optimizer/cost_model.h"
#include "optimizer/join_enum.h"
#include "optimizer/stats.h"
#include "storage/predicate.h"
#include "storage/table.h"

namespace tsb {
namespace optimizer {
namespace {

using storage::ColumnType;
using storage::TableSchema;
using storage::Value;

// --- Statistics -----------------------------------------------------------

TEST(StatsTest, SelectivityEstimateTracksTruth) {
  storage::Table t("T", TableSchema({{"ID", ColumnType::kInt64},
                                     {"DESC", ColumnType::kString}}));
  for (int64_t i = 0; i < 1000; ++i) {
    t.AppendRowOrDie(
        {Value(i), Value(i % 4 == 0 ? "hit keyword" : "miss")});
  }
  auto pred = storage::MakeContainsKeyword(t.schema(), "DESC", "keyword");
  std::vector<uint8_t> mask;
  storage::CompilePredicate(*pred).EvalAll(t, &mask);
  double est = EstimateSelectivity(mask);
  EXPECT_NEAR(est, 0.25, 0.05);
}

TEST(StatsTest, EmptyTableSelectivityZero) {
  storage::Table t("T", TableSchema({{"ID", ColumnType::kInt64}}));
  std::vector<uint8_t> mask;
  storage::CompilePredicate(*storage::MakeTrue()).EvalAll(t, &mask);
  EXPECT_EQ(EstimateSelectivity(mask), 0.0);
  EXPECT_EQ(EstimateSelectivity({1, 1}, 0), 0.0);  // Nothing sampled.
}

TEST(StatsTest, JoinFanout) {
  EXPECT_DOUBLE_EQ(EstimateJoinFanout(100, 50), 2.0);
  EXPECT_DOUBLE_EQ(EstimateJoinFanout(100, 100), 1.0);
  EXPECT_DOUBLE_EQ(EstimateJoinFanout(10, 0), 0.0);
}

// --- Lemma 1 / Lemma 2 derived quantities -----------------------------------

DgjPlanModel TwoLevelModel(double rho1, double rho2,
                           std::vector<double> cards) {
  DgjPlanModel model;
  model.group_cards = std::move(cards);
  for (double rho : {rho1, rho2}) {
    DgjLevel level;
    level.fanout = 1.0;
    level.selectivity = rho;
    level.index_probe_cost = 1.5;
    model.levels.push_back(level);
  }
  return model;
}

TEST(CostModelTest, DerivedProbabilitiesForUnitFanout) {
  DgjPlanModel model = TwoLevelModel(0.3, 0.5, {10});
  DgjDerived d = ComputeDerived(model);
  // x_{n+1} = 1 (corrected boundary), x_2 = rho_2, x_1 = rho_1 * rho_2.
  ASSERT_EQ(d.x.size(), 3u);
  EXPECT_DOUBLE_EQ(d.x[2], 1.0);
  EXPECT_DOUBLE_EQ(d.x[1], 0.5);
  EXPECT_DOUBLE_EQ(d.x[0], 0.15);
  // delta_2 = I_2 + pred, delta_1 = I_1 + pred + fetch + rho_1 * delta_2.
  EXPECT_DOUBLE_EQ(d.delta[2], 0.0);
  EXPECT_DOUBLE_EQ(d.delta[1], 1.5 + 4.5);
  EXPECT_DOUBLE_EQ(d.delta[0], 1.5 + 4.5 + 1.0 + 0.3 * (1.5 + 4.5));
}

TEST(CostModelTest, PerfectSelectivityMakesResultsCertain) {
  DgjPlanModel model = TwoLevelModel(1.0, 1.0, {5});
  DgjDerived d = ComputeDerived(model);
  EXPECT_DOUBLE_EQ(d.x[0], 1.0);
}

TEST(CostModelTest, ZeroSelectivityMakesResultsImpossible) {
  DgjPlanModel model = TwoLevelModel(0.0, 1.0, {5});
  DgjDerived d = ComputeDerived(model);
  EXPECT_DOUBLE_EQ(d.x[0], 0.0);
}

// --- Theorem 1 dynamic program ---------------------------------------------

TEST(CostModelTest, CostIncreasesWithK) {
  DgjPlanModel model = TwoLevelModel(0.5, 0.5,
                                     std::vector<double>(20, 50.0));
  double prev = 0.0;
  for (size_t k : {1, 2, 5, 10}) {
    double cost = ExpectedDgjCost(model, k);
    EXPECT_GT(cost, prev);
    prev = cost;
  }
}

TEST(CostModelTest, CostDecreasesWithSelectivity) {
  std::vector<double> cards(50, 100.0);
  double selective = ExpectedDgjCost(TwoLevelModel(0.05, 0.05, cards), 10);
  double unselective = ExpectedDgjCost(TwoLevelModel(0.9, 0.9, cards), 10);
  EXPECT_LT(unselective, selective);
}

TEST(CostModelTest, ZeroGroupsOrZeroKFree) {
  EXPECT_EQ(ExpectedDgjCost(TwoLevelModel(0.5, 0.5, {}), 5), 0.0);
  EXPECT_EQ(ExpectedDgjCost(TwoLevelModel(0.5, 0.5, {10}), 0), 0.0);
}

TEST(CostModelTest, HdgjRebuildChargedPerGroup) {
  DgjPlanModel idgj = TwoLevelModel(0.5, 0.5, std::vector<double>(10, 5.0));
  DgjPlanModel hdgj = idgj;
  hdgj.levels[0].hdgj = true;
  hdgj.levels[0].inner_cardinality = 10000.0;
  EXPECT_GT(ExpectedDgjCost(hdgj, 5), ExpectedDgjCost(idgj, 5));
}

TEST(CostModelTest, RegularCostScalesWithRows) {
  RegularPlanModel small;
  small.grouped_rows = 100;
  small.side_cards = {100, 100};
  small.num_groups = 10;
  RegularPlanModel big = small;
  big.grouped_rows = 100000;
  EXPECT_GT(ExpectedRegularCost(big), ExpectedRegularCost(small));
}

TEST(CostModelTest, CrossoverMatchesPaperShape) {
  // Unselective predicates: early termination finds witnesses immediately
  // and should beat a full scan of a large LeftTops table. Selective
  // predicates: witnesses are rare, ET processes nearly everything through
  // random probes and loses. This is exactly the Table-2 crossover.
  std::vector<double> cards(500, 200.0);
  RegularPlanModel regular;
  regular.grouped_rows = 500 * 200.0;
  regular.side_cards = {20000, 20000};
  regular.num_groups = 500;
  const double regular_cost = ExpectedRegularCost(regular);

  double et_unselective = ExpectedDgjCost(TwoLevelModel(0.85, 0.85, cards), 10);
  double et_selective = ExpectedDgjCost(TwoLevelModel(0.01, 0.01, cards), 10);
  EXPECT_LT(et_unselective, regular_cost);
  EXPECT_GT(et_selective, regular_cost);
}

TEST(CostModelTest, ExplainChoiceMentionsWinner) {
  EXPECT_NE(ExplainChoice(1.0, 2.0).find("ET"), std::string::npos);
  EXPECT_NE(ExplainChoice(3.0, 2.0).find("regular"), std::string::npos);
}

// --- System-R join enumeration (Section 5.4.1) --------------------------------

QuerySpec TopologyChainSpec(double rho_a, double rho_b, size_t groups,
                            double card_per_group) {
  QuerySpec spec;
  RelationSpec driver;
  driver.name = "TopoInfo";
  driver.cardinality = static_cast<double>(groups);
  spec.relations.push_back(driver);
  RelationSpec a;
  a.name = "Protein";
  a.cardinality = 20000;
  a.predicate_selectivity = rho_a;
  spec.relations.push_back(a);
  RelationSpec b;
  b.name = "DNA";
  b.cardinality = 15000;
  b.predicate_selectivity = rho_b;
  spec.relations.push_back(b);
  spec.joins = {{0, 1}, {0, 2}};
  spec.k = 10;
  spec.group_cards.assign(groups, card_per_group);
  return spec;
}

TEST(JoinEnumTest, PicksEtPlanForUnselectivePredicates) {
  PlanChoice choice = OptimizeJoinOrder(TopologyChainSpec(0.85, 0.85, 400,
                                                          300.0));
  EXPECT_TRUE(choice.early_termination);
  for (JoinAlg alg : choice.algs) {
    EXPECT_TRUE(alg == JoinAlg::kIdgj || alg == JoinAlg::kHdgj);
  }
}

TEST(JoinEnumTest, PicksRegularPlanForSelectivePredicates) {
  PlanChoice choice = OptimizeJoinOrder(TopologyChainSpec(0.005, 0.005, 400,
                                                          300.0));
  EXPECT_FALSE(choice.early_termination);
}

TEST(JoinEnumTest, DriverAlwaysFirst) {
  PlanChoice choice = OptimizeJoinOrder(TopologyChainSpec(0.5, 0.5, 50,
                                                          10.0));
  ASSERT_FALSE(choice.order.empty());
  EXPECT_EQ(choice.order[0], 0u);
  EXPECT_EQ(choice.order.size(), 3u);
  EXPECT_EQ(choice.algs.size(), 2u);
}

TEST(JoinEnumTest, RespectsMissingIndexes) {
  QuerySpec spec = TopologyChainSpec(0.9, 0.9, 100, 100.0);
  spec.relations[1].has_index = false;
  spec.relations[2].has_index = false;
  PlanChoice choice = OptimizeJoinOrder(spec);
  // Without indexes IDGJ/IndexNL are inadmissible; hash joins, sort-merge
  // joins (or HDGJ) must carry the plan.
  for (JoinAlg alg : choice.algs) {
    EXPECT_TRUE(alg == JoinAlg::kHashJoin || alg == JoinAlg::kSortMerge ||
                alg == JoinAlg::kHdgj);
  }
}

TEST(JoinEnumTest, PlanToStringReadable) {
  QuerySpec spec = TopologyChainSpec(0.5, 0.5, 10, 5.0);
  PlanChoice choice = OptimizeJoinOrder(spec);
  std::string s = choice.ToString(spec);
  EXPECT_NE(s.find("TopoInfo"), std::string::npos);
  EXPECT_NE(s.find("cost="), std::string::npos);
}

TEST(JoinEnumTest, SortMergeEntersTheSearchSpace) {
  EXPECT_STREQ(JoinAlgToString(JoinAlg::kSortMerge), "SortMerge");
  // A regular plan must exist even when only sort-merge and hash join are
  // admissible, and its cost must be finite.
  QuerySpec spec = TopologyChainSpec(0.01, 0.01, 200, 500.0);
  spec.relations[1].has_index = false;
  spec.relations[2].has_index = false;
  PlanChoice choice = OptimizeJoinOrder(spec);
  EXPECT_FALSE(choice.early_termination);
  EXPECT_LT(choice.cost, std::numeric_limits<double>::infinity());
}

TEST(JoinEnumTest, SingleRelationQuery) {
  QuerySpec spec;
  RelationSpec driver;
  driver.name = "OnlyOne";
  driver.cardinality = 5;
  spec.relations.push_back(driver);
  spec.group_cards = {1, 1, 1, 1, 1};
  PlanChoice choice = OptimizeJoinOrder(spec);
  EXPECT_EQ(choice.order.size(), 1u);
  EXPECT_TRUE(choice.algs.empty());
}

}  // namespace
}  // namespace optimizer
}  // namespace tsb
