// The Distinct Group Join operators of Section 5.3 (IDGJ, HDGJ and the
// grouped source beneath them) on a small grouped fixture, with the
// pushed-down predicates arriving as row-verdict masks.

#include <gtest/gtest.h>

#include <memory>

#include "exec/dgj.h"
#include "exec/operator.h"
#include "storage/catalog.h"
#include "storage/predicate.h"

namespace tsb {
namespace exec {
namespace {

using storage::ColumnType;
using storage::TableSchema;
using storage::Value;

/// Fixture: an entity table and a grouped "Tops" table mirroring the
/// topology plans' shapes.
class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage::Table* ent =
        db_.CreateTable("Ent", TableSchema({{"ID", ColumnType::kInt64},
                                            {"DESC", ColumnType::kString}}))
            .value();
    ent->AppendRowOrDie({Value(int64_t{1}), Value("alpha enzyme")});
    ent->AppendRowOrDie({Value(int64_t{2}), Value("beta")});
    ent->AppendRowOrDie({Value(int64_t{3}), Value("gamma enzyme")});
    ent->AppendRowOrDie({Value(int64_t{4}), Value("delta")});

    storage::Table* tops =
        db_.CreateTable("Tops", TableSchema({{"E1", ColumnType::kInt64},
                                             {"E2", ColumnType::kInt64},
                                             {"TID", ColumnType::kInt64}}))
            .value();
    // Groups by TID: 10 -> two rows, 20 -> one row, 30 -> two rows.
    tops->AppendRowOrDie(
        {Value(int64_t{1}), Value(int64_t{2}), Value(int64_t{10})});
    tops->AppendRowOrDie(
        {Value(int64_t{3}), Value(int64_t{4}), Value(int64_t{10})});
    tops->AppendRowOrDie(
        {Value(int64_t{2}), Value(int64_t{4}), Value(int64_t{20})});
    tops->AppendRowOrDie(
        {Value(int64_t{1}), Value(int64_t{4}), Value(int64_t{30})});
    tops->AppendRowOrDie(
        {Value(int64_t{3}), Value(int64_t{2}), Value(int64_t{30})});
  }

  /// Row verdicts of a keyword predicate on Ent.DESC, as the engine
  /// evaluates a query side once.
  std::vector<uint8_t> EntMask(const std::string& keyword) const {
    const storage::Table& ent = *db_.GetTable("Ent");
    std::vector<uint8_t> mask;
    storage::CompilePredicate(
        *storage::MakeContainsKeyword(ent.schema(), "DESC", keyword))
        .EvalAll(ent, &mask);
    return mask;
  }

  std::unique_ptr<GroupSourceOp> TidSource() {
    // Three groups in "score order" 30, 20, 10.
    std::vector<Tuple> groups = {
        {Value(int64_t{30}), Value(3.0)},
        {Value(int64_t{20}), Value(2.0)},
        {Value(int64_t{10}), Value(1.0)},
    };
    return std::make_unique<GroupSourceOp>(
        std::move(groups), OutputSchema({"TI.TID", "TI.SCORE"}));
  }

  /// Level 0 of every plan: each group expanded into its Tops rows.
  std::unique_ptr<GroupedOperator> ExpandTops() {
    const storage::HashIndex& tid_index =
        db_.GetOrBuildHashIndex("Tops", "TID");
    return std::make_unique<IdgjOp>(TidSource(), db_.GetTable("Tops"),
                                    &tid_index, "T", "TI.TID");
  }

  storage::Catalog db_;
};

TEST_F(ExecTest, GroupSourceOneTuplePerGroup) {
  auto source = TidSource();
  source->Open();
  Tuple t;
  ASSERT_TRUE(source->Next(&t));
  EXPECT_EQ(t[0].AsInt64(), 30);
  source->AdvanceToNextGroup();  // No-op for single-tuple groups.
  ASSERT_TRUE(source->Next(&t));
  EXPECT_EQ(t[0].AsInt64(), 20);
}

TEST_F(ExecTest, IdgjExpandsGroupsInOrder) {
  auto idgj = ExpandTops();
  auto rows = RunToVector(idgj.get());
  ASSERT_EQ(rows.size(), 5u);
  // Group order preserved: TID 30 rows, then 20, then 10.
  size_t tid_col = idgj->schema().IndexOf("T.TID");
  EXPECT_EQ(rows[0][tid_col].AsInt64(), 30);
  EXPECT_EQ(rows[1][tid_col].AsInt64(), 30);
  EXPECT_EQ(rows[2][tid_col].AsInt64(), 20);
  EXPECT_EQ(rows[3][tid_col].AsInt64(), 10);
  // The group source's columns lead every joined tuple.
  EXPECT_EQ(idgj->schema().IndexOf("TI.TID"), 0u);
  EXPECT_EQ(idgj->schema().IndexOf("TI.SCORE"), 1u);
}

TEST_F(ExecTest, OperatorsAreReopenable) {
  auto idgj = ExpandTops();
  EXPECT_EQ(RunToVector(idgj.get()).size(), 5u);
  EXPECT_EQ(RunToVector(idgj.get()).size(), 5u);  // Open() resets.
}

TEST_F(ExecTest, IdgjAdvanceSkipsRestOfGroup) {
  auto idgj = ExpandTops();
  idgj->Open();
  Tuple t;
  ASSERT_TRUE(idgj->Next(&t));
  EXPECT_EQ(t[idgj->schema().IndexOf("T.TID")].AsInt64(), 30);
  idgj->AdvanceToNextGroup();
  ASSERT_TRUE(idgj->Next(&t));
  EXPECT_EQ(t[idgj->schema().IndexOf("T.TID")].AsInt64(), 20);
}

TEST_F(ExecTest, StackedIdgjReadsTheMask) {
  const storage::HashIndex& id_index = db_.GetOrBuildHashIndex("Ent", "ID");
  const std::vector<uint8_t> enzyme = EntMask("enzyme");
  ASSERT_EQ(enzyme, (std::vector<uint8_t>{1, 0, 1, 0}));
  auto plan = std::make_unique<IdgjOp>(ExpandTops(), db_.GetTable("Ent"),
                                       &id_index, "R1", "T.E1", &enzyme);
  auto rows = RunToVector(plan.get());
  // Qualifying rows: E1 in {1, 3}: (1,4,30), (3,2,30), (1,2,10), (3,4,10).
  EXPECT_EQ(rows.size(), 4u);
  // Both levels' counters sum through the tree: three group probes plus
  // five entity probes, and every matched row is visited once per level.
  OpCounters total = plan->TreeCounters();
  EXPECT_EQ(total.probes, 8u);
  EXPECT_EQ(total.rows_scanned, 10u);
}

TEST_F(ExecTest, EmptyMaskAdmitsNothing) {
  const storage::HashIndex& id_index = db_.GetOrBuildHashIndex("Ent", "ID");
  const std::vector<uint8_t> none = EntMask("nothingmatches");
  auto idgj = std::make_unique<IdgjOp>(ExpandTops(), db_.GetTable("Ent"),
                                       &id_index, "R1", "T.E1", &none);
  EXPECT_TRUE(RunToVector(idgj.get()).empty());
  auto hdgj = std::make_unique<HdgjOp>(ExpandTops(), db_.GetTable("Ent"),
                                       "R1", "ID", "T.E1", "TI.TID", &none);
  EXPECT_TRUE(RunToVector(hdgj.get()).empty());
}

TEST_F(ExecTest, FirstTuplePerGroupStopsAtK) {
  auto plan = ExpandTops();
  auto firsts = FirstTuplePerGroup(plan.get(), "TI.TID", 2);
  ASSERT_EQ(firsts.size(), 2u);
  EXPECT_EQ(firsts[0][0].AsInt64(), 30);
  EXPECT_EQ(firsts[1][0].AsInt64(), 20);
  // Early termination: group 10 was never expanded.
  EXPECT_LT(plan->counters().probes, 3u);
}

TEST_F(ExecTest, HdgjMatchesIdgjResults) {
  const std::vector<uint8_t> enzyme = EntMask("enzyme");
  auto make_plan = [&](bool hdgj) -> std::unique_ptr<GroupedOperator> {
    if (hdgj) {
      return std::make_unique<HdgjOp>(ExpandTops(), db_.GetTable("Ent"),
                                      "R1", "ID", "T.E1", "TI.TID", &enzyme);
    }
    const storage::HashIndex& id_index = db_.GetOrBuildHashIndex("Ent", "ID");
    return std::make_unique<IdgjOp>(ExpandTops(), db_.GetTable("Ent"),
                                    &id_index, "R1", "T.E1", &enzyme);
  };
  auto idgj_plan = make_plan(false);
  auto hdgj_plan = make_plan(true);
  auto idgj_rows = RunToVector(idgj_plan.get());
  auto hdgj_rows = RunToVector(hdgj_plan.get());
  ASSERT_EQ(idgj_rows.size(), 4u);
  ASSERT_EQ(idgj_rows.size(), hdgj_rows.size());
  for (size_t i = 0; i < idgj_rows.size(); ++i) {
    EXPECT_EQ(idgj_rows[i][0].AsInt64(), hdgj_rows[i][0].AsInt64());
  }
}

TEST_F(ExecTest, HdgjRebuildsPerGroup) {
  auto hdgj = std::make_unique<HdgjOp>(ExpandTops(), db_.GetTable("Ent"),
                                       "R1", "ID", "T.E1", "TI.TID");
  RunToVector(hdgj.get());
  // Three groups -> three hash builds over the inner relation (the
  // signature overhead the Section-5.4 cost model charges HDGJ for).
  EXPECT_EQ(hdgj->counters().builds, 3u);
  EXPECT_EQ(hdgj->counters().rows_scanned, 12u);  // 3 rebuilds x 4 rows.
}

// --- Edge cases ---------------------------------------------------------------

TEST_F(ExecTest, IdgjWithNoIndexMatches) {
  // Groups whose TIDs do not exist in the Tops table produce nothing.
  std::vector<Tuple> groups = {{Value(int64_t{999}), Value(1.0)}};
  auto source = std::make_unique<GroupSourceOp>(
      std::move(groups), OutputSchema({"TI.TID", "TI.SCORE"}));
  const storage::HashIndex& tid_index = db_.GetOrBuildHashIndex("Tops", "TID");
  auto idgj = std::make_unique<IdgjOp>(std::move(source),
                                       db_.GetTable("Tops"), &tid_index, "T",
                                       "TI.TID");
  EXPECT_TRUE(RunToVector(idgj.get()).empty());
  EXPECT_EQ(idgj->counters().probes, 1u);
}

TEST_F(ExecTest, FirstTuplePerGroupWithKBeyondGroups) {
  auto plan = ExpandTops();
  auto firsts = FirstTuplePerGroup(plan.get(), "TI.TID", 100);
  EXPECT_EQ(firsts.size(), 3u);  // Only three groups exist.
}

TEST_F(ExecTest, HdgjAdvanceAfterFirstTuple) {
  auto hdgj = std::make_unique<HdgjOp>(ExpandTops(), db_.GetTable("Ent"),
                                       "R1", "ID", "T.E1", "TI.TID");
  hdgj->Open();
  Tuple t;
  ASSERT_TRUE(hdgj->Next(&t));
  size_t tid_col = hdgj->schema().IndexOf("T.TID");
  EXPECT_EQ(t[tid_col].AsInt64(), 30);
  hdgj->AdvanceToNextGroup();
  ASSERT_TRUE(hdgj->Next(&t));
  EXPECT_EQ(t[tid_col].AsInt64(), 20);
}

}  // namespace
}  // namespace exec
}  // namespace tsb
