#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "storage/catalog.h"
#include "storage/column.h"
#include "storage/index.h"
#include "storage/predicate.h"
#include "storage/table.h"
#include "storage/value.h"

namespace tsb {
namespace storage {
namespace {

TableSchema ProteinSchema() {
  return TableSchema(
      {{"ID", ColumnType::kInt64}, {"DESC", ColumnType::kString}});
}

// --- Value -----------------------------------------------------------------

TEST(ValueTest, TypePredicates) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(int64_t{3}).is_int64());
  EXPECT_TRUE(Value(2.5).is_double());
  EXPECT_TRUE(Value("x").is_string());
}

TEST(ValueTest, AccessorsRoundTrip) {
  EXPECT_EQ(Value(int64_t{-7}).AsInt64(), -7);
  EXPECT_DOUBLE_EQ(Value(1.25).AsDouble(), 1.25);
  EXPECT_EQ(Value("abc").AsString(), "abc");
}

TEST(ValueTest, EqualityAndOrdering) {
  EXPECT_EQ(Value(int64_t{1}), Value(int64_t{1}));
  EXPECT_FALSE(Value(int64_t{1}) == Value(int64_t{2}));
  EXPECT_TRUE(Value(int64_t{1}) < Value(int64_t{2}));
  EXPECT_TRUE(Value("a") < Value("b"));
  // Null sorts before everything.
  EXPECT_TRUE(Value() < Value(int64_t{0}));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value("abc").Hash(), Value("abc").Hash());
  EXPECT_NE(Value("abc").Hash(), Value("abd").Hash());
  EXPECT_NE(Value(int64_t{1}).Hash(), Value(1.0).Hash());
}

TEST(ValueTest, ToStringRenders) {
  EXPECT_EQ(Value(int64_t{42}).ToString(), "42");
  EXPECT_EQ(Value("hi").ToString(), "hi");
  EXPECT_EQ(Value().ToString(), "NULL");
}

// --- Column ------------------------------------------------------------------

TEST(ColumnTest, TypedAppendAndGet) {
  Column c(ColumnType::kInt64);
  c.AppendInt64(10);
  c.AppendInt64(20);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.GetInt64(1), 20);
  EXPECT_EQ(c.GetValue(0).AsInt64(), 10);
}

TEST(ColumnTest, StringStorage) {
  Column c(ColumnType::kString);
  c.AppendString("a");
  c.AppendValue(Value("b"));
  EXPECT_EQ(c.GetString(1), "b");
  EXPECT_GT(c.MemoryBytes(), 0u);
}

// --- Table ------------------------------------------------------------------

TEST(TableTest, AppendAndRead) {
  Table t("Protein", ProteinSchema());
  ASSERT_TRUE(t.AppendRow({Value(int64_t{1}), Value("alpha")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(int64_t{2}), Value("beta")}).ok());
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.GetInt64(0, 0), 1);
  EXPECT_EQ(t.GetString(1, 1), "beta");
  Tuple row = t.GetRow(1);
  EXPECT_EQ(row[0].AsInt64(), 2);
}

TEST(TableTest, RejectsWrongArity) {
  Table t("Protein", ProteinSchema());
  EXPECT_EQ(t.AppendRow({Value(int64_t{1})}).code(),
            StatusCode::kInvalidArgument);
}

TEST(TableTest, RejectsWrongType) {
  Table t("Protein", ProteinSchema());
  EXPECT_EQ(t.AppendRow({Value("oops"), Value("alpha")}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST(TableSchemaTest, FindColumn) {
  TableSchema s = ProteinSchema();
  EXPECT_EQ(s.FindColumn("DESC").value(), 1u);
  EXPECT_FALSE(s.FindColumn("nope").has_value());
  EXPECT_EQ(s.ColumnIndexOrDie("ID"), 0u);
}

// --- Predicates ---------------------------------------------------------------

class PredicateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = std::make_unique<Table>("Protein", ProteinSchema());
    table_->AppendRowOrDie({Value(int64_t{1}), Value("alpha enzyme")});
    table_->AppendRowOrDie({Value(int64_t{2}), Value("beta kinase")});
    table_->AppendRowOrDie({Value(int64_t{3}), Value("gamma enzyme kinase")});
  }
  std::unique_ptr<Table> table_;
};

TEST_F(PredicateTest, TrueMatchesAll) {
  EXPECT_EQ(CountRows(*table_, *MakeTrue()), 3u);
}

TEST_F(PredicateTest, EqualsInt64) {
  auto p = MakeEquals(table_->schema(), "ID", Value(int64_t{2}));
  auto rows = FilterRows(*table_, *p);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], 1u);
}

TEST_F(PredicateTest, MistypedOrNullEqualityMatchesNoRow) {
  // A value whose type disagrees with the column, or a null value, equals
  // no row; NOT of it matches every row.
  for (const PredicateRef& p :
       {MakeEquals(table_->schema(), "ID", Value("2")),
        MakeEquals(table_->schema(), "DESC", Value(int64_t{2})),
        MakeEquals(table_->schema(), "ID", Value(2.0)),
        MakeEquals(table_->schema(), "ID", Value())}) {
    EXPECT_EQ(CountRows(*table_, *p), 0u);
    EXPECT_EQ(CountRows(*table_, *MakeNot(p)), 3u);
  }
}

TEST_F(PredicateTest, ContainsKeyword) {
  auto p = MakeContainsKeyword(table_->schema(), "DESC", "enzyme");
  EXPECT_EQ(CountRows(*table_, *p), 2u);
}

TEST_F(PredicateTest, BooleanCombinators) {
  auto enzyme = MakeContainsKeyword(table_->schema(), "DESC", "enzyme");
  auto kinase = MakeContainsKeyword(table_->schema(), "DESC", "kinase");
  EXPECT_EQ(CountRows(*table_, *MakeAnd(enzyme, kinase)), 1u);
  EXPECT_EQ(CountRows(*table_, *MakeOr(enzyme, kinase)), 3u);
  EXPECT_EQ(CountRows(*table_, *MakeNot(enzyme)), 1u);
}

TEST_F(PredicateTest, Int64Between) {
  auto p = MakeInt64Between(table_->schema(), "ID", 2, 3);
  EXPECT_EQ(CountRows(*table_, *p), 2u);
}

TEST_F(PredicateTest, SelectivityRatio) {
  auto p = MakeContainsKeyword(table_->schema(), "DESC", "kinase");
  EXPECT_NEAR(Selectivity(*table_, *p), 2.0 / 3.0, 1e-12);
}

// --- Indexes -------------------------------------------------------------------

TEST(HashIndexTest, LookupByKey) {
  Table t("Edge", TableSchema({{"ID", ColumnType::kInt64},
                               {"FK", ColumnType::kInt64}}));
  t.AppendRowOrDie({Value(int64_t{1}), Value(int64_t{10})});
  t.AppendRowOrDie({Value(int64_t{2}), Value(int64_t{10})});
  t.AppendRowOrDie({Value(int64_t{3}), Value(int64_t{20})});
  HashIndex idx(t, "FK");
  EXPECT_EQ(idx.Lookup(10).size(), 2u);
  EXPECT_EQ(idx.Lookup(20).size(), 1u);
  EXPECT_TRUE(idx.Lookup(99).empty());
  EXPECT_EQ(idx.DistinctKeys(), 2u);
}

TEST(KeywordIndexTest, LookupByToken) {
  Table t("Protein", ProteinSchema());
  t.AppendRowOrDie({Value(int64_t{1}), Value("alpha enzyme")});
  t.AppendRowOrDie({Value(int64_t{2}), Value("Enzyme enzyme beta")});
  std::shared_ptr<const KeywordIndex> idx = t.KeywordPostings(1);
  // Duplicate tokens within a row are deduplicated.
  EXPECT_EQ(idx->Lookup("enzyme").size(), 2u);
  EXPECT_EQ(idx->Lookup("ENZYME").size(), 2u);
  EXPECT_TRUE(idx->Lookup("gamma").empty());
  EXPECT_EQ(idx->num_rows(), 2u);
  // Cached until the table grows; an append makes the next use rebuild.
  EXPECT_EQ(t.KeywordPostings(1), idx);
  t.AppendRowOrDie({Value(int64_t{3}), Value("gamma")});
  EXPECT_EQ(t.KeywordPostings(1)->Lookup("gamma"),
            std::vector<RowIdx>{2});
}

// --- Keyword verdicts ---------------------------------------------------------

/// Random texts over pieces that exercise the `.ct()` token analysis: mixed
/// case, digits, punctuation glued to words, bytes >= 0x80, empty strings.
std::string RandomText(Rng* rng) {
  static const std::vector<std::string> kPieces = {
      "kinase", "Kinase", "KINASE", "e2", "E2B", "abc", "ab",
      "x",      "123",    "-",      ",",  "(",   ")",   "'",
      " ",      "  ",     "\t",     "_",  "a-b", "\xff",
      "\xc3\xa9", "caf\xc3\xa9"};
  std::string text;
  const int64_t pieces = rng->NextInt(0, 6);
  for (int64_t i = 0; i < pieces; ++i) {
    text += rng->Pick(kPieces);
    if (rng->NextBool(0.5)) text += ' ';
  }
  return text;
}

const std::vector<std::string>& Needles() {
  static const std::vector<std::string> kNeedles = {
      "",    "kinase", "KINASE",    "Kinase", "e2",      "E2B",
      "e2b", "ab",     "abc",       "123",    "a-b",     "kinase e2",
      "caf", "x",      "missing",   "_",      "\xc3\xa9", "caf\xc3\xa9"};
  return kNeedles;
}

/// Checks every evaluator against ContainsKeyword-derived `expected`.
void ExpectAllEvaluatorsAgree(const Table& t, const Predicate& pred,
                              const std::vector<bool>& expected,
                              const std::string& label) {
  ASSERT_EQ(expected.size(), t.num_rows()) << label;
  std::vector<uint8_t> mask;
  CompilePredicate(pred).EvalAll(t, &mask);
  ASSERT_EQ(mask.size(), t.num_rows()) << label;
  std::vector<RowIdx> rows;
  for (size_t i = 0; i < expected.size(); ++i) {
    const RowIdx row = static_cast<RowIdx>(i);
    EXPECT_EQ(mask[i] != 0, expected[i]) << label << " row " << i;
    if (expected[i]) rows.push_back(row);
  }
  EXPECT_EQ(FilterRows(t, pred), rows) << label;
  EXPECT_EQ(CountRows(t, pred), rows.size()) << label;
}

void ExpectKeywordVerdictsAgree(const Table& t) {
  const std::vector<std::string>& texts = t.column(1).strings();
  auto contains = [&](const std::string& needle) {
    std::vector<bool> out;
    for (const std::string& text : texts) {
      out.push_back(ContainsKeyword(text, needle));
    }
    return out;
  };
  for (const std::string& needle : Needles()) {
    ExpectAllEvaluatorsAgree(
        t, *MakeContainsKeyword(t.schema(), "DESC", needle),
        contains(needle), "ct('" + needle + "')");
  }
  // Boolean combinations over pairs of needles.
  for (const std::string& n1 : {"kinase", "e2b", "", "a-b"}) {
    for (const std::string& n2 : {"ab", "123", "caf"}) {
      PredicateRef p1 = MakeContainsKeyword(t.schema(), "DESC", n1);
      PredicateRef p2 = MakeContainsKeyword(t.schema(), "DESC", n2);
      const std::vector<bool> v1 = contains(n1);
      const std::vector<bool> v2 = contains(n2);
      std::vector<bool> and_v, or_v, not_v;
      for (size_t i = 0; i < v1.size(); ++i) {
        and_v.push_back(v1[i] && v2[i]);
        or_v.push_back(v1[i] || v2[i]);
        not_v.push_back(!v1[i]);
      }
      const std::string tag = "'" + n1 + "','" + n2 + "'";
      ExpectAllEvaluatorsAgree(t, *MakeAnd(p1, p2), and_v, "AND " + tag);
      ExpectAllEvaluatorsAgree(t, *MakeOr(p1, p2), or_v, "OR " + tag);
      ExpectAllEvaluatorsAgree(t, *MakeNot(p1), not_v, "NOT " + tag);
    }
  }
}

TEST(KeywordVerdictTest, AllEvaluatorsAgreeOnGeneratedTexts) {
  Rng rng(19);
  Table t("Protein", ProteinSchema());
  for (int64_t i = 0; i < 300; ++i) {
    t.AppendRowOrDie({Value(i), Value(RandomText(&rng))});
  }
  ExpectKeywordVerdictsAgree(t);
  // Appends after the postings exist must be visible to the next query.
  ASSERT_EQ(t.KeywordPostings(1)->num_rows(), 300u);
  for (int64_t i = 300; i < 380; ++i) {
    t.AppendRowOrDie({Value(i), Value(RandomText(&rng))});
  }
  t.AppendRowOrDie({Value(int64_t{380}), Value("KINASE e2b abc")});
  ExpectKeywordVerdictsAgree(t);
  EXPECT_EQ(t.KeywordPostings(1)->num_rows(), 381u);
}

TEST(KeywordVerdictTest, ConcurrentFirstUseOnFreshTable) {
  Table t("Protein", ProteinSchema());
  for (int64_t i = 0; i < 2000; ++i) {
    t.AppendRowOrDie(
        {Value(i), Value("w" + std::to_string(i % 7) + " text")});
  }
  PredicateRef pred = MakeContainsKeyword(t.schema(), "DESC", "W3");
  size_t expected = 0;
  for (const std::string& text : t.column(1).strings()) {
    if (ContainsKeyword(text, "w3")) ++expected;
  }
  constexpr int kThreads = 4;
  std::atomic<int> ready{0};
  std::vector<size_t> counts(kThreads, 0);
  std::vector<std::shared_ptr<const KeywordIndex>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      counts[i] = CountRows(t, *pred);
      seen[i] = t.KeywordPostings(1);
    });
  }
  for (std::thread& th : threads) th.join();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(counts[i], expected);
    EXPECT_EQ(seen[i], seen[0]);  // One build, shared by every reader.
  }
}

// --- Catalog ------------------------------------------------------------------

TEST(CatalogTest, CreateAndDropTables) {
  Catalog db;
  ASSERT_TRUE(db.CreateTable("T", ProteinSchema()).ok());
  EXPECT_FALSE(db.CreateTable("T", ProteinSchema()).ok());  // Duplicate.
  EXPECT_NE(db.FindTable("T"), nullptr);
  ASSERT_TRUE(db.DropTable("T").ok());
  EXPECT_EQ(db.FindTable("T"), nullptr);
  EXPECT_FALSE(db.DropTable("T").ok());
}

TEST(CatalogTest, RegisterEntityAndRelationshipSets) {
  Catalog db;
  ASSERT_TRUE(db.CreateTable("Protein", ProteinSchema()).ok());
  ASSERT_TRUE(db.CreateTable("DNA", ProteinSchema()).ok());
  ASSERT_TRUE(db.CreateTable("Encodes",
                             TableSchema({{"ID", ColumnType::kInt64},
                                          {"PID", ColumnType::kInt64},
                                          {"DID", ColumnType::kInt64}}))
                  .ok());
  auto p = db.RegisterEntitySet("Protein", "Protein", "ID");
  auto d = db.RegisterEntitySet("DNA", "DNA", "ID");
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(d.ok());
  auto rel = db.RegisterRelationshipSet("Encodes", "Encodes", "ID", "PID",
                                        p.value(), "DID", d.value());
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(db.entity_sets().size(), 2u);
  EXPECT_EQ(db.relationship_sets().size(), 1u);
  EXPECT_EQ(db.FindEntitySet("DNA")->id, d.value());
  EXPECT_EQ(db.FindRelationshipSet("Encodes")->from_type, p.value());
}

TEST(CatalogTest, RejectsBadRegistrations) {
  Catalog db;
  EXPECT_FALSE(db.RegisterEntitySet("X", "NoTable", "ID").ok());
  ASSERT_TRUE(db.CreateTable("T", ProteinSchema()).ok());
  EXPECT_FALSE(db.RegisterEntitySet("X", "T", "NOPE").ok());
}

TEST(CatalogTest, IndexCachingAndInvalidation) {
  Catalog db;
  Table* t = db.CreateTable("T", ProteinSchema()).value();
  t->AppendRowOrDie({Value(int64_t{1}), Value("x")});
  const HashIndex& i1 = db.GetOrBuildHashIndex("T", "ID");
  const HashIndex& i2 = db.GetOrBuildHashIndex("T", "ID");
  EXPECT_EQ(&i1, &i2);  // Cached.
  db.InvalidateIndexes("T");
  const HashIndex& i3 = db.GetOrBuildHashIndex("T", "ID");
  EXPECT_EQ(i3.num_keys(), 1u);
}

TEST(CatalogTest, ConcurrentFirstHashIndexBuildKeepsOne) {
  Catalog db;
  Table* t = db.CreateTable("T", ProteinSchema()).value();
  for (int64_t i = 0; i < 1000; ++i) {
    t->AppendRowOrDie({Value(i % 10), Value("x")});
  }
  constexpr int kThreads = 4;
  std::atomic<int> ready{0};
  std::vector<const HashIndex*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      seen[i] = &db.GetOrBuildHashIndex("T", "ID");
    });
  }
  for (std::thread& th : threads) th.join();
  for (const HashIndex* index : seen) EXPECT_EQ(index, seen[0]);
  EXPECT_EQ(seen[0], &db.GetOrBuildHashIndex("T", "ID"));
  EXPECT_EQ(seen[0]->Lookup(3).size(), 100u);
}

TEST(CatalogTest, MemoryAccounting) {
  Catalog db;
  Table* t = db.CreateTable("AllTops_X", ProteinSchema()).value();
  t->AppendRowOrDie({Value(int64_t{1}), Value("some description")});
  EXPECT_GT(db.MemoryBytesWithPrefix("AllTops_"), 0u);
  EXPECT_EQ(db.MemoryBytesWithPrefix("LeftTops_"), 0u);
}

}  // namespace
}  // namespace storage
}  // namespace tsb
