// Micro-benchmarks (google-benchmark) for the Section-5.3 operator family:
// IDGJ versus HDGJ on grouped data, including the early-termination
// advantage (first-match-per-group with small k) and the HDGJ per-group
// rebuild overhead.

#include <benchmark/benchmark.h>

#include <memory>

#include "common/rng.h"
#include "exec/dgj.h"
#include "storage/catalog.h"
#include "storage/predicate.h"

namespace tsb {
namespace {

using exec::OutputSchema;
using exec::Tuple;
using storage::ColumnType;
using storage::TableSchema;
using storage::Value;

/// Synthetic grouped fixture: `groups` groups of `group_size` rows each in
/// "Tops", joined against an entity table where a fraction `rho` of rows
/// satisfies the predicate; `mask` holds its row verdicts.
struct Fixture {
  storage::Catalog db;
  std::vector<Tuple> group_tuples;
  std::vector<uint8_t> mask;

  Fixture(size_t groups, size_t group_size, size_t entities, double rho) {
    Rng rng(7);
    storage::Table* ent =
        db.CreateTable("Ent", TableSchema({{"ID", ColumnType::kInt64},
                                           {"DESC", ColumnType::kString}}))
            .value();
    for (size_t i = 0; i < entities; ++i) {
      ent->AppendRowOrDie({Value(static_cast<int64_t>(i)),
                           Value(rng.NextBool(rho) ? "hit word" : "miss")});
    }
    storage::Table* tops =
        db.CreateTable("Tops", TableSchema({{"E1", ColumnType::kInt64},
                                            {"E2", ColumnType::kInt64},
                                            {"TID", ColumnType::kInt64}}))
            .value();
    for (size_t g = 0; g < groups; ++g) {
      for (size_t r = 0; r < group_size; ++r) {
        tops->AppendRowOrDie(
            {Value(static_cast<int64_t>(rng.NextBounded(entities))),
             Value(static_cast<int64_t>(rng.NextBounded(entities))),
             Value(static_cast<int64_t>(g))});
      }
      group_tuples.push_back({Value(static_cast<int64_t>(g)),
                              Value(static_cast<double>(groups - g))});
    }
    storage::CompilePredicate(
        *storage::MakeContainsKeyword(ent->schema(), "DESC", "hit"))
        .EvalAll(*ent, &mask);
    db.GetOrBuildHashIndex("Tops", "TID");
    db.GetOrBuildHashIndex("Ent", "ID");
  }

  std::unique_ptr<exec::GroupedOperator> MakeIdgjPlan() {
    auto source = std::make_unique<exec::GroupSourceOp>(
        group_tuples, OutputSchema({"TI.TID", "TI.SCORE"}));
    std::unique_ptr<exec::GroupedOperator> plan =
        std::make_unique<exec::IdgjOp>(
            std::move(source), db.GetTable("Tops"),
            &db.GetOrBuildHashIndex("Tops", "TID"), "T", "TI.TID");
    return std::make_unique<exec::IdgjOp>(
        std::move(plan), db.GetTable("Ent"),
        &db.GetOrBuildHashIndex("Ent", "ID"), "R1", "T.E1", &mask);
  }

  std::unique_ptr<exec::GroupedOperator> MakeHdgjPlan() {
    auto source = std::make_unique<exec::GroupSourceOp>(
        group_tuples, OutputSchema({"TI.TID", "TI.SCORE"}));
    std::unique_ptr<exec::GroupedOperator> plan =
        std::make_unique<exec::IdgjOp>(
            std::move(source), db.GetTable("Tops"),
            &db.GetOrBuildHashIndex("Tops", "TID"), "T", "TI.TID");
    return std::make_unique<exec::HdgjOp>(std::move(plan),
                                          db.GetTable("Ent"), "R1", "ID",
                                          "T.E1", "TI.TID", &mask);
  }
};

Fixture* SharedFixture() {
  static Fixture* fixture = new Fixture(200, 100, 20000, 0.5);
  return fixture;
}

void BM_IdgjFullScan(benchmark::State& state) {
  Fixture* f = SharedFixture();
  for (auto _ : state) {
    auto plan = f->MakeIdgjPlan();
    benchmark::DoNotOptimize(exec::RunToVector(plan.get()).size());
  }
}
BENCHMARK(BM_IdgjFullScan);

void BM_IdgjFirstMatchPerGroupTop10(benchmark::State& state) {
  Fixture* f = SharedFixture();
  for (auto _ : state) {
    auto plan = f->MakeIdgjPlan();
    benchmark::DoNotOptimize(
        exec::FirstTuplePerGroup(plan.get(), "TI.TID", 10).size());
  }
}
BENCHMARK(BM_IdgjFirstMatchPerGroupTop10);

void BM_HdgjFirstMatchPerGroupTop10(benchmark::State& state) {
  Fixture* f = SharedFixture();
  for (auto _ : state) {
    auto plan = f->MakeHdgjPlan();
    benchmark::DoNotOptimize(
        exec::FirstTuplePerGroup(plan.get(), "TI.TID", 10).size());
  }
}
BENCHMARK(BM_HdgjFirstMatchPerGroupTop10);

}  // namespace
}  // namespace tsb

BENCHMARK_MAIN();
