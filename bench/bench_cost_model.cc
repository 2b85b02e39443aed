// Ablation for the Section-5.4 optimizer: does the DGJ cost model pick the
// right plan? For each cell of the selectivity grid we measure the actual
// runtimes of Fast-Top-k (regular) and Fast-Top-k-ET (early termination),
// derive the ground-truth winner, and compare with the optimizer's choice
// (visible in Fast-Top-k-Opt's plan string). Reproduces the claim that the
// -Opt methods "almost always make the right choice".
//
// Every method runs with the columnar path off: the model prices the row
// plans (the Figure-14 join and the Figure-15 DGJ plans). With it on, the
// regular and ET variants share one block cursor and loop, so their two
// timings would measure the same plan twice.
//
// Flags: --scale=<f>.

#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "common/table_printer.h"

namespace tsb {
namespace bench {
namespace {

constexpr const char* kTiers[] = {"selective", "medium", "unselective"};

void Run(int argc, char** argv) {
  WorldConfig config;
  config.scale = FlagValue(argc, argv, "scale", 1.0);
  config.pairs = {{"Protein", "Interaction"}};
  std::printf("Building synthetic Biozon (scale=%.2f)...\n\n", config.scale);
  std::unique_ptr<World> world = MakeWorld(config);

  struct Variant {
    const char* label;
    engine::MethodKind regular;
    engine::MethodKind et;
    engine::MethodKind opt;
  };
  engine::ExecOptions row_plans;
  row_plans.use_columnar = false;
  const Variant variants[] = {
      {"Full", engine::MethodKind::kFullTopK, engine::MethodKind::kFullTopKEt,
       engine::MethodKind::kFullTopKOpt},
      {"Fast", engine::MethodKind::kFastTopK, engine::MethodKind::kFastTopKEt,
       engine::MethodKind::kFastTopKOpt},
  };

  size_t agreements = 0;
  size_t cells = 0;
  for (const Variant& variant : variants) {
    TablePrinter table({"protein", "interaction", "regular ms", "ET ms",
                        "measured best", "optimizer chose", "agrees?",
                        "opt ms"});
    for (const char* protein_tier : kTiers) {
      for (const char* interaction_tier : kTiers) {
        engine::TopologyQuery q;
        q.entity_set1 = "Protein";
        q.pred1 =
            biozon::SelectivityPredicate(world->db, "Protein", protein_tier);
        q.entity_set2 = "Interaction";
        q.pred2 = biozon::SelectivityPredicate(world->db, "Interaction",
                                               interaction_tier);
        q.scheme = core::RankScheme::kFreq;
        q.k = 10;

        auto time_ms = [&](engine::MethodKind method) {
          return MeasureSeconds([&] {
                   TSB_CHECK(
                       world->engine->Execute(q, method, row_plans).ok());
                 }) *
                 1e3;
        };
        const double regular_ms = time_ms(variant.regular);
        const double et_ms = time_ms(variant.et);
        auto opt_result = world->engine->Execute(q, variant.opt, row_plans);
        TSB_CHECK(opt_result.ok());
        const double opt_ms = time_ms(variant.opt);

        const char* measured_best = regular_ms <= et_ms ? "regular" : "ET";
        bool chose_et =
            opt_result->stats.plan.find("choice=ET") != std::string::npos;
        const char* chosen = chose_et ? "ET" : "regular";
        // Count near-ties (within 20%) as agreement: either choice is fine.
        bool agree =
            std::string(measured_best) == chosen ||
            std::abs(regular_ms - et_ms) <=
                0.2 * std::max(regular_ms, et_ms);
        if (agree) ++agreements;
        ++cells;
        table.AddRow({protein_tier, interaction_tier,
                      TablePrinter::Num(regular_ms, 2),
                      TablePrinter::Num(et_ms, 2), measured_best, chosen,
                      agree ? "yes" : "NO", TablePrinter::Num(opt_ms, 2)});
      }
    }
    std::printf("=== %s-Top-k variants ===\n", variant.label);
    table.Print(std::cout);
    std::printf("\n");
  }
  std::printf("optimizer agreement: %zu/%zu cells\n", agreements, cells);
}

}  // namespace
}  // namespace bench
}  // namespace tsb

int main(int argc, char** argv) {
  tsb::bench::Run(argc, argv);
  return 0;
}
