// Parallel precompute pipeline: wall-clock speedup of the staged
// BuildAllPairs (stage steps fanned over service::ThreadPool, commits in
// canonical pair order) over the sequential build, with byte-identical
// store verification at every thread count. The offline Topology
// Computation module (Section 4.1, Figure 10) dominates total cost on
// Biozon; this is the bench for the pipeline that parallelizes it.
//
// Flags: --scale=<f> (default 0.4), --max-threads=<n> (default
// hardware_concurrency), --l=<n> (default 3).

#include <cstdio>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "core/builder.h"
#include "service/thread_pool.h"

namespace tsb {
namespace bench {
namespace {

struct BuildWorld {
  storage::Catalog db;
  biozon::BiozonSchema ids;
  std::unique_ptr<graph::DataGraphView> view;
  std::unique_ptr<graph::SchemaGraph> schema;
  core::TopologyStore store;
};

std::unique_ptr<BuildWorld> MakeBuildWorld(double scale) {
  auto world = std::make_unique<BuildWorld>();
  biozon::GeneratorConfig gen;
  gen.seed = 42;
  gen.scale = scale;
  world->ids = biozon::GenerateBiozon(gen, &world->db);
  world->view = std::make_unique<graph::DataGraphView>(world->db);
  world->schema = std::make_unique<graph::SchemaGraph>(world->db);
  return world;
}

core::BuildConfig BenchBuildConfig(size_t l) {
  core::BuildConfig config;
  config.max_path_length = l;
  config.max_class_representatives = 8;
  config.max_union_combinations = 512;
  config.max_paths_per_source = 200000;
  return config;
}

/// Dies unless `b` is byte-identical to the reference `a` (TIDs, class
/// registry, table rows, frequency maps).
void CheckIdentical(const BuildWorld& a, const BuildWorld& b) {
  TSB_CHECK_EQ(a.store.catalog().size(), b.store.catalog().size());
  for (core::Tid tid = 1;
       tid <= static_cast<core::Tid>(a.store.catalog().size()); ++tid) {
    TSB_CHECK(a.store.catalog().Get(tid).code ==
              b.store.catalog().Get(tid).code)
        << "TID " << tid << " code mismatch";
    TSB_CHECK(a.store.catalog().ClassKeysOf(tid) ==
              b.store.catalog().ClassKeysOf(tid))
        << "TID " << tid << " class keys mismatch";
  }
  TSB_CHECK_EQ(a.store.pairs().size(), b.store.pairs().size());
  auto ita = a.store.pairs().begin();
  auto itb = b.store.pairs().begin();
  for (; ita != a.store.pairs().end(); ++ita, ++itb) {
    const core::PairTopologyData& pa = ita->second;
    const core::PairTopologyData& pb = itb->second;
    TSB_CHECK(pa.freq == pb.freq) << pa.pair_name << " freq mismatch";
    TSB_CHECK_EQ(pa.classes.size(), pb.classes.size());
    for (size_t c = 0; c < pa.classes.size(); ++c) {
      TSB_CHECK_EQ(pa.classes[c].path_tid, pb.classes[c].path_tid);
      TSB_CHECK_EQ(pa.classes[c].instance_pairs,
                   pb.classes[c].instance_pairs);
    }
    const storage::Table& ta = *a.db.GetTable(pa.alltops_table);
    const storage::Table& tb = *b.db.GetTable(pb.alltops_table);
    TSB_CHECK_EQ(ta.num_rows(), tb.num_rows()) << pa.alltops_table;
    for (size_t i = 0; i < ta.num_rows(); ++i) {
      TSB_CHECK(ta.GetRow(i) == tb.GetRow(i))
          << pa.alltops_table << " row " << i;
    }
  }
}

void Run(int argc, char** argv) {
  const double scale = FlagValue(argc, argv, "scale", 0.4);
  const size_t l = static_cast<size_t>(FlagValue(argc, argv, "l", 3));
  size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 4;
  const size_t max_threads = static_cast<size_t>(
      FlagValue(argc, argv, "max-threads", static_cast<double>(hw)));
  const core::BuildConfig config = BenchBuildConfig(l);

  std::printf(
      "Parallel precompute build: synthetic Biozon scale=%.2f, l=%zu, "
      "threads 2..%zu\n\n",
      scale, l, max_threads);

  // Sequential reference (threads = 0 means no pool at all).
  auto reference = MakeBuildWorld(scale);
  Stopwatch seq_watch;
  TSB_CHECK(core::TopologyBuilder(&reference->db, reference->schema.get(),
                                  reference->view.get())
                .BuildAllPairs(config, &reference->store)
                .ok());
  const double seq_seconds = seq_watch.ElapsedSeconds();
  std::printf("sequential build: %.2fs, %zu pairs, %zu topologies\n\n",
              seq_seconds, reference->store.pairs().size(),
              reference->store.catalog().size());

  TablePrinter table({"threads", "build time", "speedup", "identical"});
  table.AddRow({"1 (no pool)", TablePrinter::Num(seq_seconds, 2) + "s",
                "1.00x", "ref"});
  // A pool with fewer than 2 threads builds sequentially, so a "1" row
  // would only time the reference again.
  for (size_t threads = 2; threads <= max_threads; threads *= 2) {
    auto world = MakeBuildWorld(scale);
    service::ThreadPool pool(threads);
    Stopwatch watch;
    TSB_CHECK(core::TopologyBuilder(&world->db, world->schema.get(),
                                    world->view.get())
                  .BuildAllPairs(config, &world->store, &pool)
                  .ok());
    const double seconds = watch.ElapsedSeconds();
    CheckIdentical(*reference, *world);
    table.AddRow({std::to_string(threads),
                  TablePrinter::Num(seconds, 2) + "s",
                  TablePrinter::Num(seq_seconds / seconds, 2) + "x", "yes"});
  }
  table.Print(std::cout);
  std::printf(
      "\n(every store verified byte-identical to the sequential build: "
      "same TIDs, class ids, AllTops rows, and frequency maps)\n");
}

}  // namespace
}  // namespace bench
}  // namespace tsb

int main(int argc, char** argv) {
  tsb::bench::Run(argc, argv);
  return 0;
}
