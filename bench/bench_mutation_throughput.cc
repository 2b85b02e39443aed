// bench_mutation_throughput: the incremental write path under load.
//
// Part 1 — apply throughput: structural mutation batches through
// MutationEngine::Apply on a generated Biozon world. Each batch adds an
// Interaction node plus an Interacts_p edge on one protein, which dirties
// both built pairs; the restage re-sweeps only the sources within l-1 hops
// of the two touched nodes and re-folds the rest from the source memo, so
// the bench prints swept and reused sources per batch beside the rate.
//
// Part 2 — the compaction interference gate: interactive query p95 while
// the background fold is running must stay within 1.5x of the quiescent
// p95 plus a 5ms floor (the CI container is 1-core, so *some* head-of-line
// blocking is unavoidable; the floor absorbs scheduler noise on
// sub-millisecond queries). This is the per-run proof that the per-pair
// fold pause keeps compaction off the interactive path.
//
// Results land in BENCH_mutate.json.
//
// Flags: --scale=0.2 --batches=16 --samples=200

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "biozon/generator.h"
#include "core/store.h"
#include "engine/engine.h"
#include "mutation/mutation.h"
#include "mutation/mutation_engine.h"

int main(int argc, char** argv) {
  using namespace tsb;
  using bench::Percentile;

  const double scale = bench::FlagValue(argc, argv, "scale", 0.2);
  const size_t batches =
      static_cast<size_t>(bench::FlagValue(argc, argv, "batches", 16));
  const size_t samples =
      static_cast<size_t>(bench::FlagValue(argc, argv, "samples", 200));

  // --- The world: generated Biozon behind a swappable StoreHandle --------
  storage::Catalog db;
  biozon::GeneratorConfig gen;
  gen.seed = 42;
  gen.scale = scale;
  biozon::BiozonSchema ids = biozon::GenerateBiozon(gen, &db);
  graph::DataGraphView view(db);
  graph::SchemaGraph schema(db);

  core::BuildConfig build;
  build.max_path_length = 3;
  build.max_class_representatives = 8;
  build.max_union_combinations = 512;

  auto store = std::make_shared<core::TopologyStore>();
  core::TopologyBuilder builder(&db, &schema, &view);
  Stopwatch build_watch;
  TSB_CHECK(
      builder.BuildPair(ids.protein, ids.interaction, build, store.get())
          .ok());
  TSB_CHECK(builder.BuildPair(ids.protein, ids.dna, build, store.get()).ok());
  std::vector<std::pair<
      std::pair<storage::EntityTypeId, storage::EntityTypeId>, size_t>>
      prune_plan;
  for (const auto& [key, pair] : store->pairs()) {
    prune_plan.emplace_back(
        key, static_cast<size_t>(
                 0.005 * static_cast<double>(pair.num_related_pairs)));
  }
  for (const auto& [key, threshold] : prune_plan) {
    core::PruneConfig prune;
    prune.frequency_threshold = threshold;
    TSB_CHECK(core::PruneFrequentTopologies(&db, store.get(), key.first,
                                            key.second, prune)
                  .ok());
  }
  std::printf("world: scale %.2f, 2 pairs built in %.2fs\n", scale,
              build_watch.ElapsedSeconds());

  auto handle = std::make_shared<core::StoreHandle>(store);
  engine::Engine engine(&db, handle, &schema, &view,
                        core::ScoreModel(
                            &store->catalog(),
                            biozon::MakeBiozonDomainKnowledge(ids)));
  engine.PrepareIndexes("Protein", "Interaction");

  mutation::MutationEngine::Options options;
  options.build = build;
  options.compaction_min_generations = 1u << 30;  // Manual folds only.
  mutation::MutationEngine mutator(
      &db, &schema, std::vector<std::shared_ptr<core::StoreHandle>>{handle},
      options);

  engine::TopologyQuery query;
  query.entity_set1 = "Protein";
  query.entity_set2 = "Interaction";
  query.scheme = core::RankScheme::kFreq;
  query.k = 10;
  const engine::MethodKind method = engine::MethodKind::kFastTopK;

  auto RunOne = [&]() -> double {
    Stopwatch watch;
    auto result = engine.Execute(query, method);
    TSB_CHECK(result.ok()) << result.status();
    return watch.ElapsedSeconds();
  };

  // --- Quiescent baseline ------------------------------------------------
  RunOne();  // Warm-up.
  std::vector<double> quiescent;
  quiescent.reserve(samples);
  for (size_t i = 0; i < samples; ++i) quiescent.push_back(RunOne());
  const double p95_quiescent = Percentile(quiescent, 0.95);
  std::printf("quiescent: %zu queries, p50 %.3fms, p95 %.3fms\n", samples,
              1e3 * Percentile(quiescent, 0.50), 1e3 * p95_quiescent);

  // --- Apply throughput --------------------------------------------------
  const int64_t protein0 = db.GetTable("Protein")->GetInt64(
      0, *db.GetTable("Protein")->schema().FindColumn("ID"));
  int64_t next_id = 50'000'000;  // Far above any generated id.
  auto MakeBatch = [&]() {
    mutation::MutationBatch batch;
    const int64_t node = next_id++;
    const int64_t edge = next_id++;
    batch.ops = {
        mutation::AddNode("Interaction", node,
                          {{"DESC", storage::Value(std::string(
                                        "synthetic interaction"))}}),
        mutation::AddEdge("Interacts_p", edge, protein0, node),
    };
    return batch;
  };

  size_t applied_ops = 0;
  size_t sources_swept = 0;
  size_t sources_reused = 0;
  Stopwatch apply_watch;
  for (size_t b = 0; b < batches; ++b) {
    auto stats = mutator.Apply(MakeBatch());
    TSB_CHECK(stats.ok()) << stats.status();
    applied_ops += stats->applied_ops;
    sources_swept += stats->sources_swept;
    sources_reused += stats->sources_reused;
  }
  const double apply_seconds = apply_watch.ElapsedSeconds();
  const double batches_per_second =
      static_cast<double>(batches) / apply_seconds;
  std::printf(
      "apply: %zu batches (%zu ops) in %.2fs = %.1f batches/s, "
      "%.1f ops/s, %llu generations pending\n",
      batches, applied_ops, apply_seconds, batches_per_second,
      static_cast<double>(applied_ops) / apply_seconds,
      static_cast<unsigned long long>(mutator.uncompacted_generations()));
  std::printf(
      "restage: %.1f sources swept + %.1f reused per batch "
      "(the first batch fills the memo), memo %.1f KiB\n",
      static_cast<double>(sources_swept) / static_cast<double>(batches),
      static_cast<double>(sources_reused) / static_cast<double>(batches),
      static_cast<double>(mutator.source_memo_bytes()) / 1024.0);

  // The mutated answer must be stable across every fold below.
  auto reference = engine.Execute(query, method);
  TSB_CHECK(reference.ok());

  // --- Interactive latency during active compaction ----------------------
  std::vector<double> active;
  uint64_t folds = 0;
  size_t pairs_folded = 0;
  double fold_seconds = 0.0;
  while (active.size() < samples && folds < 32) {
    if (mutator.uncompacted_generations() == 0) {
      // Re-arm: a few more overlay generations for the next fold.
      for (int b = 0; b < 4; ++b) {
        TSB_CHECK(mutator.Apply(MakeBatch()).ok());
      }
    }
    std::atomic<bool> done{false};
    std::thread folder([&]() {
      auto stats = mutator.CompactNow();
      TSB_CHECK(stats.ok()) << stats.status();
      pairs_folded += stats->pairs_folded;
      fold_seconds += stats->fold_seconds;
      done.store(true, std::memory_order_release);
    });
    while (!done.load(std::memory_order_acquire)) {
      active.push_back(RunOne());
    }
    folder.join();
    ++folds;
  }
  TSB_CHECK(!active.empty()) << "no query overlapped a fold";
  const double p95_active = Percentile(active, 0.95);

  auto after = engine.Execute(query, method);
  TSB_CHECK(after.ok());
  TSB_CHECK(after->entries == reference->entries)
      << "compaction changed the answer";

  // --- The gate -----------------------------------------------------------
  const double limit = 1.5 * p95_quiescent + 0.005;
  std::printf(
      "compaction: %llu folds (%zu pair sets, %.2fs folding), %zu "
      "overlapped queries\n  p95 active %.3fms vs quiescent %.3fms "
      "(limit %.3fms)\n",
      static_cast<unsigned long long>(folds), pairs_folded, fold_seconds,
      active.size(), 1e3 * p95_active, 1e3 * p95_quiescent, 1e3 * limit);
  TSB_CHECK(p95_active <= limit)
      << "interactive p95 during compaction exceeded the gate: "
      << 1e3 * p95_active << "ms > " << 1e3 * limit << "ms";

  // --- Machine-readable results ------------------------------------------
  FILE* json = std::fopen("BENCH_mutate.json", "w");
  TSB_CHECK(json != nullptr);
  std::fprintf(
      json,
      "{\n"
      "  \"bench\": \"mutation_throughput\",\n"
      "  \"world\": {\"scale\": %.3f, \"pairs\": 2},\n"
      "  \"apply\": {\"batches\": %zu, \"ops\": %zu, \"seconds\": %.6f,\n"
      "    \"batches_per_second\": %.2f, \"ops_per_second\": %.2f,\n"
      "    \"sources_swept\": %zu, \"sources_reused\": %zu},\n"
      "  \"compaction\": {\"folds\": %llu, \"pairs_folded\": %zu,\n"
      "    \"fold_seconds\": %.6f, \"overlapped_queries\": %zu},\n"
      "  \"latency_seconds\": {\"quiescent_p95\": %.6f, \"active_p95\": "
      "%.6f,\n"
      "    \"limit\": %.6f, \"ratio\": %.3f},\n"
      "  \"gate\": {\"active_p95_within_limit\": true}\n"
      "}\n",
      scale, batches, applied_ops, apply_seconds, batches_per_second,
      static_cast<double>(applied_ops) / apply_seconds, sources_swept,
      sources_reused, static_cast<unsigned long long>(folds), pairs_folded, fold_seconds,
      active.size(), p95_quiescent, p95_active, limit,
      p95_quiescent > 0.0 ? p95_active / p95_quiescent : 0.0);
  std::fclose(json);
  std::printf("\nwrote BENCH_mutate.json\nOK\n");
  return 0;
}
