// Sharded topology store quickstart: partition the precomputed pair
// topologies across 4 TopologyStore shards by entity-pair hash, serve
// scatter-gather ranked queries through TopologyService, and roll all
// shards to a new epoch behind live traffic.
//
// What to look for in the output:
//   - per-shard slice sizes (the hash partition of the AllTops rows),
//   - identical ranked results from the single store and the shard set,
//   - the scatter plan line (routed shards, designated shard, k-way merge),
//   - a rebuild that swaps every shard with queries still flowing.
//
// Build & run:  ./build/examples/sharded_service

#include <cstdio>
#include <memory>
#include <vector>

#include "biozon/domain.h"
#include "biozon/fig3.h"
#include "core/builder.h"
#include "core/pruner.h"
#include "engine/engine.h"
#include "graph/data_graph.h"
#include "graph/schema_graph.h"
#include "service/request_parser.h"
#include "service/service.h"
#include "shard/scatter_gather.h"
#include "shard/sharded_store.h"
#include "wire/message.h"

int main() {
  using namespace tsb;

  // 1. Database + an unsharded reference store (for the side-by-side).
  storage::Catalog db;
  biozon::BiozonSchema ids = biozon::BuildFigure3Database(&db);
  graph::DataGraphView view(db);
  graph::SchemaGraph schema(db);

  core::TopologyBuilder builder(&db, &schema, &view);
  core::BuildConfig build;
  build.max_path_length = 3;
  core::TopologyStore reference;
  TSB_CHECK(builder.BuildAllPairs(build, &reference).ok());
  core::PruneConfig prune;
  prune.frequency_threshold = 0;
  for (const auto& [key, pair] : reference.pairs()) {
    TSB_CHECK(core::PruneFrequentTopologies(&db, &reference, key.first,
                                            key.second, prune)
                  .ok());
  }
  engine::Engine single(&db, &reference, &schema, &view,
                        core::ScoreModel(
                            &reference.catalog(),
                            biozon::MakeBiozonDomainKnowledge(ids)));

  // 2. The sharded store: 4 shards, each a complete TopologyStore whose
  //    AllTops slice holds the entity pairs hashing to it. Catalogs, freq
  //    maps, and exception tables are replicated, so each shard ranks its
  //    slice with *global* scores.
  const size_t kShards = 4;
  auto sharded = std::make_shared<shard::ShardedTopologyStore>(kShards);
  core::BuildConfig sharded_build = build;
  sharded_build.table_namespace = "e0.";  // -> tables "e0.s<i>.AllTops_..."
  TSB_CHECK(sharded->Build(&builder, sharded_build).ok());
  for (size_t i = 0; i < kShards; ++i) {
    auto snapshot = sharded->Snapshot(i);
    for (const auto& [key, pair] : snapshot->pairs()) {
      TSB_CHECK(core::PruneFrequentTopologies(&db, snapshot.get(), key.first,
                                              key.second, prune)
                    .ok());
    }
  }
  {
    auto pd = sharded->Snapshot(0)->FindPair(ids.protein, ids.dna);
    std::printf("Protein_DNA slice sizes:");
    for (size_t i = 0; i < kShards; ++i) {
      auto snapshot = sharded->Snapshot(i);
      const core::PairTopologyData* pair =
          snapshot->FindPair(ids.protein, ids.dna);
      std::printf(" s%zu=%zu", i,
                  db.GetTable(pair->alltops_table)->num_rows());
    }
    std::printf(" rows (catalog replicated: %zu topologies per shard)\n\n",
                sharded->Snapshot(0)->catalog().size());
    (void)pd;
  }

  // 3. Scatter-gather executor + service frontend.
  shard::ScatterGatherExecutor executor(
      &db, sharded, &schema, &view, biozon::MakeBiozonDomainKnowledge(ids));
  service::ServiceConfig svc_config;
  svc_config.num_threads = 4;
  service::TopologyService service(&executor, &db, svc_config);

  auto parsed = service::RequestParser(&db).Parse(
      "TOPK k=5 method=fast-topk-et scheme=domain set1=Protein "
      "pred1=DESC.ct('enzyme') set2=DNA pred2=TYPE='mRNA'");
  TSB_CHECK(parsed.ok()) << parsed.status();
  wire::WireRequest request;
  request.query = parsed->query;
  request.method = parsed->method;
  request.options = parsed->options;
  auto serve = [&service, &request]() {
    wire::CollectingSink sink;
    service.Submit(request, sink);
    sink.WaitForFrames(1);
    return sink.Frames()[0].response;
  };

  auto expected = single.Execute(request.query, request.method);
  wire::WireResponse response = serve();
  TSB_CHECK(expected.ok() && response.error.ok());
  std::printf("top-%zu 'enzyme' proteins vs mRNA DNAs (Domain scheme):\n",
              request.query.k);
  for (size_t i = 0; i < response.result.entries.size(); ++i) {
    const engine::ResultEntry& entry = response.result.entries[i];
    std::printf("  #%zu TID=%lld score=%.1f%s\n", i + 1,
                static_cast<long long>(entry.tid), entry.score,
                entry == expected->entries[i] ? "" : "  << MISMATCH");
  }
  TSB_CHECK(expected->entries == response.result.entries)
      << "sharded ranking diverged from the single store";
  std::printf("plan: %s\n\n", response.result.stats.plan.c_str());

  // 4. Roll every shard to a fresh epoch behind the service. The rebuild
  //    stages "e1.s<i>." tables on the worker pool, prunes and warm-indexes
  //    them off the critical path, then swaps shard handles one by one.
  service::RebuildOptions rebuild;
  rebuild.build = build;
  rebuild.prune_threshold = 0;
  auto stats = service.Rebuild(rebuild);
  TSB_CHECK(stats.ok()) << stats.status();
  std::printf(
      "rebuild: %zu shards swapped to epoch %llu (%zu pairs, build %.0fms, "
      "prune %.0fms, warm-index %.0fms)\n",
      stats->shards_swapped, static_cast<unsigned long long>(stats->epoch),
      stats->pairs_built, 1e3 * stats->build_seconds,
      1e3 * stats->prune_seconds, 1e3 * stats->index_seconds);

  wire::WireResponse after = serve();
  TSB_CHECK(after.error.ok());
  TSB_CHECK(after.result.entries == expected->entries);
  std::printf(
      "post-swap query served %s with identical ranking (epoch stamp %s)\n",
      after.from_cache ? "warm" : "cold",
      executor.store().EpochStamp().c_str());

  service.Shutdown();
  std::printf("\nOK\n");
  return 0;
}
