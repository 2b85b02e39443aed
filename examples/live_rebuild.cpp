// Live store rebuild: the service re-runs the offline Topology
// Computation (with a larger l) behind concurrent query traffic and swaps
// the new epoch in atomically — "rebuild continuously while serving".
//
// Shows the staged pipeline end to end: build an initial l=2 store through
// a StoreHandle, serve queries from client threads, then Rebuild() with
// l=3 — stage steps fan out over the same worker pool the queries run on,
// commits happen in canonical pair order, the handle swap retires the old
// epoch, and its tables drop once the last in-flight snapshot releases.
//
// Build & run:  ./build/examples/live_rebuild

#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
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
#include "wire/message.h"

int main() {
  using namespace tsb;

  // 1. Database plus an initial shallow (l=2) precompute epoch, owned by a
  //    StoreHandle so it can be swapped later.
  storage::Catalog db;
  biozon::BiozonSchema ids = biozon::BuildFigure3Database(&db);
  graph::DataGraphView view(db);
  graph::SchemaGraph schema(db);

  auto initial = std::make_shared<core::TopologyStore>();
  core::TopologyBuilder builder(&db, &schema, &view);
  core::BuildConfig build;
  build.max_path_length = 2;
  TSB_CHECK(builder.BuildAllPairs(build, initial.get()).ok());
  core::PruneConfig prune;
  prune.frequency_threshold = 0;
  for (const auto& [key, pair] : initial->pairs()) {
    TSB_CHECK(core::PruneFrequentTopologies(&db, initial.get(), key.first,
                                            key.second, prune)
                  .ok());
  }
  auto handle = std::make_shared<core::StoreHandle>(initial);
  std::printf("epoch 0 (l=2): %zu pairs, %zu topologies\n",
              initial->pairs().size(), initial->catalog().size());
  initial.reset();  // The handle owns the epoch from here on.

  // 2. Engine + service over the handle: the service is a one-shard fleet
  //    whose shard is this engine, so Rebuild swaps this very handle.
  //    AttachLiveStore only checks the engine is handle-backed and that
  //    schema and view are its own.
  engine::Engine engine(&db, handle, &schema, &view,
                        core::ScoreModel(
                            &handle->Snapshot()->catalog(),
                            biozon::MakeBiozonDomainKnowledge(ids)));
  service::ServiceConfig config;
  config.num_threads = 4;
  service::TopologyService svc(&engine, &db, config);
  TSB_CHECK(svc.AttachLiveStore(&schema, &view).ok());

  // 3. Client threads hammer the service across the swap with one parsed
  //    text request.
  auto parsed = service::RequestParser(&db).Parse(
      "TOPK k=10 method=full-topk scheme=freq "
      "set1=Protein pred1=DESC.ct('enzyme') set2=DNA pred2=TYPE='mRNA'");
  TSB_CHECK(parsed.ok()) << parsed.status();
  wire::WireRequest request;
  request.query = parsed->query;
  request.method = parsed->method;
  request.options = parsed->options;
  auto serve = [&svc, &request]() {
    wire::CollectingSink sink;
    svc.Submit(request, sink);
    sink.WaitForFrames(1);
    return sink.Frames()[0].response;
  };
  std::atomic<bool> stop{false};
  std::atomic<size_t> served{0};
  std::atomic<size_t> failed{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&]() {
      while (!stop.load(std::memory_order_acquire)) {
        if (serve().error.ok()) {
          ++served;
        } else {
          ++failed;
        }
      }
    });
  }
  while (served.load() < 32) std::this_thread::yield();

  // 4. Rebuild with a deeper l while the clients keep querying. The
  //    result cache is dropped as part of the swap.
  service::RebuildOptions rebuild;
  rebuild.build.max_path_length = 3;
  rebuild.prune_threshold = 0;
  rebuild.export_topinfo = true;
  auto stats = svc.Rebuild(rebuild);
  TSB_CHECK(stats.ok()) << stats.status();
  std::printf(
      "epoch %llu (l=3) swapped in behind traffic: %zu pairs, %zu "
      "topologies, staged+committed in %.3fs (namespace '%s')\n",
      static_cast<unsigned long long>(stats->epoch), stats->pairs_built,
      stats->catalog_topologies, stats->build_seconds,
      stats->table_namespace.c_str());

  const size_t at_swap = served.load();
  while (served.load() < at_swap + 32) std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  for (std::thread& client : clients) client.join();
  std::printf("served %zu queries across the swap, %zu failed\n",
              served.load(), failed.load());
  TSB_CHECK(failed.load() == 0);

  // 5. The new epoch answers with the deeper topology set; the retired
  //    epoch's tables were dropped when its last snapshot released.
  wire::WireResponse after = serve();
  TSB_CHECK(after.error.ok());
  std::printf("post-swap top-k has %zu entries; old AllTops dropped: %s\n",
              after.result.entries.size(),
              db.FindTable("AllTops_Protein_DNA") == nullptr ? "yes" : "no");
  std::printf("%s", service::MetricsTable(svc.Metrics()).c_str());
  svc.Shutdown();
  return 0;
}
