// Service demo: the Figure-3 micro-database served as a shared,
// concurrent query service (src/service/) driven by text requests.
//
// Shows the full serving loop: build once, start TopologyService, parse
// Example 2.1 from its text form and submit it, repeat it to hit the
// result cache, stream a batch, and print the serving metrics.
//
// Build & run:  ./build/examples/service_demo

#include <cstdio>

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

  // 1. Build the database and the precomputed topology artifacts, exactly
  //    as in examples/quickstart.cpp.
  storage::Catalog db;
  biozon::BiozonSchema ids = biozon::BuildFigure3Database(&db);
  graph::DataGraphView view(db);
  graph::SchemaGraph schema(db);
  core::TopologyStore store;
  core::TopologyBuilder builder(&db, &schema, &view);
  core::BuildConfig build;
  build.max_path_length = 3;
  TSB_CHECK(builder.BuildPair(ids.protein, ids.dna, build, &store).ok());
  core::PruneConfig prune;
  prune.frequency_threshold = 0;
  TSB_CHECK(core::PruneFrequentTopologies(&db, &store, ids.protein, ids.dna,
                                          prune)
                .ok());
  engine::Engine engine(&db, &store, &schema, &view,
                        core::ScoreModel(
                            &store.catalog(),
                            biozon::MakeBiozonDomainKnowledge(ids)));
  engine.PrepareIndexes("Protein", "DNA");

  // 2. Start the service: a worker pool and a sharded result cache. Text
  //    requests are parsed into wire requests before they are submitted.
  service::ServiceConfig config;
  config.num_threads = 4;
  service::TopologyService svc(&engine, &db, config);
  service::RequestParser parser(&db);
  std::printf("service up: %zu worker threads, %zuMB cache\n\n",
              svc.num_threads(), config.cache.max_bytes >> 20);

  // 3. Example 2.1 as a text request. Submit answers through a sink with
  //    exactly one response frame.
  const char* line =
      "TOPK k=10 method=fast-topk-et scheme=domain "
      "set1=Protein pred1=DESC.ct('enzyme') set2=DNA pred2=TYPE='mRNA'";
  std::printf("> %s\n", line);
  auto parsed = parser.Parse(line);
  TSB_CHECK(parsed.ok()) << parsed.status();
  wire::WireRequest request;
  request.query = parsed->query;
  request.method = parsed->method;
  request.options = parsed->options;
  auto serve = [&svc](const wire::WireRequest& r) {
    wire::CollectingSink sink;
    svc.Submit(r, sink);
    sink.WaitForFrames(1);
    return sink.Frames()[0].response;
  };
  wire::WireResponse cold = serve(request);
  TSB_CHECK(cold.error.ok()) << cold.error.message;
  for (const auto& entry : cold.result.entries) {
    std::printf("  T%lld  score=%.1f  %s\n",
                static_cast<long long>(entry.tid), entry.score,
                store.catalog().Describe(entry.tid, schema).c_str());
  }
  std::printf("  [cold: %.3f ms, from_cache=%d]\n\n",
              cold.service_seconds * 1e3, cold.from_cache);

  // 4. The same request again: served from the cache, identical entries.
  wire::WireResponse warm = serve(request);
  TSB_CHECK(warm.error.ok());
  TSB_CHECK(warm.from_cache);
  TSB_CHECK(warm.result.entries == cold.result.entries);
  std::printf("repeat:  [warm: %.3f ms, from_cache=%d, identical entries]\n\n",
              warm.service_seconds * 1e3, warm.from_cache);

  // 5. A batch across methods as one stream: one response frame per
  //    request, then the end frame; ExecStats totals summed with +=.
  std::vector<wire::WireRequest> batch;
  for (const char* batch_line :
       {"TOP method=full-top set1=Protein set2=DNA",
        "TOP method=fast-top set1=Protein pred1=DESC.ct('enzyme') set2=DNA",
        "TOPK k=2 method=fast-topk scheme=freq set1=Protein set2=DNA "
        "pred2=TYPE='mRNA'"}) {
    auto batch_parsed = parser.Parse(batch_line);
    TSB_CHECK(batch_parsed.ok()) << batch_parsed.status();
    wire::WireRequest batch_request;
    batch_request.id = batch.size();
    batch_request.priority = wire::Priority::kBatch;
    batch_request.query = batch_parsed->query;
    batch_request.method = batch_parsed->method;
    batch_request.options = batch_parsed->options;
    batch.push_back(std::move(batch_request));
  }
  const size_t batch_size = batch.size();
  wire::CollectingSink batch_sink;
  svc.SubmitStream(std::move(batch), batch_sink);
  batch_sink.WaitForEnd();
  engine::ExecStats total;
  size_t cache_hits = 0;
  size_t failures = 0;
  for (const wire::WireFrame& frame : batch_sink.Frames()) {
    if (frame.kind != wire::FrameKind::kResponse) continue;
    if (!frame.response.error.ok()) {
      ++failures;
      continue;
    }
    total += frame.response.result.stats;
    if (frame.response.from_cache) ++cache_hits;
  }
  std::printf("batch: %zu requests, %zu cache hits, %zu failures; "
              "totals: %.3f ms engine time, %llu rows scanned, %llu probes\n\n",
              batch_size, cache_hits, failures, total.seconds * 1e3,
              static_cast<unsigned long long>(total.rows_scanned),
              static_cast<unsigned long long>(total.probes));

  // 6. Invalidation: after any store rebuild the cache must be dropped.
  svc.InvalidateCache();
  std::printf("cache invalidated (entries now %zu)\n\n",
              svc.CacheStats().entries);

  // 7. Serving metrics.
  std::printf("%s", service::MetricsTable(svc.Metrics()).c_str());
  svc.Shutdown();
  return 0;
}
