// Wire protocol demo (src/wire/): the versioned request/response frames,
// both codecs (canonical text and length-prefixed binary), the streaming
// priority-aware service surface, and the shard transport seam.
//
// Shows: Format() round-tripping a parsed request to its canonical line,
// a binary frame crossing an encode → decode boundary byte-identically,
// a stream of mixed-priority requests answered through a StreamSink with
// deadline shedding, and a 2-shard scatter whose sub-queries travel as
// encoded wire messages (the executor's default in-process transport).
//
// Build & run:  ./build/examples/wire_protocol

#include <cstdio>
#include <memory>

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
#include "wire/codec.h"
#include "wire/message.h"

int main() {
  using namespace tsb;

  // 1. Build the Figure-3 micro-database and its topology artifacts.
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

  // 2. The text codec: parse a request line, then Format() it back to its
  //    canonical form — the human-readable encoding of the protocol.
  service::RequestParser parser(&db);
  auto parsed = parser.Parse(
      "TOPK k=5 scheme=domain set2=DNA pred2=TYPE='mRNA' "
      "set1=Protein pred1=DESC.ct('enzyme') method=fast-topk-et");
  TSB_CHECK(parsed.ok()) << parsed.status();
  auto canonical = service::RequestParser::Format(*parsed);
  TSB_CHECK(canonical.ok());
  std::printf("canonical line:\n  %s\n\n", canonical->c_str());

  // Malformed input fails with the field and byte offset:
  auto broken = parser.Parse("TOPK set1=Protein set2=DNA method=warp9");
  std::printf("parse error example:\n  %s\n\n",
              broken.status().message().c_str());

  // 3. The binary codec: the same request as one length-prefixed frame.
  wire::WireRequest request;
  request.id = 1;
  request.priority = wire::Priority::kInteractive;
  request.query = parsed->query;
  request.method = parsed->method;
  std::string frame;
  wire::EncodeQueryRequest(request, &frame);
  auto decoded = wire::DecodeQueryRequest(frame, db);
  TSB_CHECK(decoded.ok());
  std::string reencoded;
  wire::EncodeQueryRequest(*decoded, &reencoded);
  std::printf("binary frame: %zu bytes, re-encode byte-identical: %s\n\n",
              frame.size(), frame == reencoded ? "yes" : "NO");

  // 4. The streaming service surface: a mixed-priority stream through a
  //    StreamSink; frames arrive in completion order, interactive first.
  service::ServiceConfig config;
  config.num_threads = 2;
  service::TopologyService svc(&engine, &db, config);

  class PrintingSink : public wire::StreamSink {
   public:
    void OnFrame(const wire::WireFrame& frame) override {
      if (frame.kind == wire::FrameKind::kStreamEnd) {
        std::printf("  [stream %llu end]\n",
                    static_cast<unsigned long long>(frame.stream_id));
        return;
      }
      const wire::WireResponse& r = frame.response;
      if (r.error.ok()) {
        std::printf("  frame: request %llu -> %zu entries (%.3f ms%s)\n",
                    static_cast<unsigned long long>(r.request_id),
                    r.result.entries.size(), r.service_seconds * 1e3,
                    r.from_cache ? ", cached" : "");
      } else {
        std::printf("  frame: request %llu -> %s: %s\n",
                    static_cast<unsigned long long>(r.request_id),
                    wire::WireErrorCodeToString(r.error.code),
                    r.error.message.c_str());
      }
    }
  } sink;

  std::vector<wire::WireRequest> stream;
  for (uint64_t i = 0; i < 3; ++i) {
    wire::WireRequest r = request;
    r.id = 10 + i;
    r.priority = i == 0 ? wire::Priority::kInteractive
                        : wire::Priority::kBatch;
    r.query.k = 5 + i;  // Distinct fingerprints: everything executes.
    if (i == 2) r.deadline_seconds = 1e-9;  // Expires in the queue.
    stream.push_back(std::move(r));
  }
  std::printf("streaming 3 requests (1 interactive, 2 batch, one with an "
              "expired deadline):\n");
  svc.SubmitStream(std::move(stream), sink);
  svc.Shutdown();  // Drains the stream; every frame above was delivered.

  std::printf("\nper-class serving metrics:\n%s\n",
              service::MetricsTable(svc.Metrics()).c_str());

  // 5. The transport seam: a 2-shard store whose scatter sub-queries cross
  //    the wire as encoded frames, in-process: the executor's default
  //    transport is a one-replica-per-shard replica set over loopback
  //    channels, the same class a socket fleet uses.
  auto sharded = std::make_shared<shard::ShardedTopologyStore>(2);
  core::BuildConfig shard_build = build;
  shard_build.table_namespace = "demo.";
  {
    // Build the same single pair as the unsharded store (identical
    // catalogs are what make per-shard rankings globally comparable).
    std::vector<core::TopologyStore*> raw;
    for (size_t i = 0; i < 2; ++i) raw.push_back(sharded->Snapshot(i).get());
    TSB_CHECK(
        builder.BuildPair(ids.protein, ids.dna, shard_build, raw).ok());
  }
  for (size_t i = 0; i < 2; ++i) {
    TSB_CHECK(core::PruneFrequentTopologies(&db, sharded->Snapshot(i).get(),
                                            ids.protein, ids.dna, prune)
                  .ok());
  }
  shard::ScatterGatherExecutor executor(
      &db, sharded, &schema, &view, biozon::MakeBiozonDomainKnowledge(ids));
  auto scattered = executor.Execute(parsed->query, parsed->method);
  TSB_CHECK(scattered.ok());
  auto direct = engine.Execute(parsed->query, parsed->method);
  TSB_CHECK(direct.ok());
  TSB_CHECK(scattered->entries == direct->entries);
  auto stats = executor.GetScatterStats();
  std::printf("2-shard scatter over the wire: identical to single-store "
              "(%zu entries)\n", scattered->entries.size());
  std::printf("  transport: %llu sub-queries as frames, %llu B sent, "
              "%llu B received, %llu failed\n",
              static_cast<unsigned long long>(stats.transport_subqueries),
              static_cast<unsigned long long>(stats.transport_bytes_sent),
              static_cast<unsigned long long>(stats.transport_bytes_received),
              static_cast<unsigned long long>(stats.failed_subqueries));
  return 0;
}
