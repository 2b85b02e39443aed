// The cross-process sharding subsystem (src/net/): FrameConn partial-I/O
// framing over real sockets, the shard server's frame loop, and the
// connection-pooled socket fleet (an R=1 replica::ReplicaSetTransport over
// SocketReplicaChannels) — including the tentpole contract that all nine
// query methods return byte-identical results through direct, default
// in-process, and UDS-socket execution at N ∈ {1, 2, 4} shards,
// and the fault-injection contract that a killed or hung shard server
// degrades the answer to partial=true (PARTIAL plan tag, no cache
// insert) with full recovery once the server restarts.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "biozon/domain.h"
#include "biozon/fig3.h"
#include "core/builder.h"
#include "core/pruner.h"
#include "engine/engine.h"
#include "mutation/delta_log.h"
#include "mutation/mutation.h"
#include "mutation/mutation_engine.h"
#include "net/endpoint_client.h"
#include "net/frame_conn.h"
#include "net/shard_server.h"
#include "replica/replica_set.h"
#include "service/service.h"
#include "service_test_util.h"
#include "shard/frame_handler.h"
#include "shard/scatter_gather.h"
#include "shard/sharded_store.h"
#include "wire/codec.h"
#include "wire/message.h"

namespace tsb {
namespace {

using engine::MethodKind;
using service_test::Serve;

const std::vector<MethodKind> kAllMethods = {
    MethodKind::kSql,         MethodKind::kFullTop,
    MethodKind::kFastTop,     MethodKind::kFullTopK,
    MethodKind::kFastTopK,    MethodKind::kFullTopKEt,
    MethodKind::kFastTopKEt,  MethodKind::kFullTopKOpt,
    MethodKind::kFastTopKOpt,
};

std::string UdsPath(const std::string& tag, size_t i) {
  return "/tmp/tsb_net_test_" + std::to_string(::getpid()) + "_" + tag +
         "_" + std::to_string(i) + ".sock";
}

/// An encoded query-request frame usable against any Figure-3 shard.
std::string ExampleFrame() {
  wire::WireRequest request;
  request.id = 99;
  request.query.entity_set1 = "Protein";
  request.query.entity_set2 = "DNA";
  request.query.k = 5;
  request.method = MethodKind::kFullTop;
  request.options.skip_pruned_checks = true;
  std::string frame;
  wire::EncodeQueryRequest(request, &frame);
  return frame;
}

// ---------------------------------------------------------------------------
// FrameConn: framing over a socketpair
// ---------------------------------------------------------------------------

class FrameConnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a_ = std::make_unique<net::FrameConn>(fds[0]);
    b_ = std::make_unique<net::FrameConn>(fds[1]);
  }

  std::unique_ptr<net::FrameConn> a_;
  std::unique_ptr<net::FrameConn> b_;
};

TEST_F(FrameConnTest, RoundTripsFramesByteIdentically) {
  const std::string frame = ExampleFrame();
  ASSERT_TRUE(a_->WriteFrame(frame).ok());
  std::string received;
  ASSERT_TRUE(b_->ReadFrame(&received, wire::kDefaultMaxFramePayload).ok());
  EXPECT_EQ(received, frame);
}

TEST_F(FrameConnTest, ReadsBackToBackFramesOneAtATime) {
  const std::string frame = ExampleFrame();
  std::string both = frame + frame;
  ASSERT_TRUE(a_->WriteFrame(both).ok());  // One send, two frames.
  for (int i = 0; i < 2; ++i) {
    std::string received;
    ASSERT_TRUE(
        b_->ReadFrame(&received, wire::kDefaultMaxFramePayload).ok())
        << i;
    EXPECT_EQ(received, frame) << i;
  }
}

TEST_F(FrameConnTest, ReassemblesFromPartialDelivery) {
  // Dribble the frame through the raw fd a few bytes at a time; ReadFrame
  // must reassemble across however many partial reads that causes.
  const std::string frame = ExampleFrame();
  std::thread writer([this, &frame]() {
    for (size_t off = 0; off < frame.size(); off += 3) {
      const size_t n = std::min<size_t>(3, frame.size() - off);
      ASSERT_EQ(::send(a_->fd(), frame.data() + off, n, 0),
                static_cast<ssize_t>(n));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::string received;
  EXPECT_TRUE(b_->ReadFrame(&received, wire::kDefaultMaxFramePayload).ok());
  EXPECT_EQ(received, frame);
  writer.join();
}

TEST_F(FrameConnTest, LargeFramesSurviveShortWrites) {
  // A frame far beyond the socket buffers forces the writer through the
  // short-write path while the reader drains concurrently.
  wire::WireResponse response;
  response.request_id = 1;
  for (int i = 0; i < 200000; ++i) {
    response.result.entries.push_back({i, static_cast<double>(i) * 0.5});
  }
  std::string frame;
  wire::EncodeQueryResponse(response, &frame);
  ASSERT_GT(frame.size(), 1u << 20);

  std::thread writer([this, &frame]() {
    EXPECT_TRUE(a_->WriteFrame(frame).ok());
  });
  std::string received;
  EXPECT_TRUE(b_->ReadFrame(&received, wire::kDefaultMaxFramePayload).ok());
  writer.join();
  EXPECT_EQ(received, frame);
}

TEST_F(FrameConnTest, RejectsGarbageMagicWithoutBuffering) {
  const std::string garbage = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(a_->WriteFrame(garbage).ok());  // Raw bytes, not a frame.
  std::string received;
  const Status status =
      b_->ReadFrame(&received, wire::kDefaultMaxFramePayload);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(FrameConnTest, RejectsUnsupportedVersionAsTyped) {
  std::string frame = ExampleFrame();
  frame[2] = 99;  // Future wire version.
  ASSERT_TRUE(a_->WriteFrame(frame).ok());
  std::string received;
  const Status status =
      b_->ReadFrame(&received, wire::kDefaultMaxFramePayload);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnimplemented);
}

TEST_F(FrameConnTest, EnforcesThePayloadCap) {
  const std::string frame = ExampleFrame();
  ASSERT_TRUE(a_->WriteFrame(frame).ok());
  std::string received;
  // Cap below this frame's payload: must reject, not allocate-and-wait.
  const Status status = b_->ReadFrame(&received, /*max_payload_bytes=*/4);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(FrameConnTest, CleanEofAtFrameBoundaryIsOutOfRange) {
  a_->Close();
  std::string received;
  const Status status =
      b_->ReadFrame(&received, wire::kDefaultMaxFramePayload);
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
}

TEST_F(FrameConnTest, EofMidFrameIsMalformed) {
  const std::string frame = ExampleFrame();
  ASSERT_EQ(::send(a_->fd(), frame.data(), frame.size() / 2, 0),
            static_cast<ssize_t>(frame.size() / 2));
  a_->Close();
  std::string received;
  const Status status =
      b_->ReadFrame(&received, wire::kDefaultMaxFramePayload);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(FrameConnTest, ReadDeadlineExpires) {
  std::string received;
  const auto start = std::chrono::steady_clock::now();
  const Status status = b_->ReadFrame(&received,
                                      wire::kDefaultMaxFramePayload,
                                      net::DeadlineAfter(0.05));
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_LT(waited, 5.0);
}

// ---------------------------------------------------------------------------
// Shard servers over UDS/TCP: identity, faults, pooling
// ---------------------------------------------------------------------------

/// The Figure-3 world plus a single-store reference engine (ground truth
/// for every identity check), mirroring the wire_test fixture.
class NetFig3Test : public ::testing::Test {
 protected:
  void SetUp() override {
    ids_ = biozon::BuildFigure3Database(&db_);
    view_ = std::make_unique<graph::DataGraphView>(db_);
    schema_ = std::make_unique<graph::SchemaGraph>(db_);
    core::TopologyBuilder builder(&db_, schema_.get(), view_.get());
    core::BuildConfig config;
    config.max_path_length = 3;
    ASSERT_TRUE(builder.BuildAllPairs(config, &store_).ok());
    core::PruneConfig prune;
    prune.frequency_threshold = 0;
    std::vector<std::pair<storage::EntityTypeId, storage::EntityTypeId>>
        keys;
    for (const auto& [key, pair] : store_.pairs()) keys.push_back(key);
    for (const auto& [t1, t2] : keys) {
      ASSERT_TRUE(
          core::PruneFrequentTopologies(&db_, &store_, t1, t2, prune).ok());
    }
    engine_ = std::make_unique<engine::Engine>(
        &db_, &store_, schema_.get(), view_.get(),
        core::ScoreModel(&store_.catalog(),
                         biozon::MakeBiozonDomainKnowledge(ids_)));
  }

  std::unique_ptr<shard::ScatterGatherExecutor> MakeSharded(
      size_t n, const std::string& tag,
      shard::ScatterGatherConfig config = shard::ScatterGatherConfig{}) {
    auto sharded = std::make_shared<shard::ShardedTopologyStore>(n);
    core::TopologyBuilder builder(&db_, schema_.get(), view_.get());
    core::BuildConfig build;
    build.max_path_length = 3;
    build.table_namespace = tag + std::to_string(n) + ".";
    EXPECT_TRUE(sharded->Build(&builder, build).ok());
    core::PruneConfig prune;
    prune.frequency_threshold = 0;
    for (size_t i = 0; i < n; ++i) {
      auto snapshot = sharded->Snapshot(i);
      std::vector<std::pair<storage::EntityTypeId, storage::EntityTypeId>>
          keys;
      for (const auto& [key, pair] : snapshot->pairs()) keys.push_back(key);
      for (const auto& [t1, t2] : keys) {
        EXPECT_TRUE(core::PruneFrequentTopologies(&db_, snapshot.get(), t1,
                                                  t2, prune)
                        .ok());
      }
    }
    return std::make_unique<shard::ScatterGatherExecutor>(
        &db_, sharded, schema_.get(), view_.get(),
        biozon::MakeBiozonDomainKnowledge(ids_),
        engine::SqlBaselineOptions{}, config);
  }

  engine::TopologyQuery ScatteringQuery() const {
    engine::TopologyQuery q;
    q.entity_set1 = "Protein";
    q.entity_set2 = "DNA";
    q.scheme = core::RankScheme::kFreq;
    q.k = 10;
    return q;
  }

  /// An R=1 replica set with one socket endpoint per shard: the plain
  /// one-process-per-shard fleet.
  static std::unique_ptr<replica::ReplicaSetTransport> SocketFleet(
      const std::vector<net::ShardEndpoint>& endpoints,
      const net::EndpointClientConfig& client = net::EndpointClientConfig{},
      const replica::ReplicaSetConfig& config = replica::ReplicaSetConfig{},
      service::TransportMetrics* metrics = nullptr) {
    std::vector<std::vector<net::ShardEndpoint>> grid;
    for (const net::ShardEndpoint& endpoint : endpoints) {
      grid.push_back({endpoint});
    }
    return std::make_unique<replica::ReplicaSetTransport>(
        replica::MakeSocketReplicaGrid(grid, client), config, metrics);
  }

  /// N in-process shard servers over an executor's own engines — the
  /// same handler dispatch the in-process path uses, behind real sockets,
  /// so the only difference under test is the byte shipping. UDS by
  /// default; `use_tcp` listens on ephemeral 127.0.0.1 ports instead.
  struct ServerSet {
    std::vector<std::unique_ptr<shard::ShardFrameHandler>> handlers;
    std::vector<std::unique_ptr<net::ShardServer>> servers;
    std::vector<net::ShardEndpoint> endpoints;

    void StopAll() {
      for (auto& server : servers) server->Stop();
    }

    /// Restarts server i on its original endpoint (the recovery path).
    void Restart(size_t i) {
      servers[i] = std::make_unique<net::ShardServer>(
          handlers[i].get(), configs[i]);
      ASSERT_TRUE(servers[i]->Start().ok());
    }

    std::vector<net::ShardServerConfig> configs;
  };

  ServerSet StartServers(shard::ScatterGatherExecutor* executor,
                         const std::string& tag, bool use_tcp = false) {
    ServerSet set;
    const size_t n = executor->num_shards();
    const shard::ShardedTopologyStore* store = &executor->store();
    for (size_t i = 0; i < n; ++i) {
      set.handlers.push_back(std::make_unique<shard::ShardFrameHandler>(
          &db_, &executor->shard_engine(i),
          [store, i]() { return store->Snapshot(i); }));
      net::ShardServerConfig config;
      if (!use_tcp) config.uds_path = UdsPath(tag, i);
      set.configs.push_back(config);
      set.servers.push_back(std::make_unique<net::ShardServer>(
          set.handlers.back().get(), config));
      EXPECT_TRUE(set.servers.back()->Start().ok());
      set.endpoints.push_back(
          use_tcp ? net::ShardEndpoint::Tcp("127.0.0.1",
                                            set.servers.back()->port())
                  : net::ShardEndpoint::Unix(config.uds_path));
    }
    return set;
  }

  storage::Catalog db_;
  biozon::BiozonSchema ids_;
  std::unique_ptr<graph::DataGraphView> view_;
  std::unique_ptr<graph::SchemaGraph> schema_;
  core::TopologyStore store_;
  std::unique_ptr<engine::Engine> engine_;
};

TEST_F(NetFig3Test,
       SocketScatterIsByteIdenticalToDirectAndLoopbackAtEveryShardCount) {
  // The acceptance contract: all nine methods byte-identical across
  // direct, default in-process, and UDS-socket execution at N ∈ {1, 2, 4}.
  for (size_t n : {1u, 2u, 4u}) {
    auto executor = MakeSharded(n, "ni");
    ServerSet servers =
        StartServers(executor.get(), "id" + std::to_string(n));
    auto transport = SocketFleet(servers.endpoints, {}, {},
                                 executor->transport_metrics());

    for (MethodKind method : kAllMethods) {
      auto direct = engine_->Execute(ScatteringQuery(), method);
      auto loopback = executor->Execute(ScatteringQuery(), method);
      executor->set_transport(transport.get());
      auto socket = executor->Execute(ScatteringQuery(), method);
      executor->set_transport(nullptr);
      ASSERT_EQ(direct.ok(), socket.ok())
          << engine::MethodKindToString(method) << " @" << n;
      if (!direct.ok()) continue;
      ASSERT_TRUE(loopback.ok());
      EXPECT_EQ(socket->entries, direct->entries)
          << engine::MethodKindToString(method) << " @" << n << " shards";
      EXPECT_EQ(socket->entries, loopback->entries)
          << engine::MethodKindToString(method) << " @" << n << " shards";
      EXPECT_FALSE(socket->partial);
    }
    servers.StopAll();
  }
}

TEST_F(NetFig3Test, TripleQueriesScatterTheirScanPhaseOverSockets) {
  engine::TripleQuery triple;
  triple.entity_set1 = "Protein";
  triple.entity_set2 = "Unigene";
  triple.entity_set3 = "DNA";
  auto expected =
      engine::ExecuteTripleQuery(&db_, &store_, *schema_, *view_, triple);
  ASSERT_TRUE(expected.ok());

  for (size_t n : {2u, 4u}) {
    auto executor = MakeSharded(n, "nt");
    ServerSet servers =
        StartServers(executor.get(), "tr" + std::to_string(n));
    auto transport = SocketFleet(servers.endpoints);
    executor->set_transport(transport.get());
    auto actual = executor->ExecuteTriple(triple);
    executor->set_transport(nullptr);
    servers.StopAll();

    ASSERT_TRUE(actual.ok()) << n;
    EXPECT_FALSE(actual->partial);
    ASSERT_EQ(actual->entries.size(), expected->entries.size()) << n;
    for (size_t i = 0; i < expected->entries.size(); ++i) {
      EXPECT_EQ(actual->entries[i].tid, expected->entries[i].tid);
      EXPECT_EQ(actual->entries[i].frequency,
                expected->entries[i].frequency);
    }
    uint64_t served = 0;
    for (auto& server : servers.servers) served += server->frames_served();
    EXPECT_GT(served, 0u) << n;
  }
}

TEST_F(NetFig3Test, TcpTransportServesTheSameResults) {
  auto executor = MakeSharded(2, "ntcp");
  ServerSet servers = StartServers(executor.get(), "tcp", /*use_tcp=*/true);
  auto transport = SocketFleet(servers.endpoints);
  executor->set_transport(transport.get());
  for (MethodKind method :
       {MethodKind::kFullTop, MethodKind::kFastTopKEt}) {
    auto expected = engine_->Execute(ScatteringQuery(), method);
    auto actual = executor->Execute(ScatteringQuery(), method);
    ASSERT_EQ(expected.ok(), actual.ok());
    if (expected.ok()) {
      EXPECT_EQ(expected->entries, actual->entries);
      EXPECT_FALSE(actual->partial);
    }
  }
  executor->set_transport(nullptr);
  servers.StopAll();
}

TEST_F(NetFig3Test, KilledShardServerDegradesToPartialAndRecovers) {
  auto executor = MakeSharded(4, "nk");
  ServerSet servers = StartServers(executor.get(), "kill");
  net::EndpointClientConfig client;
  client.backoff_initial_seconds = 0.005;
  client.backoff_max_seconds = 0.05;
  auto transport = SocketFleet(servers.endpoints, client, {},
                               executor->transport_metrics());
  executor->set_transport(transport.get());

  service::ServiceConfig svc_config;
  svc_config.num_threads = 2;
  service::TopologyService svc(executor.get(), &db_, svc_config);

  // Warm pass: full answer over sockets (and find, by probing, a server
  // whose death actually degrades this query — the designated shard runs
  // inline and never crosses the transport).
  auto clean = Serve(svc, ScatteringQuery(), MethodKind::kFullTop);
  ASSERT_TRUE(clean.error.ok());
  EXPECT_FALSE(clean.result.partial);

  size_t victim = SIZE_MAX;
  for (size_t s = 0; s < 4 && victim == SIZE_MAX; ++s) {
    servers.servers[s]->Stop();
    svc.InvalidateCache();
    auto probe = Serve(svc, ScatteringQuery(), MethodKind::kFullTop);
    ASSERT_TRUE(probe.error.ok())
        << "server " << s << " down: " << probe.error.message;
    if (probe.result.partial) {
      victim = s;
      // The degraded answer: PARTIAL plan tag, ranked subset.
      EXPECT_NE(probe.result.stats.plan.find("PARTIAL"),
                std::string::npos);
      EXPECT_LE(probe.result.entries.size(),
                clean.result.entries.size());
    } else {
      servers.Restart(s);
    }
  }
  ASSERT_NE(victim, SIZE_MAX) << "no server's death degraded the query";

  // The partial answer must not have been cached: an immediate repeat is
  // a cache miss (and still partial while the server stays dead).
  auto repeat = Serve(svc, ScatteringQuery(), MethodKind::kFullTop);
  ASSERT_TRUE(repeat.error.ok());
  EXPECT_FALSE(repeat.from_cache);
  EXPECT_TRUE(repeat.result.partial);

  // Restart the server on the same endpoint: the transport reconnects
  // (stale pooled conns retried on fresh dials) and the full ranking is
  // back — then, and only then, it caches.
  servers.Restart(victim);
  wire::WireResponse healed =
      Serve(svc, ScatteringQuery(), MethodKind::kFullTop);
  for (int attempt = 0; attempt < 100 && healed.error.ok() &&
                        healed.result.partial;
       ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    healed = Serve(svc, ScatteringQuery(), MethodKind::kFullTop);
  }
  ASSERT_TRUE(healed.error.ok());
  EXPECT_FALSE(healed.result.partial) << "shard never recovered";
  EXPECT_EQ(healed.result.entries, clean.result.entries);
  auto cached = Serve(svc, ScatteringQuery(), MethodKind::kFullTop);
  ASSERT_TRUE(cached.error.ok());
  EXPECT_TRUE(cached.from_cache);
  EXPECT_FALSE(cached.result.partial);

  const obs::MetricsRead metrics = executor->transport_metrics()->Read();
  EXPECT_GT(metrics.Sum("tsb_transport_failures_total"), 0u);
  EXPECT_GT(metrics.Sum("tsb_transport_reconnects_total"), 0u);

  svc.Shutdown();
  executor->set_transport(nullptr);
  servers.StopAll();
}

TEST_F(NetFig3Test, AcknowledgedMutationsSurviveServerKillViaWalReplay) {
  // The v5 write path end to end: kMutationRequest frames over sockets,
  // WAL-before-visible application, then a kill (no shutdown handshake —
  // only the fsync'd log survives) and a restart that rebuilds the base
  // precompute and replays the WAL, exactly as shard_server --wal-dir
  // does. Acknowledged batches must be visible after recovery.
  const std::string wal_path = "/tmp/tsb_net_test_" +
                               std::to_string(::getpid()) + "_mut.wal";
  std::remove(wal_path.c_str());

  mutation::MutationBatch first;
  first.ops = {
      mutation::AddNode(
          "Protein", 500,
          {{"DESC", storage::Value(std::string(
                        "ubiquitin-conjugating enzyme variant X"))}}),
      mutation::AddEdge("Encodes", 600, 500, 742),
  };
  mutation::MutationBatch second;
  second.ops = {mutation::RemoveEdge("Uni_contains", 93)};

  std::vector<engine::ResultEntry> mutated_truth;
  {
    auto executor = MakeSharded(2, "mw");
    ServerSet servers = StartServers(executor.get(), "mw");

    // Before the hook is wired, every server is read-only: the frame is
    // understood but answered with a typed refusal.
    {
      wire::MutationWireRequest request;
      request.id = 1;
      request.batch = first;
      std::string frame;
      wire::EncodeMutationRequest(request, &frame);
      net::EndpointClient client(servers.endpoints[0]);
      auto reply = client.RoundTrip(frame, net::DeadlineAfter(5.0));
      ASSERT_TRUE(reply.ok()) << reply.status();
      auto decoded = wire::DecodeMutationResponse(*reply);
      ASSERT_TRUE(decoded.ok()) << decoded.status();
      EXPECT_EQ(decoded->error.code,
                wire::WireErrorCode::kFailedPrecondition);
    }

    // Wire the WAL'd mutation engine into every handler, shard_server
    // style: one engine over all shard handles, ApplyLogged per frame.
    mutation::DeltaLog wal;
    std::vector<mutation::MutationBatch> replayed;
    ASSERT_TRUE(wal.Open(wal_path, &replayed).ok());
    EXPECT_TRUE(replayed.empty());
    std::vector<std::shared_ptr<core::StoreHandle>> handles;
    for (size_t i = 0; i < 2; ++i) {
      handles.push_back(executor->mutable_store()->handle(i));
    }
    mutation::MutationEngine::Options options;
    options.build.max_path_length = 3;
    mutation::MutationEngine mutator(&db_, schema_.get(), handles, options);
    mutator.set_delta_log(&wal);
    for (auto& handler : servers.handlers) {
      handler->set_mutation_apply(
          [&mutator](const mutation::MutationBatch& batch) {
            return mutator.ApplyLogged(batch);
          });
    }

    // One batch to each server: any shard server accepts mutations.
    for (size_t s = 0; s < 2; ++s) {
      wire::MutationWireRequest request;
      request.id = 10 + s;
      request.batch = s == 0 ? first : second;
      std::string frame;
      wire::EncodeMutationRequest(request, &frame);
      net::EndpointClient client(servers.endpoints[s]);
      auto reply = client.RoundTrip(frame, net::DeadlineAfter(5.0));
      ASSERT_TRUE(reply.ok()) << s << ": " << reply.status();
      auto decoded = wire::DecodeMutationResponse(*reply);
      ASSERT_TRUE(decoded.ok()) << decoded.status();
      ASSERT_TRUE(decoded->error.ok()) << decoded->error.message;
      EXPECT_EQ(decoded->request_id, 10 + s);
      EXPECT_EQ(decoded->applied_ops, request.batch.ops.size());
      EXPECT_GT(decoded->dirty_pairs, 0u);
    }
    EXPECT_EQ(wal.appended_records(), 2u);

    auto result = executor->Execute(ScatteringQuery(), MethodKind::kFullTop);
    ASSERT_TRUE(result.ok()) << result.status();
    mutated_truth = result->entries;

    servers.StopAll();
  }

  // Restart: fresh base build plus WAL replay.
  auto executor = MakeSharded(2, "mw2");
  mutation::DeltaLog wal;
  std::vector<mutation::MutationBatch> replayed;
  auto stats = wal.Open(wal_path, &replayed);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->truncated_bytes, 0u);
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0], first);
  EXPECT_EQ(replayed[1], second);
  std::vector<std::shared_ptr<core::StoreHandle>> handles;
  for (size_t i = 0; i < 2; ++i) {
    handles.push_back(executor->mutable_store()->handle(i));
  }
  mutation::MutationEngine::Options options;
  options.build.max_path_length = 3;
  mutation::MutationEngine mutator(&db_, schema_.get(), handles, options);
  ASSERT_TRUE(mutator.Replay(replayed).ok());
  EXPECT_EQ(mutator.generation(), 2u);

  // Served over sockets again: the acknowledged state survived the kill.
  ServerSet servers = StartServers(executor.get(), "mw3");
  auto transport = SocketFleet(servers.endpoints);
  executor->set_transport(transport.get());
  auto recovered = executor->Execute(ScatteringQuery(), MethodKind::kFullTop);
  executor->set_transport(nullptr);
  servers.StopAll();
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_FALSE(recovered->partial);
  EXPECT_EQ(recovered->entries, mutated_truth);
  wal.Close();
  std::remove(wal_path.c_str());
}

TEST_F(NetFig3Test, HungShardServerTimesOutUnderTheRequestDeadline) {
  auto executor = MakeSharded(4, "nh");
  ServerSet servers = StartServers(executor.get(), "hang");

  // Replace each endpoint in turn with a black hole that accepts and then
  // never answers; the transport's per-request deadline must fire so the
  // query completes degraded instead of hanging.
  auto hole = net::Listener::ListenUnix(UdsPath("hole", 0));
  ASSERT_TRUE(hole.ok());
  std::vector<std::unique_ptr<net::FrameConn>> swallowed;
  std::thread acceptor([&]() {
    for (;;) {
      auto conn = hole->Accept();
      if (!conn.ok()) return;  // Listener closed.
      swallowed.push_back(std::move(*conn));  // Hold open, never reply.
    }
  });

  replica::ReplicaSetConfig config;
  config.request_timeout_seconds = 0.1;
  bool saw_degraded = false;
  for (size_t s = 0; s < 4 && !saw_degraded; ++s) {
    std::vector<net::ShardEndpoint> endpoints = servers.endpoints;
    endpoints[s] = net::ShardEndpoint::Unix(hole->uds_path());
    auto transport = SocketFleet(endpoints, {}, config);
    executor->set_transport(transport.get());
    auto result = executor->Execute(ScatteringQuery(), MethodKind::kFullTop);
    executor->set_transport(nullptr);
    ASSERT_TRUE(result.ok()) << s;
    if (result->partial) {
      saw_degraded = true;
      EXPECT_NE(result->stats.plan.find("PARTIAL"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_degraded);

  hole->Close();
  acceptor.join();
  servers.StopAll();
}

TEST_F(NetFig3Test, ConnectionPoolReusesConnectionsAcrossQueries) {
  auto executor = MakeSharded(4, "np");
  ServerSet servers = StartServers(executor.get(), "pool");
  auto transport = SocketFleet(servers.endpoints, {}, {},
                               executor->transport_metrics());
  executor->set_transport(transport.get());

  const int kQueries = 20;
  for (int i = 0; i < kQueries; ++i) {
    auto result = executor->Execute(ScatteringQuery(), MethodKind::kFullTop);
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result->partial);
  }
  executor->set_transport(nullptr);

  uint64_t accepted = 0;
  uint64_t served = 0;
  for (auto& server : servers.servers) {
    accepted += server->connections_accepted();
    served += server->frames_served();
  }
  servers.StopAll();
  ASSERT_GT(served, 0u);
  // Pooling: many frames per connection, not one.
  EXPECT_LT(accepted, served / 2)
      << accepted << " conns for " << served << " frames";

  const obs::MetricsRead metrics = executor->transport_metrics()->Read();
  EXPECT_EQ(metrics.Sum("tsb_transport_requests_total"), served);
  EXPECT_GT(metrics.Sum("tsb_transport_bytes_sent_total"), 0u);
  EXPECT_GT(metrics.Sum("tsb_transport_bytes_received_total"), 0u);
  EXPECT_EQ(metrics.Sum("tsb_transport_failures_total"), 0u);
  EXPECT_EQ(metrics.Sum("tsb_transport_reconnects_total"), 0u);
  bool rtt_seen = false;
  for (const obs::MetricSample* row :
       metrics.All("tsb_transport_rtt_hist_seconds")) {
    if (row->histogram.count() > 0 && row->histogram.Quantile(0.95) > 0.0) {
      rtt_seen = true;
    }
  }
  EXPECT_TRUE(rtt_seen);
  EXPECT_FALSE(service::TransportTable(metrics).empty());
}

TEST_F(NetFig3Test, ExpiredDeadlineNeverTouchesTheWire) {
  // Regression: Attempt used to start its write even when the request
  // deadline had already expired — a healthy pooled connection's fd polls
  // ready at poll(0), so the frame reached the wire and a fast server
  // answered it late. The entry check must fail the attempt before any
  // dial or write.
  auto executor = MakeSharded(1, "nx");
  ServerSet servers = StartServers(executor.get(), "exp");
  net::EndpointClient client(servers.endpoints[0]);
  const std::string frame = ExampleFrame();

  // Warm the pool so the expired-deadline call has a healthy, writable
  // connection at hand — the exact case the entry check must catch.
  ASSERT_TRUE(client.RoundTrip(frame, net::Deadline{}, nullptr).ok());
  const uint64_t served_before = servers.servers[0]->frames_served();

  const net::Deadline expired = std::chrono::steady_clock::now() -
                                std::chrono::milliseconds(1);
  const auto start = std::chrono::steady_clock::now();
  auto late = client.RoundTrip(frame, expired, nullptr);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kResourceExhausted);
  EXPECT_LT(waited, 0.1);
  // The discriminating observable: nothing crossed the wire.
  EXPECT_EQ(servers.servers[0]->frames_served(), served_before);

  // The pooled connection survived untouched: the next round-trip reuses
  // it (no redial) and serves exactly one more frame.
  const uint64_t conns = servers.servers[0]->connections_accepted();
  auto fresh = client.RoundTrip(frame, net::DeadlineAfter(5.0), nullptr);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(servers.servers[0]->frames_served(), served_before + 1);
  EXPECT_EQ(servers.servers[0]->connections_accepted(), conns);
  servers.StopAll();
}

TEST_F(NetFig3Test, NearExpiredDeadlineBoundsBackoffAndRetry) {
  // The companion regression: connect backoff sleeps and the
  // fresh-dial retry are charged against the per-request deadline, so a
  // request with almost no budget left fails in milliseconds instead of
  // serving out a multi-second backoff window.
  std::vector<net::ShardEndpoint> endpoints = {
      net::ShardEndpoint::Unix(UdsPath("nobody-dl", 0))};
  net::EndpointClientConfig config;
  config.connect_timeout_seconds = 5.0;
  config.backoff_initial_seconds = 10.0;
  net::EndpointClient client(endpoints[0], config);

  const std::string frame = ExampleFrame();
  const auto start = std::chrono::steady_clock::now();
  auto result = client.RoundTrip(
      frame, net::DeadlineAfter(0.05), nullptr);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_FALSE(result.ok());
  EXPECT_LT(waited, 1.0) << "deadline did not bound the dial/backoff path";
}

TEST_F(NetFig3Test, UnreachableShardFailsFastUnderBackoff) {
  // Nothing listens on this endpoint (and never will).
  std::vector<net::ShardEndpoint> endpoints = {
      net::ShardEndpoint::Unix(UdsPath("nobody", 0))};
  net::EndpointClientConfig client;
  client.connect_timeout_seconds = 0.5;
  client.backoff_initial_seconds = 10.0;  // Window outlasts the test.
  auto transport = SocketFleet(endpoints, client);

  const std::string frame = ExampleFrame();
  auto first = transport->Send(0, frame).get();
  EXPECT_FALSE(first.ok());

  const auto start = std::chrono::steady_clock::now();
  auto second = transport->Send(0, frame).get();
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_FALSE(second.ok());
  // Inside the backoff window the transport fails fast instead of
  // burning another connect attempt.
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_LT(waited, 0.4);
}

TEST_F(NetFig3Test, ServerRejectsMalformedFramesButAnswersErrorsInBand) {
  auto executor = MakeSharded(2, "nm");
  ServerSet servers = StartServers(executor.get(), "mal");

  // A valid frame whose *content* cannot be served (unknown entity set)
  // comes back as an in-band error response on a healthy connection.
  {
    auto conn = net::FrameConn::ConnectUnix(servers.endpoints[0].uds_path);
    ASSERT_TRUE(conn.ok());
    wire::WireRequest request;
    request.query.entity_set1 = "NoSuchSet";
    request.query.entity_set2 = "DNA";
    std::string frame;
    wire::EncodeQueryRequest(request, &frame);
    ASSERT_TRUE((*conn)->WriteFrame(frame).ok());
    std::string response;
    ASSERT_TRUE(
        (*conn)->ReadFrame(&response, wire::kDefaultMaxFramePayload).ok());
    auto decoded = wire::DecodeQueryResponse(response);
    ASSERT_TRUE(decoded.ok());
    EXPECT_FALSE(decoded->error.ok());
    EXPECT_EQ(decoded->error.code, wire::WireErrorCode::kNotFound);
  }

  // Garbage bytes poison the stream: the server closes the connection
  // (clean EOF, or a reset when our unread garbage was still in its
  // buffer) instead of guessing at resynchronization.
  {
    auto conn = net::FrameConn::ConnectUnix(servers.endpoints[0].uds_path);
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE((*conn)->WriteFrame("not a wire frame at all").ok());
    std::string response;
    const Status read = (*conn)->ReadFrame(&response,
                                           wire::kDefaultMaxFramePayload,
                                           net::DeadlineAfter(5.0));
    EXPECT_FALSE(read.ok());
    EXPECT_NE(read.code(), StatusCode::kResourceExhausted)
        << "server hung instead of closing: " << read.ToString();
  }
  servers.StopAll();
}

}  // namespace
}  // namespace tsb
