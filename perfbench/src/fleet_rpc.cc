// fleet_rpc: the sharded serving path over sockets, on data too small to
// hide overhead.
//
// Set-up spawns a 2 shards x 2 replicas grid of real shard_server
// processes on Unix-domain sockets (each serves its built-in Figure-3
// fixture), builds the router's own 2-shard copy of the fixture, and puts
// a TopologyService (one worker, cache off, so every request crosses the
// wire) over a ScatterGatherExecutor whose transport is a
// ReplicaSetTransport of SocketReplicaChannels. Its warm-up pass is a
// fixed 30000-request list (fixed seed), which pays connection pools and
// RTT estimates in set-up; setup_s is the median of three such set-ups
// (harness.h: ReportSetUp). The timed phase replays a seeded list from one
// closed-loop client: all nine methods (the SQL baseline is cheap on the
// fixture) plus 3-queries at a fixed 10% share — far from both the 50%
// and the 1% boundary.
//
// The whole run — router, client and every shard_server, which inherit
// the mask — is pinned to one CPU. A read here is ~0.1 ms of work spread
// over a dozen thread hand-offs (client, service worker, replica
// coordinator and attempt threads, two servers); spread over idle vCPUs of
// a shared KVM guest, each hand-off wakes a halted vCPU through the
// hypervisor, and at 10-25% host steal that cost two to four times the
// quiet throughput. On one CPU every hand-off is a local context switch,
// so host steal slows the run in proportion to the CPU it takes and the
// figures measure the path's own cost: codec, sockets, replica routing,
// scatter and merge. The parallel fan-out to the two shards is not
// measured; one client on one CPU keeps at most one read in flight.
//
// Fleet-wide writes are out of scope: each shard_server mutates alone.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <unordered_map>

#include "biozon/domain.h"
#include "biozon/fig3.h"
#include "common/logging.h"
#include "core/builder.h"
#include "core/pruner.h"
#include "core/store.h"
#include "engine/engine.h"
#include "engine/nquery.h"
#include "graph/data_graph.h"
#include "graph/schema_graph.h"
#include "harness.h"
#include "net/endpoint_client.h"
#include "net/frame_conn.h"
#include "replica/replica_set.h"
#include "service/service.h"
#include "shard/scatter_gather.h"
#include "shard/sharded_store.h"
#include "wire/codec.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace tsbe = tsb::engine;

constexpr size_t kShards = 2;
constexpr size_t kReplicas = 2;
constexpr size_t kServiceThreads = 1;
constexpr size_t kClients = 1;
/// The warm-up list: FleetReads of a fixed seed, 30000 requests.
constexpr double kWarmupListSeconds = 3.0;
constexpr uint64_t kWarmupSeed = 0x5741524d;
/// Samples of the traced run's direct probes.
constexpr size_t kProbeRequests = 2000;

/// Spawned server pids, mirrored for the abort path: TSB_CHECK aborts, and
/// a SIGABRT handler is the only hook that still stops the daemons.
volatile pid_t g_pids[kShards * kReplicas] = {0};

void KillFleetOnAbort(int) {
  for (size_t i = 0; i < kShards * kReplicas; ++i) {
    if (g_pids[i] > 0) ::kill(g_pids[i], SIGKILL);
  }
  ::signal(SIGABRT, SIG_DFL);
  ::raise(SIGABRT);
}

/// The real shard_server grid. Stops (SIGTERM, then waits) on destruction.
class Fleet {
 public:
  Fleet(const std::string& binary, const std::string& run_dir, size_t rep) {
    ::signal(SIGABRT, KillFleetOnAbort);
    const double start = Now();
    for (size_t s = 0; s < kShards; ++s) {
      for (size_t r = 0; r < kReplicas; ++r) {
        const size_t i = s * kReplicas + r;
        paths_[i] = run_dir + "/fleet_" + std::to_string(::getpid()) + "_" +
                    std::to_string(rep) + "_s" + std::to_string(s) + "r" +
                    std::to_string(r) + ".sock";
        ::unlink(paths_[i].c_str());
        Spawn(binary, s, r, i);
      }
    }
    for (size_t i = 0; i < kShards * kReplicas; ++i) {
      TSB_CHECK(AwaitServing(i, start + 30.0))
          << "shard server " << i << " never came up";
    }
    ready_seconds_ = Now() - start;
  }

  ~Fleet() {
    for (size_t i = 0; i < kShards * kReplicas; ++i) {
      if (pids_[i] > 0) ::kill(pids_[i], SIGTERM);
    }
    for (size_t i = 0; i < kShards * kReplicas; ++i) {
      if (out_[i] != nullptr) std::fclose(out_[i]);
      if (pids_[i] > 0) ::waitpid(pids_[i], nullptr, 0);
      g_pids[i] = 0;
      ::unlink(paths_[i].c_str());
    }
  }

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  const std::string& path(size_t shard, size_t replica) const {
    return paths_[shard * kReplicas + replica];
  }
  double ready_seconds() const { return ready_seconds_; }

 private:
  void Spawn(const std::string& binary, size_t shard, size_t replica,
             size_t i) {
    int fds[2];
    TSB_CHECK(::pipe(fds) == 0);
    const pid_t pid = ::fork();
    TSB_CHECK(pid >= 0) << "fork failed";
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // Never outlive the benchmark.
      ::dup2(fds[1], STDOUT_FILENO);
      const int null = ::open("/dev/null", O_WRONLY);
      if (null >= 0) ::dup2(null, STDERR_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      const std::string a = "--shard=" + std::to_string(shard);
      const std::string b = "--num-shards=" + std::to_string(kShards);
      const std::string c = "--replica-id=" + std::to_string(replica);
      const std::string d = "--uds=" + paths_[i];
      ::execl(binary.c_str(), binary.c_str(), a.c_str(), b.c_str(), c.c_str(),
              d.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(fds[1]);
    pids_[i] = pid;
    g_pids[i] = pid;
    out_[i] = ::fdopen(fds[0], "r");
  }

  /// Ready = the process printed its "serving" line and accepts a
  /// connection.
  bool AwaitServing(size_t i, double deadline) {
    char line[512];
    bool serving = false;
    while (!serving && std::fgets(line, sizeof(line), out_[i]) != nullptr) {
      serving = std::strstr(line, "serving shard") != nullptr;
    }
    while (serving && Now() < deadline) {
      if (tsb::net::FrameConn::ConnectUnix(paths_[i],
                                           tsb::net::DeadlineAfter(0.25))
              .ok()) {
        return true;
      }
      ::usleep(1000);
    }
    return false;
  }

  std::string paths_[kShards * kReplicas];
  pid_t pids_[kShards * kReplicas] = {0};
  FILE* out_[kShards * kReplicas] = {nullptr};
  double ready_seconds_ = 0.0;
};

/// Router process state over a running fleet.
struct Router {
  tsb::storage::Catalog db;
  tsb::biozon::BiozonSchema ids;
  std::unique_ptr<tsb::graph::DataGraphView> view;
  std::unique_ptr<tsb::graph::SchemaGraph> schema;
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<tsb::shard::ScatterGatherExecutor> executor;
  std::unique_ptr<tsb::replica::ReplicaSetTransport> transport;
  std::unique_ptr<tsb::service::TopologyService> service;

  double generate_s = 0.0;
  double build_s = 0.0;
  double prune_s = 0.0;
  double index_s = 0.0;
  double warmup_s = 0.0;

  ~Router() {
    service.reset();
    if (executor != nullptr) executor->set_transport(nullptr);
    transport.reset();
    executor.reset();
    fleet.reset();
  }
};

struct Pass {
  std::vector<ReadRecord> records;
  /// 3-query answers as (TID, frequency), by request index.
  std::unordered_map<size_t, std::vector<std::pair<tsb::core::Tid, size_t>>>
      triples;
  std::mutex triples_mu;
  size_t completed = 0;
  double elapsed = 0.0;
};

void Issue(Router* router, const RequestFactory& factory,
           const ReadSpec& spec, uint64_t id, Waiter* waiter,
           ReadRecord* record, Pass* pass, size_t index) {
  if (spec.method != kTripleMethod) {
    IssueWire(router->service.get(), factory.Wire(spec, id), waiter, record);
    return;
  }
  record->submit = Now();
  tsb::service::TripleResponse response =
      router->service->SubmitTriple(factory.Triple(spec)).get();
  record->done = Now();
  record->service_seconds = response.service_seconds;
  record->from_cache = response.from_cache;
  if (!response.result.ok()) {
    record->code = tsb::wire::WireErrorCodeFromStatus(response.result.status());
    return;
  }
  record->partial = response.result->partial;
  std::vector<std::pair<tsb::core::Tid, size_t>> entries;
  for (const auto& e : response.result->entries) {
    entries.emplace_back(e.tid, e.frequency);
  }
  std::lock_guard<std::mutex> lock(pass->triples_mu);
  pass->triples[index] = std::move(entries);
}

void RunReads(Router* router, const RequestFactory& factory,
              const std::vector<ReadSpec>& reads, double stop_at,
              Pass* pass) {
  pass->records.assign(reads.size(), ReadRecord{});
  pass->elapsed = RunClosedLoop(
      reads.size(), kClients, stop_at,
      [&](size_t i, Waiter* waiter) {
        Issue(router, factory, reads[i], i + 1, waiter, &pass->records[i],
              pass, i);
      },
      &pass->completed);
}

std::unique_ptr<Router> SetUp(const Args& args, size_t rep) {
  auto r = std::make_unique<Router>();
  r->fleet = std::make_unique<Fleet>(args.server_binary, args.run_dir, rep);

  const double gen_start = Now();
  r->ids = tsb::biozon::BuildFigure3Database(&r->db);
  r->view = std::make_unique<tsb::graph::DataGraphView>(r->db);
  r->schema = std::make_unique<tsb::graph::SchemaGraph>(r->db);
  r->generate_s = Now() - gen_start;

  // The router's shard set, built exactly as every shard_server builds it.
  const double build_start = Now();
  auto sharded = std::make_shared<tsb::shard::ShardedTopologyStore>(kShards);
  tsb::core::TopologyBuilder builder(&r->db, r->schema.get(), r->view.get());
  tsb::core::BuildConfig build;
  build.max_path_length = 3;
  TSB_CHECK(sharded->Build(&builder, build).ok());
  const double prune_start = Now();
  r->build_s = prune_start - build_start;
  tsb::core::PruneConfig prune;
  prune.frequency_threshold = 0;  // shard_server's default.
  for (size_t s = 0; s < kShards; ++s) {
    auto snapshot = sharded->Snapshot(s);
    std::vector<std::pair<tsb::storage::EntityTypeId,
                          tsb::storage::EntityTypeId>>
        keys;
    for (const auto& [key, pair] : snapshot->pairs()) keys.push_back(key);
    for (const auto& [t1, t2] : keys) {
      TSB_CHECK(tsb::core::PruneFrequentTopologies(&r->db, snapshot.get(), t1,
                                                   t2, prune)
                    .ok());
    }
  }
  r->prune_s = Now() - prune_start;
  r->executor = std::make_unique<tsb::shard::ScatterGatherExecutor>(
      &r->db, sharded, r->schema.get(), r->view.get(),
      tsb::biozon::MakeBiozonDomainKnowledge(r->ids));
  const double index_start = Now();
  const ReadSpace space = FleetSpace();
  for (const auto& [a, b] : space.pairs) r->executor->PrepareIndexes(a, b);
  r->index_s = Now() - index_start;

  std::vector<std::vector<std::unique_ptr<tsb::replica::ReplicaChannel>>>
      channels(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    for (size_t rep_id = 0; rep_id < kReplicas; ++rep_id) {
      channels[s].push_back(
          std::make_unique<tsb::replica::SocketReplicaChannel>(
              tsb::net::ShardEndpoint::Unix(r->fleet->path(s, rep_id))));
    }
  }
  r->transport = std::make_unique<tsb::replica::ReplicaSetTransport>(
      std::move(channels), tsb::replica::ReplicaSetConfig{},
      r->executor->transport_metrics());
  r->executor->set_transport(r->transport.get());
  tsb::service::ServiceConfig config;
  config.num_threads = kServiceThreads;
  config.enable_cache = false;
  r->service = std::make_unique<tsb::service::TopologyService>(
      r->executor.get(), &r->db, config);

  const double warm_start = Now();
  RequestFactory factory(r->db, space);
  const std::vector<ReadSpec> warm =
      FleetReads(kWarmupSeed, kWarmupListSeconds);
  Pass pass;
  RunReads(r.get(), factory, warm, Now() + 120.0, &pass);
  for (size_t i = 0; i < pass.completed; ++i) {
    TSB_CHECK(pass.records[i].ok()) << "warm-up request failed";
  }
  r->warmup_s = Now() - warm_start;
  return r;
}

/// The reference: the same fixture, one store, sequential Engine::Execute
/// (and ExecuteTripleQuery), memoized per distinct request shape.
class Reference {
 public:
  Reference() {
    ids_ = tsb::biozon::BuildFigure3Database(&db_);
    view_ = std::make_unique<tsb::graph::DataGraphView>(db_);
    schema_ = std::make_unique<tsb::graph::SchemaGraph>(db_);
    tsb::core::TopologyBuilder builder(&db_, schema_.get(), view_.get());
    tsb::core::BuildConfig build;
    build.max_path_length = 3;
    TSB_CHECK(builder.BuildAllPairs(build, &store_).ok());
    tsb::core::PruneConfig prune;
    prune.frequency_threshold = 0;
    std::vector<std::pair<tsb::storage::EntityTypeId,
                          tsb::storage::EntityTypeId>>
        keys;
    for (const auto& [key, pair] : store_.pairs()) keys.push_back(key);
    for (const auto& [t1, t2] : keys) {
      TSB_CHECK(
          tsb::core::PruneFrequentTopologies(&db_, &store_, t1, t2, prune)
              .ok());
    }
    engine_ = std::make_unique<tsbe::Engine>(
        &db_, &store_, schema_.get(), view_.get(),
        tsb::core::ScoreModel(&store_.catalog(),
                              tsb::biozon::MakeBiozonDomainKnowledge(ids_)));
    factory_ = std::make_unique<RequestFactory>(db_, FleetSpace());
  }

  uint64_t Answer(const ReadSpec& spec) {
    auto it = memo_.find(spec.Key());
    if (it != memo_.end()) return it->second;
    uint64_t digest = 0;
    if (spec.method == kTripleMethod) {
      auto result = tsbe::ExecuteTripleQuery(&db_, &store_, *schema_, *view_,
                                             factory_->Triple(spec));
      TSB_CHECK(result.ok()) << result.status();
      std::vector<std::pair<tsb::core::Tid, size_t>> entries;
      for (const auto& e : result->entries) {
        entries.emplace_back(e.tid, e.frequency);
      }
      digest = DigestTriple(store_.catalog(), entries);
    } else {
      auto result = engine_->Execute(
          factory_->Query(spec), static_cast<tsbe::MethodKind>(spec.method));
      TSB_CHECK(result.ok()) << result.status();
      digest = DigestEntries(result->entries);
    }
    memo_[spec.Key()] = digest;
    return digest;
  }

  /// Triple TIDs are interned in query order, so they differ between
  /// catalogs: compare the (canonical code, frequency) multiset instead.
  static uint64_t DigestTriple(
      const tsb::core::TopologyCatalog& catalog,
      const std::vector<std::pair<tsb::core::Tid, size_t>>& entries) {
    std::vector<std::pair<std::string, size_t>> coded;
    for (const auto& [tid, freq] : entries) {
      coded.emplace_back(catalog.Get(tid).code, freq);
    }
    std::sort(coded.begin(), coded.end());
    Digest digest;
    for (const auto& [code, freq] : coded) {
      digest.AddString(code);
      digest.AddU64(freq);
    }
    return digest.value();
  }

 private:
  tsb::storage::Catalog db_;
  tsb::biozon::BiozonSchema ids_;
  std::unique_ptr<tsb::graph::DataGraphView> view_;
  std::unique_ptr<tsb::graph::SchemaGraph> schema_;
  tsb::core::TopologyStore store_;
  std::unique_ptr<tsbe::Engine> engine_;
  std::unique_ptr<RequestFactory> factory_;
  std::unordered_map<uint64_t, uint64_t> memo_;
};

size_t CheckAnswers(Router* router, Pass* pass,
                    const std::vector<ReadSpec>& reads, Reference* ref) {
  const tsb::core::TopologyCatalog& catalog =
      router->executor->store().Snapshot(0)->catalog();
  size_t mismatches = 0;
  for (size_t i = 0; i < pass->completed; ++i) {
    const ReadRecord& r = pass->records[i];
    if (!r.ok()) continue;
    uint64_t got = r.digest;
    if (reads[i].method == kTripleMethod) {
      got = Reference::DigestTriple(catalog, pass->triples.at(i));
    }
    if (r.partial || got != ref->Answer(reads[i])) ++mismatches;
  }
  return mismatches;
}

struct ReplicaTotals {
  uint64_t attempts = 0;
  uint64_t hedge_attempts = 0;
  uint64_t hedges = 0;
  uint64_t failovers = 0;
};

ReplicaTotals Totals(const tsb::replica::ReplicaSetTransport& transport) {
  ReplicaTotals t;
  const auto snap = transport.replica_metrics().Snapshot();
  for (const auto& shard : snap.shards) {
    t.hedges += shard.hedges_launched;
    t.failovers += shard.failovers;
    for (const auto& rep : shard.replicas) {
      t.attempts += rep.attempts;
      t.hedge_attempts += rep.hedge_attempts;
    }
  }
  return t;
}

/// Direct probes of the traced run: the executor without the service, one
/// server without the replica layer, and the codec on the run's frames.
void ReportFleetLayers(Router* router, const RequestFactory& factory,
                       const std::vector<ReadSpec>& reads, RunResult* result) {
  std::vector<tsb::wire::WireRequest> requests;
  for (size_t i = 0; i < reads.size() && requests.size() < kProbeRequests;
       ++i) {
    if (reads[i].method != kTripleMethod) {
      requests.push_back(factory.Wire(reads[i], i + 1));
    }
  }

  Samples scatter;
  for (const tsb::wire::WireRequest& request : requests) {
    const double start = Now();
    auto out = router->executor->Execute(request.query, request.method,
                                         request.options);
    scatter.Add(Now() - start);
    TSB_CHECK(out.ok()) << out.status();
  }
  SetQuantile(result, "shard.scatter_ms_p50", "ms", scatter, 0.50, 1e3);

  // One server, no replica layer: RTT and what the server does not
  // account for (RTT - its service_seconds).
  tsb::net::EndpointClient client(
      tsb::net::ShardEndpoint::Unix(router->fleet->path(1, 0)));
  Samples rtt;
  Samples overhead;
  std::vector<std::string> request_frames;
  std::vector<std::string> response_frames;
  for (const tsb::wire::WireRequest& request : requests) {
    std::string frame;
    tsb::wire::EncodeQueryRequest(request, &frame);
    const double start = Now();
    auto reply = client.RoundTrip(frame, tsb::net::DeadlineAfter(10.0));
    const double elapsed = Now() - start;
    TSB_CHECK(reply.ok()) << reply.status();
    auto decoded = tsb::wire::DecodeQueryResponse(*reply);
    TSB_CHECK(decoded.ok()) << decoded.status();
    rtt.Add(elapsed);
    overhead.Add(elapsed - decoded->service_seconds);
    request_frames.push_back(std::move(frame));
    response_frames.push_back(std::move(*reply));
  }
  SetQuantile(result, "net.rtt_us_p50", "us", rtt, 0.50, 1e6);
  SetQuantile(result, "net.rtt_us_p99", "us", rtt, 0.99, 1e6);
  SetQuantile(result, "net.overhead_us_p50", "us", overhead, 0.50, 1e6);

  // Codec cost per frame, requests and responses alike.
  std::vector<tsb::wire::WireResponse> responses;
  double request_bytes = 0.0;
  double response_bytes = 0.0;
  double decode_seconds = 0.0;
  double encode_seconds = 0.0;
  for (size_t i = 0; i < request_frames.size(); ++i) {
    double start = Now();
    auto req = tsb::wire::DecodeQueryRequest(request_frames[i], router->db);
    auto resp = tsb::wire::DecodeQueryResponse(response_frames[i]);
    decode_seconds += Now() - start;
    TSB_CHECK(req.ok() && resp.ok());
    std::string a;
    std::string b;
    start = Now();
    tsb::wire::EncodeQueryRequest(*req, &a);
    tsb::wire::EncodeQueryResponse(*resp, &b);
    encode_seconds += Now() - start;
    TSB_CHECK(a == request_frames[i] && b == response_frames[i])
        << "codec round trip changed a frame";
    request_bytes += static_cast<double>(a.size());
    response_bytes += static_cast<double>(b.size());
  }
  const double frames = 2.0 * static_cast<double>(request_frames.size());
  result->Set("wire.encode_us_per_frame", "us", encode_seconds / frames * 1e6);
  result->Set("wire.decode_us_per_frame", "us", decode_seconds / frames * 1e6);
  result->Set("wire.request_bytes", "B",
              request_bytes / static_cast<double>(request_frames.size()));
  result->Set("wire.response_bytes", "B",
              response_bytes / static_cast<double>(response_frames.size()));
}

}  // namespace

RunResult RunFleetRpc(const Args& args) {
  RunResult result;
  const CpuPin pin(1);  // Servers spawned from here on inherit the mask.
  const std::vector<ReadSpec> reads = FleetReads(args.seed, args.seconds);

  std::unique_ptr<Router> router = SetUp(args, 0);
  const double first_setup = Now();  // From process start.
  RequestFactory factory(router->db, FleetSpace());
  // Guard against a pathological slowdown: no phase issues past this.
  const double stop_at = std::min(Now() + 6.0 * args.seconds, kStopIssuingAt);

  std::deque<Pass> passes;  // Every phase run; all are checked.
  const auto scatter_before = router->executor->GetScatterStats();
  const ReplicaTotals replica_before = Totals(*router->transport);
  auto run_pass = [&]() {
    RunReads(router.get(), factory, reads, stop_at, &passes.emplace_back());
  };
  if (!args.trace) {
    run_pass();
    ReportReads(passes[0].records, passes[0].completed,
                ReadFigures::kChunkMedians, &result);
    result.Set("peak_rss_mb", "MB", PeakRssMb());
  } else {
    run_pass();  // Untraced: the overhead baseline.
    const auto scatter_mid = router->executor->GetScatterStats();
    const ReplicaTotals replica_mid = Totals(*router->transport);
    run_pass();
    const Pass& pass = passes[0];
    const Pass& traced = passes[1];
    const auto scatter_after = router->executor->GetScatterStats();
    const ReplicaTotals replica_after = Totals(*router->transport);
    SpanLog spans;
    double attributed = 0.0;
    for (size_t i = 0; i < traced.completed; ++i) {
      const ReadRecord& r = traced.records[i];
      spans.Add("client.read", i, r.submit, r.done);
      spans.Add("service.submit", i, r.submit, r.submit + r.service_seconds);
      attributed += r.service_seconds;
    }
    result.Set("net.fleet_ready_s", "s", router->fleet->ready_seconds());
    result.Set("biozon.generate_s", "s", router->generate_s);
    result.Set("core.build_s", "s", router->build_s);
    result.Set("core.prune_s", "s", router->prune_s);
    result.Set("engine.index_s", "s", router->index_s);
    result.Set("setup.warmup_s", "s", router->warmup_s);
    ReportServiceLayer(traced.records, traced.completed, &result);
    const uint64_t queries = scatter_after.queries - scatter_mid.queries;
    result.Set("shard.merge_us_per_query", "us",
               (scatter_after.merge_seconds - scatter_mid.merge_seconds) /
                   static_cast<double>(std::max<uint64_t>(1, queries)) * 1e6);
    const uint64_t sends =
        (replica_after.attempts - replica_mid.attempts) -
        (replica_after.hedge_attempts - replica_mid.hedge_attempts);
    result.Set("replica.hedge_ratio", "1",
               static_cast<double>(replica_after.hedges - replica_mid.hedges) /
                   static_cast<double>(std::max<uint64_t>(1, sends)));
    result.Set("replica.failovers", "count",
               static_cast<double>(replica_after.failovers -
                                   replica_mid.failovers));
    ReportFleetLayers(router.get(), factory, reads, &result);
    const double observed = spans.Total("client.read");
    result.Set("trace.coverage", "1",
               observed > 0.0 ? attributed / observed : 0.0);
    result.Set("trace.overhead_ratio", "1",
               OverheadRatio(traced.records, traced.completed, pass.records,
                             pass.completed));
    WriteSpans(spans, args, &result);
  }
  const ReplicaTotals replica_end = Totals(*router->transport);
  const auto scatter_end = router->executor->GetScatterStats();

  FailureCounts failures;
  Reference ref;
  size_t mismatches = 0;
  for (Pass& p : passes) {
    for (size_t i = 0; i < p.completed; ++i) failures.Count(p.records[i].code);
    result.attempted += p.completed;
    mismatches += CheckAnswers(router.get(), &p, reads, &ref);
  }
  if (mismatches > 0) {
    result.Problem(std::to_string(mismatches) +
                   " reads differ from the single-store engine");
  }
  ReportFailures(failures, args.trace, &result);
  for (const Pass& p : passes) {
    if (p.completed < reads.size()) result.Meta("truncated", "true");
  }
  result.Meta("mismatches", std::to_string(mismatches));
  result.Meta("shards", std::to_string(kShards));
  result.Meta("replicas", std::to_string(kReplicas));
  result.Meta("pinned_cpus", JsonString(pin.cpus()));
  result.Meta("clients", std::to_string(kClients));
  result.Meta("service_threads", std::to_string(kServiceThreads));
  result.Meta("transport", JsonString("uds"));
  result.Meta("requests", std::to_string(reads.size()));
  result.Meta("replica_failovers",
              std::to_string(replica_end.failovers - replica_before.failovers));
  result.Meta("degraded_queries",
              std::to_string(scatter_end.degraded_queries -
                             scatter_before.degraded_queries));
  if (!args.trace) {
    size_t rep = 0;
    ReportSetUp(first_setup, [&]() {
      router.reset();
      router = SetUp(args, ++rep);
    }, &result);
  }
  return result;
}

}  // namespace perfbench
