// The shard server daemon: hosts one shard of an N-way partitioned
// topology store and serves wire frames (sub-queries and triple-collect
// scans) over a Unix-domain or TCP socket — the storage-worker half of
// cross-process sharding. A query frontend (ScatterGatherExecutor +
// replica::ReplicaSetTransport over socket channels) fans sub-queries out
// to N of these processes, or N×R with replicas, and merges the partials;
// see examples/cross_process_shards.cpp and examples/replicated_shards.cpp.
//
// The process builds its own replica of the data set and the full sharded
// precompute (deterministic, so TIDs and scores agree with every other
// replica — the property the byte-identity checks rest on), then serves
// its shard's slice until SIGTERM/SIGINT.
//
// Flags:
//   --shard=<i>            shard index served by this process (default 0)
//   --num-shards=<n>       total shards in the partition (default 1)
//   --replica-id=<r>       this process's replica id within its shard's
//                          replica set (default 0); stamped into every
//                          response ("r<id>:e<epoch>") and into log lines
//   --uds=<path>           listen on this Unix-domain socket path
//   --tcp-port=<p>         listen on 127.0.0.1:<p> instead (0 = ephemeral)
//   --max-path-length=<l>  precompute path-length cap (default 3)
//   --prune-threshold=<t>  PruneFrequentTopologies threshold (default 0)
//   --slow-query-ms=<ms>   slow-query log threshold in milliseconds
//                          (default 0 = disabled)
//   --trace-recent=<n>     ring of recent shard-side trace fragments kept
//                          for the admin channel (default 32)
//   --wal-dir=<dir>        enable the durable mutation WAL: batches are
//                          fsync'd to <dir>/shard<i>_r<r>.wal before they
//                          become visible, and the log is replayed on
//                          startup — a SIGKILL'd server recovers every
//                          acknowledged mutation by rebuilding the fixture
//                          and re-applying the log. Without the flag the
//                          mutation channel still works, non-durably.
//   --compaction-min-gens=<n>  background-fold trigger: compact once this
//                          many overlay generations accumulate (default 4)
//
// Observability: the process serves the kAdminRequest admin channel
// (tools/topctl pulls Prometheus metrics, JSON, traces, and the slow-query
// log over the same socket it serves queries on), dumps its full
// metrics/trace snapshot to stderr on SIGUSR1, and again at clean
// SIGTERM/SIGINT shutdown.
//
// Example:  shard_server --shard=1 --num-shards=4 --replica-id=1 \
//               --uds=/tmp/shard1r1.sock

#include <signal.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "biozon/domain.h"
#include "biozon/fig3.h"
#include "core/builder.h"
#include "core/pruner.h"
#include "engine/engine.h"
#include "graph/data_graph.h"
#include "graph/schema_graph.h"
#include "mutation/delta_log.h"
#include "mutation/mutation.h"
#include "mutation/mutation_engine.h"
#include "net/shard_server.h"
#include "obs/admin.h"
#include "obs/registry.h"
#include "obs/slow_log.h"
#include "obs/trace.h"
#include "service/metrics.h"
#include "shard/frame_handler.h"
#include "shard/sharded_store.h"
#include "wire/message.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_dump = 0;

void HandleSignal(int) { g_stop = 1; }

void HandleDumpSignal(int) { g_dump = 1; }

/// "--name=value" flag lookup; returns `fallback` when absent.
std::string FlagString(int argc, char** argv, const std::string& name,
                       const std::string& fallback) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return fallback;
}

long FlagLong(int argc, char** argv, const std::string& name,
              long fallback) {
  const std::string value = FlagString(argc, argv, name, "");
  return value.empty() ? fallback : std::atol(value.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tsb;

  const size_t shard =
      static_cast<size_t>(FlagLong(argc, argv, "shard", 0));
  const size_t num_shards =
      static_cast<size_t>(FlagLong(argc, argv, "num-shards", 1));
  const uint64_t replica_id =
      static_cast<uint64_t>(FlagLong(argc, argv, "replica-id", 0));
  const std::string uds = FlagString(argc, argv, "uds", "");
  const long tcp_port = FlagLong(argc, argv, "tcp-port", -1);
  const size_t max_path_length =
      static_cast<size_t>(FlagLong(argc, argv, "max-path-length", 3));
  const size_t prune_threshold =
      static_cast<size_t>(FlagLong(argc, argv, "prune-threshold", 0));
  const long slow_query_ms = FlagLong(argc, argv, "slow-query-ms", 0);
  const size_t trace_recent =
      static_cast<size_t>(FlagLong(argc, argv, "trace-recent", 32));
  const std::string wal_dir = FlagString(argc, argv, "wal-dir", "");
  const size_t compaction_min_gens = static_cast<size_t>(
      FlagLong(argc, argv, "compaction-min-gens", 4));

  if (shard >= num_shards) {
    std::fprintf(stderr, "shard_server: --shard=%zu out of range (%zu)\n",
                 shard, num_shards);
    return 1;
  }
  if (uds.empty() && tcp_port < 0) {
    std::fprintf(stderr,
                 "shard_server: need --uds=<path> or --tcp-port=<p>\n");
    return 1;
  }

  // This replica's data set and precompute. Build the *complete* shard
  // set (the Figure-3 fixture is small) so catalog interning sees every
  // topology in the canonical first-encounter order — identical TIDs and
  // global frequency maps on every replica — then serve only our slice.
  storage::Catalog db;
  biozon::BiozonSchema ids = biozon::BuildFigure3Database(&db);
  graph::DataGraphView view(db);
  graph::SchemaGraph schema(db);

  auto sharded = std::make_shared<shard::ShardedTopologyStore>(num_shards);
  core::TopologyBuilder builder(&db, &schema, &view);
  core::BuildConfig build;
  build.max_path_length = max_path_length;
  Status built = sharded->Build(&builder, build);
  if (!built.ok()) {
    std::fprintf(stderr, "shard_server: build failed: %s\n",
                 built.ToString().c_str());
    return 1;
  }
  // Prune only the served shard: pruning derives that store's private
  // LeftTops/ExcpTops tables and never touches the other replicas, so
  // the other N-1 slices (built above only for deterministic catalog
  // interning) would be dead work.
  core::PruneConfig prune;
  prune.frequency_threshold = prune_threshold;
  {
    auto snapshot = sharded->Snapshot(shard);
    std::vector<std::pair<storage::EntityTypeId, storage::EntityTypeId>>
        keys;
    for (const auto& [key, pair] : snapshot->pairs()) keys.push_back(key);
    for (const auto& [t1, t2] : keys) {
      auto pruned =
          core::PruneFrequentTopologies(&db, snapshot.get(), t1, t2, prune);
      if (!pruned.ok()) {
        std::fprintf(stderr, "shard_server: prune failed: %s\n",
                     pruned.status().ToString().c_str());
        return 1;
      }
    }
  }

  const std::shared_ptr<core::StoreHandle>& handle = sharded->handle(shard);
  engine::Engine engine(
      &db, handle, &schema, &view,
      core::ScoreModel(&handle->Snapshot()->catalog(),
                       biozon::MakeBiozonDomainKnowledge(ids)));
  shard::ShardFrameHandler handler(
      &db, &engine, [sharded, shard]() { return sharded->Snapshot(shard); },
      [sharded, shard, replica_id]() {
        return wire::MakeServingStamp(replica_id,
                                      sharded->handle(shard)->epoch());
      });

  // The incremental write path: every replica holds all N shard stores
  // (built above for catalog determinism), so the mutation engine applies
  // each batch to the full set with the same SplitStagingForShards routing
  // as the base build — replicas that apply the same batches in the same
  // order stay byte-identical, and this process keeps serving its slice.
  mutation::MutationEngine::Options mutation_options;
  mutation_options.build = build;
  mutation_options.compaction_min_generations = compaction_min_gens;
  std::vector<std::shared_ptr<core::StoreHandle>> handles;
  for (size_t i = 0; i < num_shards; ++i) handles.push_back(sharded->handle(i));
  mutation::MutationEngine mutation_engine(&db, &schema, std::move(handles),
                                           mutation_options);
  mutation::DeltaLog wal;
  if (!wal_dir.empty()) {
    const std::string wal_path = wal_dir + "/shard" + std::to_string(shard) +
                                 "_r" + std::to_string(replica_id) + ".wal";
    std::vector<mutation::MutationBatch> replayed;
    auto opened = wal.Open(wal_path, &replayed);
    if (!opened.ok()) {
      std::fprintf(stderr, "shard_server: WAL open failed: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    Status recovered = mutation_engine.Replay(replayed);
    if (!recovered.ok()) {
      std::fprintf(stderr, "shard_server: WAL replay failed: %s\n",
                   recovered.ToString().c_str());
      return 1;
    }
    mutation_engine.set_delta_log(&wal);
    std::printf("shard_server: WAL %s replayed %zu batches (%zu ops, %zu "
                "bytes truncated)\n",
                wal_path.c_str(), opened.value().batches, opened.value().ops,
                opened.value().truncated_bytes);
  }
  handler.set_mutation_apply(
      [&mutation_engine, &wal](const mutation::MutationBatch& batch) {
        return wal.is_open() ? mutation_engine.ApplyLogged(batch)
                             : mutation_engine.Apply(batch);
      });
  mutation_engine.StartCompaction();

  // Observability: per-frame metrics, shard-side trace fragments, the
  // slow-query log, and the admin channel topctl pulls them through.
  service::ServiceMetrics metrics;
  obs::TracerConfig tracer_config;
  tracer_config.max_recent = trace_recent;
  obs::Tracer tracer(tracer_config);
  obs::SlowQueryConfig slow_config;
  slow_config.threshold_seconds = slow_query_ms / 1000.0;
  obs::SlowQueryLog slow_log(slow_config);
  obs::MetricsRegistry registry;
  registry.Register(&metrics);
  net::ShardServer* server_ptr = nullptr;
  static const obs::MetricFamily kConnectionsAccepted{
      "tsb_server_connections_accepted_total",
      "Connections accepted by the shard server.", obs::MetricKind::kCounter,
      {"shard", "replica"}};
  static const obs::MetricFamily kFramesServed{
      "tsb_server_frames_served_total",
      "Wire frames served by the shard server.", obs::MetricKind::kCounter,
      {"shard", "replica"}};
  obs::CallbackSource server_source([&server_ptr, shard, replica_id](
                                        obs::MetricsRead* read) {
    if (server_ptr == nullptr) return;
    const std::vector<std::string> labels = {std::to_string(shard),
                                             std::to_string(replica_id)};
    read->Add(kConnectionsAccepted, labels)
        .Set(server_ptr->connections_accepted());
    read->Add(kFramesServed, labels).Set(server_ptr->frames_served());
  });
  registry.Register(&server_source);
  registry.Register(&mutation_engine);
  obs::AdminState admin;
  admin.registry = &registry;
  admin.tracer = &tracer;
  admin.slow_log = &slow_log;
  admin.text_renderer = [&metrics]() {
    return service::MetricsTable(metrics.Read());
  };
  admin.compaction_renderer = [&mutation_engine]() {
    return mutation_engine.StatusString();
  };
  admin.cost_snapshot = [&registry, &slow_log]() {
    return service::FleetSnapshotOf(registry.Read(), &slow_log);
  };
  shard::ShardObservability observability;
  observability.metrics = &metrics;
  observability.tracer = &tracer;
  observability.slow_log = &slow_log;
  observability.admin = &admin;
  handler.set_observability(observability);

  const auto dump_snapshot = [&](const char* reason) {
    std::fprintf(stderr,
                 "shard_server: --- observability dump (%s) ---\n%s\n%s%s"
                 "%s\n"
                 "shard_server: --- end dump ---\n",
                 reason, service::MetricsTable(metrics.Read()).c_str(),
                 tracer.RenderRecent().c_str(), slow_log.ToString().c_str(),
                 mutation_engine.StatusString().c_str());
    std::fflush(stderr);
  };

  net::ShardServerConfig server_config;
  server_config.uds_path = uds;
  if (tcp_port >= 0) {
    server_config.tcp_port = static_cast<uint16_t>(tcp_port);
  }
  net::ShardServer server(&handler, server_config);
  server_ptr = &server;
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "shard_server: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::printf("shard_server: serving shard %zu/%zu replica %llu on %s "
              "(%zu catalog topologies)\n",
              shard, num_shards,
              static_cast<unsigned long long>(replica_id),
              server.endpoint().c_str(),
              sharded->Snapshot(shard)->catalog().size());
  std::fflush(stdout);

  // Block the shutdown signals, then wait in sigsuspend: the signal can
  // only be delivered inside the atomic unblock-and-wait, so a SIGTERM
  // arriving between the g_stop check and the wait cannot be lost (the
  // classic pause() race).
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGINT);
  sigaddset(&mask, SIGTERM);
  sigaddset(&mask, SIGUSR1);
  sigset_t unblocked;
  sigprocmask(SIG_BLOCK, &mask, &unblocked);
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGUSR1, HandleDumpSignal);
  while (!g_stop) {
    sigsuspend(&unblocked);
    if (g_dump) {
      // SIGUSR1: dump the live metrics/trace snapshot without stopping.
      g_dump = 0;
      dump_snapshot("SIGUSR1");
    }
  }
  sigprocmask(SIG_SETMASK, &unblocked, nullptr);

  server.Stop();
  dump_snapshot("shutdown");
  std::printf("shard_server: shard %zu replica %llu stopped (%llu "
              "connections, %llu frames)\n",
              shard, static_cast<unsigned long long>(replica_id),
              static_cast<unsigned long long>(server.connections_accepted()),
              static_cast<unsigned long long>(server.frames_served()));
  return 0;
}
