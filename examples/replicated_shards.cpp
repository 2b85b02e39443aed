// Replica sets end to end: spawn an N=2 shards × R=2 replicas grid of
// shard-server processes (tools/shard_server, each stamping its
// --replica-id into responses), point a replica::ReplicaSetTransport at
// the grid, and show the three replica-layer behaviors over real process
// boundaries:
//
//   1. Routing is invisible: all nine query methods return byte-identical
//      results through the replicated grid (vs the single-store engine),
//      with the serving work spread across replicas.
//   2. Failover is invisible: SIGKILL one replica and every answer stays
//      FULL and byte-identical — compare examples/cross_process_shards,
//      where the same kill with R=1 degrades answers to partial=true.
//      The health tracker walks the dead replica suspect → ejected.
//   3. Recovery is automatic: restart the process on the same socket and
//      live traffic probes it back to healthy — no operator action, no
//      out-of-band health checks.
//
// Each server process builds the same deterministic precompute, so
// replicas of a shard agree byte-for-byte (TIDs, scores, ranks) — that is
// what makes any-replica routing and first-answer-wins hedging sound.
//
// Build & run:  ./build/examples/replicated_shards
// (finds the shard_server binary next to itself; override with argv[1])

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "biozon/domain.h"
#include "biozon/fig3.h"
#include "core/builder.h"
#include "core/pruner.h"
#include "engine/engine.h"
#include "graph/data_graph.h"
#include "graph/schema_graph.h"
#include "net/frame_conn.h"
#include "replica/health.h"
#include "replica/replica_set.h"
#include "shard/scatter_gather.h"
#include "shard/sharded_store.h"

namespace {

using namespace tsb;

constexpr size_t kShards = 2;
constexpr size_t kReplicas = 2;

/// Mirror of the spawned server pids for the abort path: TSB_CHECK exits
/// via std::abort (atexit handlers do not run), so a SIGABRT handler is
/// the only hook that keeps a failed run from leaking daemons.
volatile pid_t g_server_pids[kShards * kReplicas] = {0};

void KillServersOnAbort(int) {
  for (size_t i = 0; i < kShards * kReplicas; ++i) {
    const pid_t pid = g_server_pids[i];
    if (pid > 0) ::kill(pid, SIGKILL);  // Async-signal-safe.
  }
  ::signal(SIGABRT, SIG_DFL);
  ::raise(SIGABRT);
}

/// The shard_server binary lives in <exe_dir>/../tools/.
std::string FindServerBinary(const char* argv0_override) {
  if (argv0_override != nullptr) return argv0_override;
  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  TSB_CHECK(n > 0) << "cannot resolve /proc/self/exe";
  exe[n] = '\0';
  std::string dir(exe);
  dir.resize(dir.find_last_of('/'));
  return dir + "/../tools/shard_server";
}

pid_t SpawnServer(const std::string& binary, size_t shard, size_t replica,
                  const std::string& uds) {
  const pid_t pid = ::fork();
  TSB_CHECK(pid >= 0) << "fork failed";
  if (pid == 0) {
    const std::string shard_flag = "--shard=" + std::to_string(shard);
    const std::string n_flag = "--num-shards=" + std::to_string(kShards);
    const std::string r_flag = "--replica-id=" + std::to_string(replica);
    const std::string uds_flag = "--uds=" + uds;
    ::execl(binary.c_str(), binary.c_str(), shard_flag.c_str(),
            n_flag.c_str(), r_flag.c_str(), uds_flag.c_str(),
            (char*)nullptr);
    std::perror(("exec " + binary).c_str());
    ::_exit(127);
  }
  g_server_pids[shard * kReplicas + replica] = pid;
  return pid;
}

bool WaitForServer(const std::string& uds, double timeout_seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    auto conn = net::FrameConn::ConnectUnix(uds, net::DeadlineAfter(0.25));
    if (conn.ok()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  // 1. The frontend's own world: database, reference engine, shard set.
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

  auto sharded = std::make_shared<shard::ShardedTopologyStore>(kShards);
  core::BuildConfig sharded_build = build;
  sharded_build.table_namespace = "rx.";
  TSB_CHECK(sharded->Build(&builder, sharded_build).ok());
  for (size_t i = 0; i < kShards; ++i) {
    auto snapshot = sharded->Snapshot(i);
    for (const auto& [key, pair] : snapshot->pairs()) {
      TSB_CHECK(core::PruneFrequentTopologies(&db, snapshot.get(),
                                              key.first, key.second, prune)
                    .ok());
    }
  }
  shard::ScatterGatherExecutor executor(
      &db, sharded, &schema, &view, biozon::MakeBiozonDomainKnowledge(ids));

  // 2. The process grid: R replicas of each of the N shards, every one a
  //    real daemon on its own socket, stamping "r<id>:e<epoch>" into
  //    every response.
  ::signal(SIGABRT, KillServersOnAbort);
  const std::string binary = FindServerBinary(argc > 1 ? argv[1] : nullptr);
  std::printf("spawning a %zu-shard x %zu-replica server grid (%s)\n",
              kShards, kReplicas, binary.c_str());
  std::vector<std::string> uds_paths(kShards * kReplicas);
  std::vector<pid_t> pids(kShards * kReplicas, -1);
  std::vector<std::vector<net::ShardEndpoint>> endpoints(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    for (size_t r = 0; r < kReplicas; ++r) {
      const size_t i = s * kReplicas + r;
      uds_paths[i] = "/tmp/tsb_repl_" + std::to_string(::getpid()) + "_s" +
                     std::to_string(s) + "r" + std::to_string(r) + ".sock";
      pids[i] = SpawnServer(binary, s, r, uds_paths[i]);
      endpoints[s].push_back(net::ShardEndpoint::Unix(uds_paths[i]));
    }
  }
  for (size_t i = 0; i < uds_paths.size(); ++i) {
    TSB_CHECK(WaitForServer(uds_paths[i], 30.0))
        << "server " << i << " never came up";
    std::printf("  shard %zu replica %zu ready on unix:%s\n",
                i / kReplicas, i % kReplicas, uds_paths[i].c_str());
  }
  auto kill_all = [&pids]() {
    for (pid_t pid : pids) {
      if (pid > 0) ::kill(pid, SIGTERM);
    }
    for (pid_t pid : pids) {
      if (pid > 0) ::waitpid(pid, nullptr, 0);
    }
  };

  net::EndpointClientConfig client_config;
  client_config.backoff_initial_seconds = 0.002;
  client_config.backoff_max_seconds = 0.05;
  replica::ReplicaSetConfig transport_config;
  transport_config.health.failures_to_eject = 3;
  transport_config.health.probe_interval_seconds = 0.05;
  replica::ReplicaSetTransport transport(
      replica::MakeSocketReplicaGrid(endpoints, client_config),
      transport_config, executor.transport_metrics());
  executor.set_transport(&transport);

  engine::TopologyQuery query;
  query.entity_set1 = "Protein";
  query.entity_set2 = "DNA";
  query.scheme = core::RankScheme::kFreq;
  query.k = 10;

  // 3. Nine-method identity through the replicated grid.
  const std::vector<engine::MethodKind> methods = {
      engine::MethodKind::kSql,         engine::MethodKind::kFullTop,
      engine::MethodKind::kFastTop,     engine::MethodKind::kFullTopK,
      engine::MethodKind::kFastTopK,    engine::MethodKind::kFullTopKEt,
      engine::MethodKind::kFastTopKEt,  engine::MethodKind::kFullTopKOpt,
      engine::MethodKind::kFastTopKOpt,
  };
  std::printf("\nnine-method identity, single-store vs replicated grid:\n");
  for (engine::MethodKind method : methods) {
    auto direct = single.Execute(query, method);
    auto replicated = executor.Execute(query, method);
    TSB_CHECK(direct.ok() && replicated.ok())
        << engine::MethodKindToString(method);
    const bool identical = replicated->entries == direct->entries;
    std::printf("  %-14s %2zu entries  %s\n",
                engine::MethodKindToString(method),
                replicated->entries.size(),
                identical ? "identical" : "<< MISMATCH");
    TSB_CHECK(identical) << "replicated ranking diverged for "
                         << engine::MethodKindToString(method);
    TSB_CHECK(!replicated->partial);
  }
  auto clean = executor.Execute(query, engine::MethodKind::kFullTop);
  TSB_CHECK(clean.ok());

  // 4. SIGKILL one replica of every shard — the one the router currently
  //    favors (lowest RTT EWMA: the same signal PickReplica routes by),
  //    so the next sub-query walks into the dead socket and must fail
  //    over. With R=1 (see cross_process_shards) this kill degrades
  //    answers to partial=true; with a replica set the sibling absorbs
  //    the traffic and every answer stays full and byte-identical, while
  //    the dead replica walks the health ladder suspect → ejected.
  std::vector<size_t> victims(kShards, 0);
  for (size_t s = 0; s < kShards; ++s) {
    for (size_t r = 1; r < kReplicas; ++r) {
      if (transport.replica_metrics().RttEwma(s, r) <
          transport.replica_metrics().RttEwma(s, victims[s])) {
        victims[s] = r;
      }
    }
  }
  std::printf("\nSIGKILL the favored replica of every shard...\n");
  for (size_t s = 0; s < kShards; ++s) {
    const size_t i = s * kReplicas + victims[s];
    std::printf("  shard %zu: killing replica %zu (pid %d)\n", s,
                victims[s], pids[i]);
    ::kill(pids[i], SIGKILL);
    ::waitpid(pids[i], nullptr, 0);
    g_server_pids[i] = 0;
    pids[i] = -1;
  }
  size_t full = 0;
  for (int q = 0; q < 40; ++q) {
    auto result = executor.Execute(query, engine::MethodKind::kFullTop);
    TSB_CHECK(result.ok()) << "query failed instead of failing over";
    TSB_CHECK(!result->partial)
        << "replica failover leaked a partial answer";
    TSB_CHECK(result->entries == clean->entries);
    ++full;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::printf("  %zu/40 queries answered FULL and byte-identical through "
              "the kill\n",
              full);
  for (size_t s = 0; s < kShards; ++s) {
    for (size_t r = 0; r < kReplicas; ++r) {
      std::printf("  shard %zu replica %zu: %s\n", s, r,
                  replica::ReplicaHealthToString(transport.health().state(s, r)));
    }
  }

  // 5. Restart the killed replicas on their original sockets: live
  //    traffic probes them back in — reinstatement needs no operator.
  std::printf("\nrestarting the killed replicas...\n");
  for (size_t s = 0; s < kShards; ++s) {
    const size_t i = s * kReplicas + victims[s];
    pids[i] = SpawnServer(binary, s, victims[s], uds_paths[i]);
    TSB_CHECK(WaitForServer(uds_paths[i], 30.0));
  }
  bool healed = false;
  for (int q = 0; q < 400 && !healed; ++q) {
    auto result = executor.Execute(query, engine::MethodKind::kFullTop);
    TSB_CHECK(result.ok() && !result->partial);
    TSB_CHECK(result->entries == clean->entries);
    healed = true;
    for (size_t s = 0; s < kShards; ++s) {
      // Only shards that actually route traffic re-probe; a shard whose
      // sub-queries never cross the transport stays wherever it was.
      if (transport.replica_metrics()
              .Snapshot()
              .shards[s]
              .replicas[victims[s]]
              .attempts == 0) {
        continue;
      }
      if (transport.health().state(s, victims[s]) !=
          replica::ReplicaHealth::kHealthy) {
        healed = false;
      }
    }
    if (!healed) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  TSB_CHECK(healed) << "killed replicas never probed back in";
  std::printf("  probes reinstated the restarted replicas (health: all "
              "routed replicas healthy)\n");

  std::printf(
      "\nper-replica telemetry:\n%s",
      service::ReplicaTable(transport.replica_metrics().Read()).c_str());
  executor.set_transport(nullptr);

  kill_all();
  for (const std::string& path : uds_paths) ::unlink(path.c_str());
  std::printf("\nOK\n");
  return 0;
}
