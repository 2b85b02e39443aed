// Replica-set failover and hedged reads under fault injection, with every
// answer verified byte-identical to the single-store engine.
//
// Part 1 — process grid: spawn an N=2 × R=2 grid of real shard_server
// processes (four daemons, each stamping its --replica-id into responses),
// flood queries through a replica::ReplicaSetTransport, and SIGKILL one
// replica mid-run. The run must finish with ZERO partial answers and zero
// ranking mismatches — the killed process is absorbed by failover — and
// the post-kill latency tail stays bounded (the dead socket fails fast and
// the sibling answers).
//
// Part 2 — hedging: an in-process loopback grid where replica 0 of every
// shard stalls a fixed tail latency. With hedging on, the p95-derived
// hedge delay fires the sibling early and p99 collapses to roughly the
// hedge delay; with hedging off, p99 is the injected stall. The printed
// ratio is the tentpole's "hedging measurably cuts p99" claim.
//
// Results also land in BENCH_replica.json (machine-readable, for CI
// trend tracking).
//
// Flags: --queries=<n> flood size per phase (default 600),
//        --stall-ms=<t> injected tail for the hedging part (default 20),
//        --server=<path> shard_server binary override.
//
// Build & run:  ./build/bench/bench_replica_failover

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "net/frame_conn.h"
#include "replica/replica_set.h"
#include "shard/replica_loopback.h"
#include "shard/scatter_gather.h"
#include "shard/sharded_store.h"

namespace {

using namespace tsb;
using bench::Percentile;

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
std::string FindServerBinary(const std::string& override_path) {
  if (!override_path.empty()) return override_path;
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

struct FloodOutcome {
  std::vector<double> latencies;
  size_t partials = 0;
  size_t mismatches = 0;
  size_t failures = 0;
};

FloodOutcome Flood(shard::ScatterGatherExecutor* executor,
                   const engine::TopologyQuery& query,
                   const std::vector<engine::ResultEntry>& expected,
                   size_t queries) {
  FloodOutcome outcome;
  outcome.latencies.reserve(queries);
  for (size_t i = 0; i < queries; ++i) {
    const auto start = std::chrono::steady_clock::now();
    auto result = executor->Execute(query, engine::MethodKind::kFullTop);
    outcome.latencies.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count());
    if (!result.ok()) {
      ++outcome.failures;
      continue;
    }
    if (result->partial) ++outcome.partials;
    if (result->entries != expected) ++outcome.mismatches;
  }
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const size_t queries = static_cast<size_t>(
      bench::FlagValue(argc, argv, "queries", 600));
  const double stall_seconds =
      bench::FlagValue(argc, argv, "stall-ms", 20.0) / 1e3;
  std::string server_override;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--server=", 9) == 0) {
      server_override = argv[i] + 9;
    }
  }

  // The frontend's world: Figure-3 database (what shard_server builds),
  // single-store reference engine, and the frontend shard set.
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

  auto MakeExecutor = [&](const std::string& ns) {
    auto sharded = std::make_shared<shard::ShardedTopologyStore>(kShards);
    core::BuildConfig sharded_build = build;
    sharded_build.table_namespace = ns;
    TSB_CHECK(sharded->Build(&builder, sharded_build).ok());
    for (size_t i = 0; i < kShards; ++i) {
      auto snapshot = sharded->Snapshot(i);
      for (const auto& [key, pair] : snapshot->pairs()) {
        TSB_CHECK(core::PruneFrequentTopologies(&db, snapshot.get(),
                                                key.first, key.second,
                                                prune)
                      .ok());
      }
    }
    return std::make_unique<shard::ScatterGatherExecutor>(
        &db, sharded, &schema, &view, biozon::MakeBiozonDomainKnowledge(ids));
  };

  engine::TopologyQuery query;
  query.entity_set1 = "Protein";
  query.entity_set2 = "DNA";
  query.scheme = core::RankScheme::kFreq;
  query.k = 10;
  auto expected = single.Execute(query, engine::MethodKind::kFullTop);
  TSB_CHECK(expected.ok());

  // --- Part 1: the process grid and the SIGKILL -------------------------
  ::signal(SIGABRT, KillServersOnAbort);
  const std::string binary = FindServerBinary(server_override);
  std::printf("spawning %zux%zu shard-server grid (%s)\n", kShards,
              kReplicas, binary.c_str());
  std::vector<std::string> uds_paths(kShards * kReplicas);
  std::vector<pid_t> pids(kShards * kReplicas, -1);
  std::vector<std::vector<net::ShardEndpoint>> endpoints(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    for (size_t r = 0; r < kReplicas; ++r) {
      const size_t i = s * kReplicas + r;
      uds_paths[i] = "/tmp/tsb_bench_replica_" + std::to_string(::getpid()) +
                     "_s" + std::to_string(s) + "r" + std::to_string(r) +
                     ".sock";
      pids[i] = SpawnServer(binary, s, r, uds_paths[i]);
      endpoints[s].push_back(net::ShardEndpoint::Unix(uds_paths[i]));
    }
  }
  for (size_t i = 0; i < uds_paths.size(); ++i) {
    TSB_CHECK(WaitForServer(uds_paths[i], 30.0))
        << "server " << i << " never came up";
  }
  net::EndpointClientConfig client_config;
  client_config.backoff_initial_seconds = 0.002;
  client_config.backoff_max_seconds = 0.05;

  auto executor = MakeExecutor("bf.");
  replica::ReplicaSetConfig transport_config;
  transport_config.health.probe_interval_seconds = 0.05;
  replica::ReplicaSetTransport transport(
      replica::MakeSocketReplicaGrid(endpoints, client_config),
      transport_config, executor->transport_metrics());
  executor->set_transport(&transport);

  std::printf("flooding %zu queries, then SIGKILL one replica, then %zu "
              "more...\n",
              queries, queries);
  FloodOutcome pre = Flood(executor.get(), query, expected->entries,
                           queries);

  // SIGKILL the replica the router currently favors, on the shard that
  // actually carries wire traffic (the designated shard runs inline and
  // never crosses the transport). The favorite is the replica with the
  // lowest RTT EWMA — exactly the routing signal — so the very next
  // sub-query walks into the dead socket and must fail over.
  auto snap = transport.replica_metrics().Snapshot();
  size_t victim_shard = 0;
  uint64_t best = 0;
  for (size_t s = 0; s < kShards; ++s) {
    uint64_t attempts = 0;
    for (const auto& rep : snap.shards[s].replicas) {
      attempts += rep.attempts;
    }
    if (attempts > best) {
      best = attempts;
      victim_shard = s;
    }
  }
  TSB_CHECK(best > 0) << "no shard crossed the transport";
  size_t victim_replica = 0;
  for (size_t r = 1; r < kReplicas; ++r) {
    if (transport.replica_metrics().RttEwma(victim_shard, r) <
        transport.replica_metrics().RttEwma(victim_shard,
                                            victim_replica)) {
      victim_replica = r;
    }
  }
  const size_t victim = victim_shard * kReplicas + victim_replica;
  std::printf("SIGKILL shard %zu replica %zu (pid %d)\n", victim_shard,
              victim_replica, pids[victim]);
  ::kill(pids[victim], SIGKILL);
  ::waitpid(pids[victim], nullptr, 0);
  g_server_pids[victim] = 0;
  pids[victim] = -1;

  FloodOutcome post = Flood(executor.get(), query, expected->entries,
                            queries);
  executor->set_transport(nullptr);

  snap = transport.replica_metrics().Snapshot();
  uint64_t failovers = 0;
  uint64_t ejections = 0;
  uint64_t exhausted = 0;
  for (const auto& shard : snap.shards) {
    failovers += shard.failovers;
    exhausted += shard.exhausted;
    for (const auto& rep : shard.replicas) ejections += rep.ejections;
  }

  const double pre_p50 = Percentile(pre.latencies, 0.50);
  const double pre_p99 = Percentile(pre.latencies, 0.99);
  const double post_p50 = Percentile(post.latencies, 0.50);
  const double post_p99 = Percentile(post.latencies, 0.99);
  std::printf(
      "\nSIGKILL absorption (%zu + %zu queries):\n"
      "  partials      %zu (must be 0)\n"
      "  mismatches    %zu (must be 0)\n"
      "  failures      %zu (must be 0)\n"
      "  failovers     %llu, ejections %llu, exhausted %llu\n"
      "  latency p50   %.3fms -> %.3fms (pre -> post kill)\n"
      "  latency p99   %.3fms -> %.3fms\n",
      queries, queries, pre.partials + post.partials,
      pre.mismatches + post.mismatches, pre.failures + post.failures,
      static_cast<unsigned long long>(failovers),
      static_cast<unsigned long long>(ejections),
      static_cast<unsigned long long>(exhausted), 1e3 * pre_p50,
      1e3 * post_p50, 1e3 * pre_p99, 1e3 * post_p99);
  TSB_CHECK(pre.partials + post.partials == 0)
      << "a killed replica leaked a partial answer";
  TSB_CHECK(pre.mismatches + post.mismatches == 0);
  TSB_CHECK(pre.failures + post.failures == 0);
  TSB_CHECK(failovers > 0) << "the kill was never routed around";

  for (pid_t pid : pids) {
    if (pid > 0) ::kill(pid, SIGTERM);
  }
  for (pid_t pid : pids) {
    if (pid > 0) ::waitpid(pid, nullptr, 0);
  }
  for (const std::string& path : uds_paths) ::unlink(path.c_str());

  // --- Part 2: hedging on/off over an injected tail ---------------------
  // Every replica stalls on every 25th of its own round-trips (a GC
  // pause / page-miss tail that follows the traffic, so EWMA routing
  // cannot sideline it the way it sidelines a permanently slow replica).
  // 1/25 = 4% keeps the stalls under the p95 the hedge delay derives
  // from, so the delay stays at the fast-path floor while the stalled 4%
  // land squarely in p99 — exactly the tail hedging exists to cut.
  constexpr uint64_t kStallEvery = 25;
  std::printf("\nhedged reads vs a %.0fms stall on every %lluth "
              "round-trip of every replica (loopback grid):\n",
              1e3 * stall_seconds,
              static_cast<unsigned long long>(kStallEvery));
  double hedged_p99 = 0.0;
  double unhedged_p99 = 0.0;
  uint64_t hedges_launched = 0;
  uint64_t hedge_wins = 0;
  for (const bool hedge_on : {true, false}) {
    auto hedge_executor = MakeExecutor(hedge_on ? "bh." : "bn.");
    std::vector<const engine::Engine*> engines;
    for (size_t i = 0; i < kShards; ++i) {
      engines.push_back(&hedge_executor->shard_engine(i));
    }
    shard::LoopbackReplicaGrid grid = shard::MakeLoopbackReplicaGrid(
        &db, &hedge_executor->store(), engines, kReplicas);
    for (auto& shard : grid.raw) {
      for (auto* channel : shard) {
        channel->SetStallEvery(kStallEvery, stall_seconds);
      }
    }
    replica::ReplicaSetConfig hedge_config;
    hedge_config.hedge_enabled = hedge_on;
    hedge_config.hedge_delay_default_seconds = stall_seconds / 8.0;
    replica::ReplicaSetTransport hedge_transport(
        std::move(grid.channels), hedge_config,
        hedge_executor->transport_metrics());
    hedge_executor->set_transport(&hedge_transport);

    FloodOutcome outcome = Flood(hedge_executor.get(), query,
                                 expected->entries, queries);
    hedge_executor->set_transport(nullptr);
    TSB_CHECK(outcome.partials == 0 && outcome.mismatches == 0 &&
              outcome.failures == 0);
    const double p99 = Percentile(outcome.latencies, 0.99);
    if (hedge_on) {
      hedged_p99 = p99;
      auto hedge_snap = hedge_transport.replica_metrics().Snapshot();
      for (const auto& shard : hedge_snap.shards) {
        hedges_launched += shard.hedges_launched;
        for (const auto& rep : shard.replicas) {
          hedge_wins += rep.hedge_wins;
        }
      }
    } else {
      unhedged_p99 = p99;
    }
    std::printf("  hedging %-3s  p50 %7.3fms  p99 %7.3fms\n",
                hedge_on ? "on" : "off",
                1e3 * Percentile(outcome.latencies, 0.50), 1e3 * p99);
  }
  const double improvement =
      hedged_p99 > 0.0 ? unhedged_p99 / hedged_p99 : 0.0;
  std::printf("  p99 cut: %.1fx (%llu hedges launched, %llu won)\n",
              improvement,
              static_cast<unsigned long long>(hedges_launched),
              static_cast<unsigned long long>(hedge_wins));
  TSB_CHECK(hedges_launched > 0);
  TSB_CHECK(hedged_p99 < unhedged_p99)
      << "hedging did not cut the injected tail";

  // --- Machine-readable results ------------------------------------------
  FILE* json = std::fopen("BENCH_replica.json", "w");
  TSB_CHECK(json != nullptr);
  std::fprintf(
      json,
      "{\n"
      "  \"bench\": \"replica_failover\",\n"
      "  \"grid\": {\"shards\": %zu, \"replicas\": %zu},\n"
      "  \"flood\": {\"queries\": %zu, \"partials\": %zu, "
      "\"mismatches\": %zu, \"failures\": %zu},\n"
      "  \"failover\": {\"failovers\": %llu, \"ejections\": %llu, "
      "\"exhausted\": %llu},\n"
      "  \"latency_seconds\": {\n"
      "    \"pre_kill\": {\"p50\": %.6f, \"p99\": %.6f},\n"
      "    \"post_kill\": {\"p50\": %.6f, \"p99\": %.6f}\n"
      "  },\n"
      "  \"hedging\": {\"stall_seconds\": %.6f, \"hedged_p99\": %.6f, "
      "\"unhedged_p99\": %.6f, \"p99_cut\": %.2f, \"launched\": %llu, "
      "\"wins\": %llu}\n"
      "}\n",
      kShards, kReplicas, 2 * queries, pre.partials + post.partials,
      pre.mismatches + post.mismatches, pre.failures + post.failures,
      static_cast<unsigned long long>(failovers),
      static_cast<unsigned long long>(ejections),
      static_cast<unsigned long long>(exhausted), pre_p50, pre_p99,
      post_p50, post_p99, stall_seconds, hedged_p99, unhedged_p99,
      improvement, static_cast<unsigned long long>(hedges_launched),
      static_cast<unsigned long long>(hedge_wins));
  std::fclose(json);
  std::printf("\nwrote BENCH_replica.json\nOK\n");
  return 0;
}
