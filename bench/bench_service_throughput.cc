// Aggregate throughput of the concurrent query service (src/service/):
// sweeps 1 -> 16 client threads over a mixed query workload against
// (Protein, Interaction), cold (cache disabled) versus warm (cache
// enabled, pre-warmed), verifying that every concurrent response is
// identical to sequential Engine::Execute ground truth.
//
// This is the serving-layer counterpart of Table 2: the paper measures
// single-query latency per method; a shared biological-database service
// lives or dies by queries/second under concurrent load.
//
// Flags: --scale=<f>     world scale (default 0.5)
//        --threads=<n>   max client threads (default 16)
//        --sweeps=<n>    sweeps of the query set per client (default 2)
//
// Expected shape:
//  * cold throughput rises with clients until cores saturate;
//  * warm throughput is >= 5x cold at every thread count (cache hits skip
//    evaluation entirely);
//  * zero mismatches and zero failures in every cell.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/table_printer.h"
#include "obs/cost.h"
#include "service/service.h"
#include "wire/message.h"

namespace tsb {
namespace bench {
namespace {

struct WorkItem {
  wire::WireRequest request;
  std::vector<engine::ResultEntry> expected;
};

std::vector<WorkItem> BuildWorkload(World* world) {
  const engine::MethodKind methods[] = {
      engine::MethodKind::kFullTop,    engine::MethodKind::kFastTop,
      engine::MethodKind::kFullTopK,   engine::MethodKind::kFastTopK,
      engine::MethodKind::kFullTopKEt, engine::MethodKind::kFastTopKEt,
  };
  const core::RankScheme schemes[] = {core::RankScheme::kFreq,
                                      core::RankScheme::kDomain,
                                      core::RankScheme::kRare};
  const char* tiers[] = {"selective", "medium", "unselective"};

  std::vector<WorkItem> workload;
  size_t method_index = 0;
  for (const char* protein_tier : tiers) {
    for (const char* interaction_tier : tiers) {
      for (core::RankScheme scheme : schemes) {
        WorkItem item;
        engine::TopologyQuery& query = item.request.query;
        query.entity_set1 = "Protein";
        query.pred1 = biozon::SelectivityPredicate(world->db, "Protein",
                                                   protein_tier);
        query.entity_set2 = "Interaction";
        query.pred2 = biozon::SelectivityPredicate(world->db, "Interaction",
                                                   interaction_tier);
        query.scheme = scheme;
        query.k = 10;
        item.request.method = methods[method_index++ % (sizeof(methods) /
                                                        sizeof(methods[0]))];
        workload.push_back(std::move(item));
      }
    }
  }
  // Sequential ground truth.
  for (WorkItem& item : workload) {
    auto result =
        world->engine->Execute(item.request.query, item.request.method);
    TSB_CHECK(result.ok()) << result.status();
    item.expected = result->entries;
  }
  return workload;
}

struct PhaseResult {
  double seconds = 0.0;
  size_t requests = 0;
  size_t mismatches = 0;
  size_t failures = 0;
  StatsAccumulator engine_stats;
  std::vector<double> latencies;  // Per-request service_seconds.

  double Qps() const {
    return seconds > 0.0 ? static_cast<double>(requests) / seconds : 0.0;
  }

  /// Latency percentile in seconds (p in [0,1]); 0 when empty.
  double Percentile(double p) {
    if (latencies.empty()) return 0.0;
    std::sort(latencies.begin(), latencies.end());
    size_t index = static_cast<size_t>(p * latencies.size());
    if (index >= latencies.size()) index = latencies.size() - 1;
    return latencies[index];
  }
};

/// Runs `threads` clients, each sweeping the workload `sweeps` times.
PhaseResult RunPhase(service::TopologyService* svc,
                     const std::vector<WorkItem>& workload, size_t threads,
                     size_t sweeps) {
  PhaseResult phase;
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> failures{0};
  std::vector<StatsAccumulator> per_client(threads);
  std::vector<std::vector<double>> per_client_latency(threads);

  Stopwatch watch;
  std::vector<std::thread> clients;
  clients.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    clients.emplace_back([&, t]() {
      // Stagger starting offsets so clients collide on the cache rather
      // than marching in lockstep.
      const size_t offset = (t * 7) % workload.size();
      for (size_t sweep = 0; sweep < sweeps; ++sweep) {
        for (size_t i = 0; i < workload.size(); ++i) {
          const WorkItem& item = workload[(i + offset) % workload.size()];
          wire::CollectingSink sink;
          svc->Submit(item.request, sink);
          sink.WaitForFrames(1);
          const wire::WireResponse response = sink.Frames()[0].response;
          if (!response.error.ok()) {
            ++failures;
            continue;
          }
          if (response.result.entries != item.expected) ++mismatches;
          per_client[t].Add(response.result.stats);
          per_client_latency[t].push_back(response.service_seconds);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();

  phase.seconds = watch.ElapsedSeconds();
  phase.requests = threads * sweeps * workload.size();
  phase.mismatches = mismatches.load();
  phase.failures = failures.load();
  for (const StatsAccumulator& acc : per_client) {
    phase.engine_stats.total += acc.total;
    phase.engine_stats.runs += acc.runs;
  }
  for (const std::vector<double>& lat : per_client_latency) {
    phase.latencies.insert(phase.latencies.end(), lat.begin(), lat.end());
  }
  return phase;
}

void Run(int argc, char** argv) {
  WorldConfig config;
  config.scale = FlagValue(argc, argv, "scale", 0.5);
  config.pairs = {{"Protein", "Interaction"}};
  const size_t max_threads = std::max<size_t>(
      1, static_cast<size_t>(FlagValue(argc, argv, "threads", 16)));
  const size_t sweeps = static_cast<size_t>(FlagValue(argc, argv, "sweeps", 2));

  std::printf("Building synthetic Biozon (scale=%.2f)...\n", config.scale);
  std::unique_ptr<World> world = MakeWorld(config);
  std::vector<WorkItem> workload = BuildWorkload(world.get());
  std::printf("workload: %zu distinct (query, method) items, %zu sweeps "
              "per client\n\n",
              workload.size(), sweeps);

  TablePrinter table({"clients", "cold q/s", "warm q/s", "speedup",
                      "warm p95(us)", "warm p99(us)", "warm hit%", "bad"});
  size_t total_bad = 0;
  double min_speedup = -1.0;
  for (size_t threads = 1; threads <= max_threads; threads *= 2) {
    // Cold: cache off — every request pays full evaluation.
    service::ServiceConfig cold_config;
    cold_config.num_threads = threads;
    cold_config.max_in_flight = 4096;
    cold_config.enable_cache = false;
    service::TopologyService cold_svc(world->engine.get(), &world->db,
                                      cold_config);
    PhaseResult cold = RunPhase(&cold_svc, workload, threads, sweeps);
    cold_svc.Shutdown();

    // Warm: cache on, pre-warmed by one sweep.
    service::ServiceConfig warm_config;
    warm_config.num_threads = threads;
    warm_config.max_in_flight = 4096;
    service::TopologyService warm_svc(world->engine.get(), &world->db,
                                      warm_config);
    RunPhase(&warm_svc, workload, 1, 1);
    PhaseResult warm = RunPhase(&warm_svc, workload, threads, sweeps);
    auto cache_stats = warm_svc.CacheStats();
    warm_svc.Shutdown();

    const double speedup = cold.Qps() > 0.0 ? warm.Qps() / cold.Qps() : 0.0;
    if (min_speedup < 0.0 || speedup < min_speedup) min_speedup = speedup;
    const size_t bad =
        cold.mismatches + cold.failures + warm.mismatches + warm.failures;
    total_bad += bad;
    const double hit_rate =
        100.0 * static_cast<double>(cache_stats.hits) /
        static_cast<double>(cache_stats.hits + cache_stats.misses);
    table.AddRow({std::to_string(threads), TablePrinter::Num(cold.Qps(), 1),
                  TablePrinter::Num(warm.Qps(), 1),
                  TablePrinter::Num(speedup, 1) + "x",
                  TablePrinter::Num(warm.Percentile(0.95) * 1e6, 1),
                  TablePrinter::Num(warm.Percentile(0.99) * 1e6, 1),
                  TablePrinter::Num(hit_rate, 1), std::to_string(bad)});
  }
  table.Print(std::cout);

  std::printf("\nresult integrity: %zu bad responses (mismatched or failed; "
              "must be 0)\n", total_bad);
  std::printf("minimum warm/cold speedup across thread counts: %.1fx "
              "(target >= 5x)\n", min_speedup);
  TSB_CHECK_EQ(total_bad, 0u)
      << "concurrent results diverged from sequential ground truth";

  // --- Tracing overhead gate ------------------------------------------------
  // One warm service runs the same phase twice — sampling off, then 1-in-64
  // — and the traced warm p95 must stay within 5% of untraced (plus a
  // 50µs absolute floor: warm cache hits complete in single-digit
  // microseconds, where a 5% relative band is below scheduler noise).
  {
    const size_t threads = max_threads;
    service::ServiceConfig traced_config;
    traced_config.num_threads = threads;
    traced_config.max_in_flight = 4096;
    service::TopologyService svc(world->engine.get(), &world->db,
                                 traced_config);
    RunPhase(&svc, workload, 1, 1);  // Pre-warm the cache.

    svc.tracer().set_sample_every(0);
    PhaseResult untraced = RunPhase(&svc, workload, threads, sweeps);
    svc.tracer().set_sample_every(64);
    PhaseResult traced = RunPhase(&svc, workload, threads, sweeps);
    svc.Shutdown();

    const double p95_off = untraced.Percentile(0.95);
    const double p95_on = traced.Percentile(0.95);
    const double bound = p95_off * 1.05 + 50e-6;
    std::printf("\ntracing overhead (1-in-64 sampling, %zu clients): warm "
                "p95 %.1fus untraced -> %.1fus traced (bound %.1fus)\n",
                threads, p95_off * 1e6, p95_on * 1e6, bound * 1e6);
    TSB_CHECK_EQ(traced.mismatches + traced.failures, 0u)
        << "traced responses diverged from ground truth";
    TSB_CHECK(p95_on <= bound)
        << "tracing at 1-in-64 sampling regressed warm p95 by more than 5%: "
        << p95_off * 1e6 << "us -> " << p95_on * 1e6 << "us";
  }

  // --- Cost-accounting overhead gate ---------------------------------------
  // Same shape as the tracing gate: one warm service runs the phase with
  // the CostTracker disabled, then enabled (the shipping default), and the
  // accounted warm p95 must stay within 5% of unaccounted plus the same
  // 50µs absolute floor. Responses must also stay byte-equal to ground
  // truth either way — the bill rides beside the results, never in them.
  {
    const size_t threads = max_threads;
    service::ServiceConfig cost_config;
    cost_config.num_threads = threads;
    cost_config.max_in_flight = 4096;
    service::TopologyService svc(world->engine.get(), &world->db,
                                 cost_config);
    RunPhase(&svc, workload, 1, 1);  // Pre-warm the cache.

    obs::CostTracker::set_enabled(false);
    PhaseResult unaccounted = RunPhase(&svc, workload, threads, sweeps);
    obs::CostTracker::set_enabled(true);
    PhaseResult accounted = RunPhase(&svc, workload, threads, sweeps);
    svc.Shutdown();

    const double p95_off = unaccounted.Percentile(0.95);
    const double p95_on = accounted.Percentile(0.95);
    const double bound = p95_off * 1.05 + 50e-6;
    std::printf("\ncost-accounting overhead (%zu clients): warm p95 %.1fus "
                "off -> %.1fus on (bound %.1fus)\n",
                threads, p95_off * 1e6, p95_on * 1e6, bound * 1e6);
    TSB_CHECK_EQ(unaccounted.mismatches + unaccounted.failures, 0u)
        << "responses diverged with cost accounting disabled";
    TSB_CHECK_EQ(accounted.mismatches + accounted.failures, 0u)
        << "responses diverged with cost accounting enabled";
    TSB_CHECK(p95_on <= bound)
        << "cost accounting regressed warm p95 by more than 5%: "
        << p95_off * 1e6 << "us -> " << p95_on * 1e6 << "us";

    FILE* json = std::fopen("BENCH_obs.json", "w");
    TSB_CHECK(json != nullptr);
    std::fprintf(
        json,
        "{\n"
        "  \"bench\": \"service_throughput\",\n"
        "  \"scale\": %.3f,\n"
        "  \"clients\": %zu,\n"
        "  \"integrity\": {\"bad_responses\": %zu, \"must_be\": 0},\n"
        "  \"min_warm_cold_speedup\": %.2f,\n"
        "  \"cost_accounting\": {\n"
        "    \"warm_p95_us_off\": %.1f,\n"
        "    \"warm_p95_us_on\": %.1f,\n"
        "    \"bound_us\": %.1f,\n"
        "    \"requests_per_phase\": %zu\n"
        "  }\n"
        "}\n",
        config.scale, threads, total_bad, min_speedup, p95_off * 1e6,
        p95_on * 1e6, bound * 1e6, accounted.requests);
    std::fclose(json);
    std::printf("wrote BENCH_obs.json\nOK\n");
  }
}

}  // namespace
}  // namespace bench
}  // namespace tsb

int main(int argc, char** argv) { tsb::bench::Run(argc, argv); }
