// paper_mix: the paper's read path on one in-process store.
//
// Set-up generates Biozon at scale 1.0 and precomputes, prunes and indexes
// all 28 entity-set pairs through TopologyService::Rebuild (the service's
// own build path, on its 2 workers), then warms every (pair, method,
// scheme) once and drops the cache. setup_s is the median of three such
// set-ups (harness.h: ReportSetUp). The timed phase replays a seeded list
// of 2-queries over the eight precomputed methods from 2 closed-loop
// clients through TopologyService::Submit, cache on.
//
// Left out of the stream, so no percentile straddles a cost class:
//  - the SQL baseline: 6 to 600 ms per query at medium/unselective
//    predicates on this data, >= 100x a precomputed 2-query;
//  - 3-queries: >= 30x a 2-query at this scale.
// Shapes repeat with Zipf skew, putting the cache hit ratio near 30%: well
// away from the 50% (p50) and 99% (p99) boundaries.
// The timed phase — clients and workers — is pinned to two CPUs.
// The cache starts empty and fills as the list goes on, so throughput
// climbs through the phase (about 2x from the first second to the last):
// the read figures are whole-phase ones (harness.h: ReadFigures).

#include <algorithm>
#include <map>
#include <memory>
#include <unordered_map>

#include "biozon/domain.h"
#include "biozon/generator.h"
#include "common/logging.h"
#include "core/store.h"
#include "engine/engine.h"
#include "graph/data_graph.h"
#include "graph/schema_graph.h"
#include "harness.h"
#include "service/service.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace tsbe = tsb::engine;

constexpr double kScale = 1.0;
/// The database is a fixed input (like the real Biozon); --seed varies the
/// request stream only, so runs on different seeds do the same set-up.
constexpr uint64_t kDatabaseSeed = 42;
constexpr size_t kServiceThreads = 2;
constexpr size_t kClients = 2;
constexpr size_t kPruneThreshold = 500;
/// Distinct shapes the traced run replays sequentially through
/// Engine::Execute, and top-k shapes it times for the optimizer regret.
constexpr size_t kReplayShapes = 3000;
constexpr size_t kRegretShapes = 60;

struct World {
  tsb::storage::Catalog db;
  tsb::biozon::BiozonSchema ids;
  std::unique_ptr<tsb::graph::DataGraphView> view;
  std::unique_ptr<tsb::graph::SchemaGraph> schema;
  std::unique_ptr<tsbe::Engine> engine;
  std::unique_ptr<tsb::service::TopologyService> service;

  double generate_s = 0.0;
  double build_s = 0.0;
  double prune_s = 0.0;
  double index_s = 0.0;
  double warmup_s = 0.0;
};

std::unique_ptr<World> SetUp(const ReadSpace& space) {
  const double start = Now();
  auto w = std::make_unique<World>();
  tsb::biozon::GeneratorConfig gen;
  gen.seed = kDatabaseSeed;
  gen.scale = kScale;
  w->ids = tsb::biozon::GenerateBiozon(gen, &w->db);
  w->generate_s = Now() - start;

  w->view = std::make_unique<tsb::graph::DataGraphView>(w->db);
  w->schema = std::make_unique<tsb::graph::SchemaGraph>(w->db);
  auto handle = std::make_shared<tsb::core::StoreHandle>(
      std::make_shared<tsb::core::TopologyStore>());
  tsbe::SqlBaselineOptions sql;
  sql.max_candidates = 500;
  w->engine = std::make_unique<tsbe::Engine>(
      &w->db, handle, w->schema.get(), w->view.get(),
      tsb::core::ScoreModel(&handle->Snapshot()->catalog(),
                            tsb::biozon::MakeBiozonDomainKnowledge(w->ids)),
      sql);
  tsb::service::ServiceConfig config;
  config.num_threads = kServiceThreads;
  w->service = std::make_unique<tsb::service::TopologyService>(
      w->engine.get(), &w->db, config);
  TSB_CHECK(w->service->AttachLiveStore(w->schema.get(), w->view.get()).ok());

  tsb::service::RebuildOptions rebuild;
  rebuild.build = BiozonBuildConfig();
  rebuild.prune_threshold = kPruneThreshold;
  auto stats = w->service->Rebuild(rebuild);
  TSB_CHECK(stats.ok()) << stats.status();
  w->build_s = stats->build_seconds;
  w->prune_s = stats->prune_seconds;

  const double index_start = Now();
  for (const auto& [a, b] : space.pairs) w->engine->PrepareIndexes(a, b);
  w->index_s = stats->index_seconds + (Now() - index_start);

  // Warm-up: every (pair, method, scheme) once, unconstrained, so lazy
  // per-epoch state is paid here; then an empty cache for the timed phase.
  const double warm_start = Now();
  RequestFactory factory(w->db, space);
  Waiter waiter;
  uint64_t id = 1u << 30;
  for (uint8_t pair = 0; pair < space.pairs.size(); ++pair) {
    for (uint8_t method : space.methods) {
      for (uint8_t scheme = 0; scheme < 3; ++scheme) {
        ReadSpec spec;
        spec.pair = pair;
        spec.method = method;
        spec.scheme = scheme;
        ReadRecord record;
        IssueWire(w->service.get(), factory.Wire(spec, id++), &waiter,
                  &record);
        TSB_CHECK(record.ok()) << "warm-up request failed";
      }
    }
  }
  w->service->InvalidateCache();
  w->warmup_s = Now() - warm_start;
  return w;
}

struct Pass {
  std::vector<ReadRecord> records;
  size_t completed = 0;
  double elapsed = 0.0;
  std::string cpus;  // CpuPin::cpus() of the pass.
};

Pass RunPass(World* w, const std::vector<tsb::wire::WireRequest>& wires,
             double stop_at) {
  Pass pass;
  // Clients and workers on two CPUs (README: "Pinning").
  const CpuPin pin(kClients);
  pass.cpus = pin.cpus();
  pass.records.resize(wires.size());
  pass.elapsed = RunClosedLoop(
      wires.size(), kClients, stop_at,
      [&](size_t i, Waiter* waiter) {
        IssueWire(w->service.get(), wires[i], waiter, &pass.records[i]);
      },
      &pass.completed);
  return pass;
}

/// Sequential-engine answers per distinct shape, keyed by ReadSpec::Key().
struct Reference {
  std::unordered_map<uint64_t, uint64_t> digest;
};

Reference ComputeReference(World* w, const RequestFactory& factory,
                           const std::vector<ReadSpec>& reads,
                           size_t completed) {
  std::vector<ReadSpec> distinct;
  std::unordered_map<uint64_t, size_t> seen;
  for (size_t i = 0; i < completed; ++i) {
    if (seen.emplace(reads[i].Key(), distinct.size()).second) {
      distinct.push_back(reads[i]);
    }
  }
  std::vector<uint64_t> digests(distinct.size());
  ParallelFor(distinct.size(), std::thread::hardware_concurrency(),
              [&](size_t i) {
                auto result = w->engine->Execute(
                    factory.Query(distinct[i]),
                    static_cast<tsbe::MethodKind>(distinct[i].method));
                TSB_CHECK(result.ok()) << result.status();
                digests[i] = DigestEntries(result->entries);
              });
  Reference ref;
  for (size_t i = 0; i < distinct.size(); ++i) {
    ref.digest[distinct[i].Key()] = digests[i];
  }
  return ref;
}

/// Every completed ok read must equal the sequential engine's answer.
void CheckAnswers(const Pass& pass, const std::vector<ReadSpec>& reads,
                  const Reference& ref, const char* label,
                  RunResult* result) {
  size_t mismatches = 0;
  for (size_t i = 0; i < pass.completed; ++i) {
    const ReadRecord& r = pass.records[i];
    if (!r.ok()) continue;
    if (r.partial || r.digest != ref.digest.at(reads[i].Key())) ++mismatches;
  }
  if (mismatches > 0) {
    result->Problem(std::string(label) + ": " + std::to_string(mismatches) +
                    " reads differ from the sequential engine");
  }
  result->Meta(std::string("mismatches.") + label,
               std::to_string(mismatches));
}

const char* MethodMetric(tsbe::MethodKind method) {
  switch (method) {
    case tsbe::MethodKind::kFullTop: return "engine.full_top.exec_ms_p50";
    case tsbe::MethodKind::kFastTop: return "engine.fast_top.exec_ms_p50";
    case tsbe::MethodKind::kFullTopK: return "engine.full_topk.exec_ms_p50";
    case tsbe::MethodKind::kFastTopK: return "engine.fast_topk.exec_ms_p50";
    case tsbe::MethodKind::kFullTopKEt:
      return "engine.full_topk_et.exec_ms_p50";
    case tsbe::MethodKind::kFastTopKEt:
      return "engine.fast_topk_et.exec_ms_p50";
    case tsbe::MethodKind::kFullTopKOpt:
      return "engine.full_topk_opt.exec_ms_p50";
    case tsbe::MethodKind::kFastTopKOpt:
      return "engine.fast_topk_opt.exec_ms_p50";
    default: return nullptr;
  }
}

/// Engine layer of the traced run: a sequential Engine::Execute replay of
/// the first distinct (miss) shapes, plus the -Opt regret sample.
void ReportEngineLayer(World* w, const RequestFactory& factory,
                       const std::vector<ReadSpec>& reads, size_t completed,
                       SpanLog* spans, RunResult* result) {
  std::vector<ReadSpec> distinct;
  std::unordered_map<uint64_t, bool> seen;
  for (size_t i = 0; i < completed && distinct.size() < kReplayShapes; ++i) {
    if (seen.emplace(reads[i].Key(), true).second) {
      distinct.push_back(reads[i]);
    }
  }
  Samples all;
  std::map<tsbe::MethodKind, Samples> by_method;
  tsbe::ExecStats total;
  size_t columnar = 0;
  for (size_t i = 0; i < distinct.size(); ++i) {
    const auto method = static_cast<tsbe::MethodKind>(distinct[i].method);
    const tsbe::TopologyQuery query = factory.Query(distinct[i]);
    const double start = Now();
    auto out = w->engine->Execute(query, method);
    const double end = Now();
    TSB_CHECK(out.ok()) << out.status();
    spans->Add("engine.replay", i, start, end);
    all.Add(end - start);
    by_method[method].Add(end - start);
    total += out->stats;
    if (out->stats.plan.find("columnar") != std::string::npos) ++columnar;
  }
  const double n = static_cast<double>(std::max<size_t>(1, distinct.size()));
  SetQuantile(result, "engine.exec_ms_p50", "ms", all, 0.50, 1e3);
  SetQuantile(result, "engine.exec_ms_p99", "ms", all, 0.99, 1e3);
  for (auto& [method, samples] : by_method) {
    SetQuantile(result, MethodMetric(method), "ms", samples, 0.50, 1e3);
  }
  result->Set("engine.rows_scanned_per_query", "count",
              static_cast<double>(total.rows_scanned) / n);
  result->Set("engine.probes_per_query", "count",
              static_cast<double>(total.probes) / n);
  result->Set("engine.subqueries_per_query", "count",
              static_cast<double>(total.subqueries) / n);
  result->Set("engine.cpu_us_per_query", "us",
              static_cast<double>(total.cpu_ns) / 1e3 / n);
  result->Set("columnar.path_share", "1", static_cast<double>(columnar) / n);
  result->Set("columnar.block_skip_ratio", "1",
              total.blocks_total > 0
                  ? static_cast<double>(total.blocks_skipped) /
                        static_cast<double>(total.blocks_total)
                  : 0.0);

  // Optimizer regret: each -Opt method against the faster of the two fixed
  // top-k plans of its family, on the same query (best of 3 timings each).
  auto best_of_3 = [&](const tsbe::TopologyQuery& query,
                       tsbe::MethodKind method) {
    double best = 1e9;
    for (int rep = 0; rep < 3; ++rep) {
      const double start = Now();
      TSB_CHECK(w->engine->Execute(query, method).ok());
      best = std::min(best, Now() - start);
    }
    return best;
  };
  std::vector<double> ratios;
  for (const ReadSpec& spec : distinct) {
    if (ratios.size() >= 2 * kRegretShapes) break;
    if (!tsbe::MethodIsTopK(static_cast<tsbe::MethodKind>(spec.method))) {
      continue;
    }
    const tsbe::TopologyQuery query = factory.Query(spec);
    using M = tsbe::MethodKind;
    for (const auto& [opt, topk, et] :
         {std::tuple<M, M, M>{M::kFullTopKOpt, M::kFullTopK, M::kFullTopKEt},
          std::tuple<M, M, M>{M::kFastTopKOpt, M::kFastTopK,
                              M::kFastTopKEt}}) {
      const double fixed =
          std::min(best_of_3(query, topk), best_of_3(query, et));
      ratios.push_back(best_of_3(query, opt) / fixed);
    }
  }
  result->Set("optimizer.regret_ratio", "1", Median(ratios));
  result->Meta("n.optimizer.regret_ratio", std::to_string(ratios.size()));
}

}  // namespace

RunResult RunPaperMix(const Args& args) {
  RunResult result;
  const ReadSpace space = PaperMixSpace();
  const std::vector<ReadSpec> reads = PaperMixReads(args.seed, args.seconds);
  const double list_repeat_share = RepeatShare(reads);

  std::unique_ptr<World> world = SetUp(space);
  const double first_setup = Now();  // From process start.
  RequestFactory factory(world->db, space);
  std::vector<tsb::wire::WireRequest> wires;
  wires.reserve(reads.size());
  for (size_t i = 0; i < reads.size(); ++i) {
    wires.push_back(factory.Wire(reads[i], i + 1));
  }
  // Guard against a pathological slowdown: no phase issues past this.
  const double stop_at = std::min(Now() + 6.0 * args.seconds, kStopIssuingAt);

  std::vector<Pass> passes;  // Every phase run; all are checked.
  size_t reported = 0;
  if (!args.trace) {
    passes.push_back(RunPass(world.get(), wires, stop_at));
    ReportReads(passes[0].records, passes[0].completed,
                ReadFigures::kWholePhase, &result);
    result.Meta("read_cpus", JsonString(passes[0].cpus));
    result.Set("peak_rss_mb", "MB", PeakRssMb());
  } else {
    // An untraced pass, then the traced pass: the same list on an emptied
    // cache, with client-side spans.
    passes.push_back(RunPass(world.get(), wires, stop_at));
    world->service->InvalidateCache();
    passes.push_back(RunPass(world.get(), wires, stop_at));
    reported = 1;
    const Pass& traced = passes[1];
    SpanLog spans;
    for (size_t i = 0; i < traced.completed; ++i) {
      const ReadRecord& r = traced.records[i];
      spans.Add("client.read", i, r.submit, r.done);
      spans.Add("service.submit", i, r.submit, r.submit + r.service_seconds);
      if (!r.from_cache) {
        const double exec_end = r.submit + r.service_seconds;
        spans.Add("engine.execute", i, exec_end - r.exec_seconds, exec_end);
      }
    }
    result.Set("biozon.generate_s", "s", world->generate_s);
    result.Set("core.build_s", "s", world->build_s);
    result.Set("core.prune_s", "s", world->prune_s);
    result.Set("engine.index_s", "s", world->index_s);
    result.Set("setup.warmup_s", "s", world->warmup_s);
    const double attributed =
        ReportServiceLayer(traced.records, traced.completed, &result);
    ReportEngineLayer(world.get(), factory, reads, traced.completed, &spans,
                      &result);
    const double observed = spans.Total("client.read");
    result.Set("trace.coverage", "1",
               observed > 0.0 ? attributed / observed : 0.0);
    result.Set("trace.overhead_ratio", "1",
               OverheadRatio(traced.records, traced.completed,
                             passes[0].records, passes[0].completed));
    WriteSpans(spans, args, &result);
  }

  // Answer checks and failure accounting, outside every timed phase.
  FailureCounts failures;
  size_t longest = 0;
  for (const Pass& p : passes) {
    for (size_t i = 0; i < p.completed; ++i) failures.Count(p.records[i].code);
    result.attempted += p.completed;
    longest = std::max(longest, p.completed);
  }
  const Reference ref = ComputeReference(world.get(), factory, reads, longest);
  for (size_t a = 0; a < passes.size(); ++a) {
    CheckAnswers(passes[a], reads, ref, ("pass" + std::to_string(a)).c_str(),
                 &result);
  }
  ReportFailures(failures, args.trace, &result);
  // Rule: the measured hit ratio stays well away from 50% and 99%.
  const Pass& pass = passes[reported];
  size_t hits = 0;
  for (size_t i = 0; i < pass.completed; ++i) {
    hits += pass.records[i].from_cache;
  }
  const double hit_ratio =
      static_cast<double>(hits) /
      static_cast<double>(std::max<size_t>(1, pass.completed));
  if (hit_ratio < 0.15 || hit_ratio > 0.45) {
    result.Problem("cache hit ratio " + JsonNumber(hit_ratio) +
                   " outside [0.15, 0.45]");
  }
  result.Meta("cache_hit_ratio", JsonNumber(hit_ratio));
  if (pass.completed < reads.size()) {
    result.Meta("truncated_at", std::to_string(pass.completed));
  }

  result.Meta("scale", JsonNumber(kScale));
  result.Meta("clients", std::to_string(kClients));
  result.Meta("service_threads", std::to_string(kServiceThreads));
  result.Meta("requests", std::to_string(reads.size()));
  result.Meta("list_repeat_share", JsonNumber(list_repeat_share));
  if (!args.trace) {
    ReportSetUp(first_setup, [&]() {
      world.reset();
      world = SetUp(space);
    }, &result);
  }
  return result;
}

}  // namespace perfbench
