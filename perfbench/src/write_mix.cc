// write_mix: writes beside reads on one store.
//
// Set-up generates Biozon at scale 0.05, builds and prunes Protein-
// Interaction and Protein-DNA, enables mutations with a DeltaLog WAL in a
// fresh directory (one fsync per batch: DeltaLog::Append fsyncs every
// record) and starts background compaction at its default trigger of 4
// generations. Its warm-up applies the first kWarmupBatches batches of the
// seeded schedule back to back — several background folds — then folds
// the rest, so every timed phase starts from a compacted store.
//
// The timed phase runs one open-loop writer (one batch every 1/7 s through
// TopologyService::ApplyMutations, latency from the batch's due time) and
// one closed-loop reader, served by the service's one worker, replaying a
// seeded list over the two mutated pairs; nearly every read misses (each
// batch evicts its pairs' entries) and runs on an overlay epoch. The write
// schedule is fixed, so the store ends every run in the same state however
// fast the code is; the end state is checked, all nine methods on a probe
// set, against a from-scratch rebuild of the mutated graph.
//
// Scale: the write latency p90 needs >= 100 batches per run (ten beyond
// it), and a batch costs ~70 ms at scale 0.05 (~165 ms at 0.1, ~330 ms at
// 0.2: the apply copies every touched data table). One batch every 1/7 s
// keeps the apply lane about half busy and gives >= 100 batches in a run
// of 15 seconds or more (BENCHMARK.json runs 20).

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <malloc.h>
#include <unistd.h>

#include "biozon/domain.h"
#include "biozon/generator.h"
#include "biozon/schema.h"
#include "common/logging.h"
#include "core/builder.h"
#include "core/pruner.h"
#include "core/store.h"
#include "engine/engine.h"
#include "graph/data_graph.h"
#include "graph/schema_graph.h"
#include "harness.h"
#include "mutation/delta_log.h"
#include "mutation/mutation_engine.h"
#include "service/service.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace tsbe = tsb::engine;
namespace mu = tsb::mutation;
using tsb::storage::Value;

constexpr double kScale = 0.05;
constexpr uint64_t kDatabaseSeed = 42;
/// One worker serves the one reader; the writer applies on its own thread.
constexpr size_t kServiceThreads = 1;
constexpr size_t kPruneThreshold = 20;

/// Builds, prunes and indexes the two mutated pairs into `store`.
void BuildPairs(tsb::storage::Catalog* db, const tsb::biozon::BiozonSchema& ids,
                const tsb::graph::SchemaGraph& schema,
                const tsb::graph::DataGraphView& view,
                tsb::core::TopologyStore* store, double* build_s,
                double* prune_s) {
  const double start = Now();
  tsb::core::TopologyBuilder builder(db, &schema, &view);
  const tsb::core::BuildConfig build = BiozonBuildConfig();
  TSB_CHECK(builder.BuildPair(ids.protein, ids.interaction, build, store).ok());
  TSB_CHECK(builder.BuildPair(ids.protein, ids.dna, build, store).ok());
  const double prune_start = Now();
  tsb::core::PruneConfig prune;
  prune.frequency_threshold = kPruneThreshold;
  for (tsb::storage::EntityTypeId other : {ids.interaction, ids.dna}) {
    TSB_CHECK(tsb::core::PruneFrequentTopologies(db, store, ids.protein,
                                                 other, prune)
                  .ok());
  }
  if (build_s != nullptr) *build_s = prune_start - start;
  if (prune_s != nullptr) *prune_s = Now() - prune_start;
}

struct World {
  tsb::storage::Catalog db;
  tsb::biozon::BiozonSchema ids;
  std::unique_ptr<tsb::graph::DataGraphView> view;
  std::unique_ptr<tsb::graph::SchemaGraph> schema;
  std::shared_ptr<tsb::core::StoreHandle> handle;
  std::unique_ptr<tsbe::Engine> engine;
  mu::DeltaLog wal;  // Outlives the service's mutation engine.
  std::unique_ptr<tsb::service::TopologyService> service;
  std::string wal_dir;

  double generate_s = 0.0;
  double build_s = 0.0;
  double prune_s = 0.0;
  double index_s = 0.0;
  double warmup_s = 0.0;
  /// The service's own threads (its worker), started by its constructor.
  std::set<pid_t> service_threads;

  ~World() {
    if (service != nullptr && service->mutation_engine() != nullptr) {
      service->mutation_engine()->StopCompaction();
    }
    service.reset();
    wal.Close();
    RemoveTree(wal_dir);
  }
};

WriteTargets Targets(const tsb::storage::Catalog& db) {
  WriteTargets targets;
  for (const auto& [set, out] :
       {std::pair<const char*, std::vector<int64_t>*>{"Protein",
                                                      &targets.proteins},
        {"DNA", &targets.dnas}}) {
    const tsb::storage::Table* table = db.GetTable(set);
    const size_t id_col = *table->schema().FindColumn("ID");
    for (size_t r = 0; r < table->num_rows(); ++r) {
      out->push_back(table->GetInt64(r, id_col));
    }
  }
  return targets;
}

std::unique_ptr<World> SetUp(const Args& args, size_t rep,
                             const std::vector<mu::MutationBatch>& schedule) {
  const double start = Now();
  auto w = std::make_unique<World>();
  tsb::biozon::GeneratorConfig gen;
  gen.seed = kDatabaseSeed;
  gen.scale = kScale;
  w->ids = tsb::biozon::GenerateBiozon(gen, &w->db);
  w->generate_s = Now() - start;

  w->view = std::make_unique<tsb::graph::DataGraphView>(w->db);
  w->schema = std::make_unique<tsb::graph::SchemaGraph>(w->db);
  auto store = std::make_shared<tsb::core::TopologyStore>();
  BuildPairs(&w->db, w->ids, *w->schema, *w->view, store.get(), &w->build_s,
             &w->prune_s);
  w->handle = std::make_shared<tsb::core::StoreHandle>(store);
  tsbe::SqlBaselineOptions sql;
  sql.max_candidates = 500;
  w->engine = std::make_unique<tsbe::Engine>(
      &w->db, w->handle, w->schema.get(), w->view.get(),
      tsb::core::ScoreModel(&store->catalog(),
                            tsb::biozon::MakeBiozonDomainKnowledge(w->ids)),
      sql);
  const double index_start = Now();
  w->engine->PrepareIndexes("Protein", "Interaction");
  w->engine->PrepareIndexes("Protein", "DNA");
  w->index_s = Now() - index_start;

  tsb::service::ServiceConfig config;
  config.num_threads = kServiceThreads;
  const std::set<pid_t> before_service = ThreadIds();
  w->service = std::make_unique<tsb::service::TopologyService>(
      w->engine.get(), &w->db, config);
  for (pid_t tid : ThreadIds()) {
    if (before_service.count(tid) == 0) w->service_threads.insert(tid);
  }
  TSB_CHECK(w->service->AttachLiveStore(w->schema.get(), w->view.get()).ok());
  w->wal_dir = args.run_dir + "/wal_" + std::to_string(::getpid()) + "_" +
               std::to_string(rep);
  RemoveTree(w->wal_dir);
  TSB_CHECK(MakeDirs(w->wal_dir));
  std::vector<mu::MutationBatch> replayed;
  TSB_CHECK(w->wal.Open(w->wal_dir + "/write_mix.wal", &replayed).ok());
  mu::MutationEngine::Options options;  // Default compaction trigger.
  options.build = BiozonBuildConfig();
  TSB_CHECK(w->service->EnableMutations(options, &w->wal).ok());
  w->service->mutation_engine()->StartCompaction();

  // Warm-up: the schedule's prefix back to back (several background folds),
  // one read per (pair, method, scheme), then fold what is left.
  const double warm_start = Now();
  for (size_t b = 0; b < kWarmupBatches; ++b) {
    auto applied = w->service->ApplyMutations(schedule[b]);
    TSB_CHECK(applied.ok()) << applied.status();
  }
  RequestFactory factory(w->db, WriteMixSpace());
  Waiter waiter;
  uint64_t id = 1u << 30;
  for (uint8_t pair = 0; pair < 2; ++pair) {
    for (uint8_t method : factory.space().methods) {
      for (uint8_t scheme = 0; scheme < 3; ++scheme) {
        ReadSpec spec;
        spec.pair = pair;
        spec.method = method;
        spec.scheme = scheme;
        ReadRecord record;
        IssueWire(w->service.get(), factory.Wire(spec, id++), &waiter,
                  &record);
        TSB_CHECK(record.ok()) << "warm-up read failed";
      }
    }
  }
  mu::MutationEngine* mutator = w->service->mutation_engine();
  while (mutator->compaction_rounds() == 0 && Now() - warm_start < 30.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  TSB_CHECK(mutator->compaction_rounds() > 0) << "no background fold";
  TSB_CHECK(mutator->CompactNow().ok());
  w->service->InvalidateCache();
  w->warmup_s = Now() - warm_start;
  return w;
}

struct WriteRecord {
  double due = 0.0;
  double start = 0.0;
  double ack = 0.0;
  bool ok = false;
  double apply_seconds = 0.0;
  size_t restaged = 0;
};

struct Pass {
  std::vector<ReadRecord> reads;
  size_t reads_completed = 0;
  double read_elapsed = 0.0;
  std::vector<WriteRecord> writes;
  size_t writes_done = 0;
  std::vector<double> fold_seconds;
  uint64_t folds = 0;
  std::string reader_cpus = "none";  // CpuPin::cpus() of the read path.
};

/// Seconds of the last fold, from the mutation engine's status block.
double LastFoldSeconds(const mu::MutationEngine& mutator) {
  const std::string status = mutator.StatusString();
  const size_t at = status.find("last_fold:");
  if (at == std::string::npos) return 0.0;
  const size_t sec = status.find("seconds=", at);
  return sec == std::string::npos
             ? 0.0
             : std::strtod(status.c_str() + sec + 8, nullptr);
}

/// Runs the timed phase. With `watch_folds` a thread polls the engine for
/// fold durations; untraced passes leave it out, so no thread beyond the
/// reader, its worker, the writer and the compactor runs.
Pass RunPass(World* w, const std::vector<tsb::wire::WireRequest>& wires,
             const std::vector<mu::MutationBatch>& schedule, double seconds,
             bool watch_folds) {
  Pass pass;
  // The read path — this thread, the reader it starts and the service's
  // worker — on one CPU; the writer, the compactor and the fold watcher on
  // the others (README: "Pinning").
  const CpuPin pin(w->service_threads);
  pass.reader_cpus = pin.cpus();
  const size_t timed = schedule.size() - kWarmupBatches;
  pass.reads.resize(wires.size());
  pass.writes.resize(timed);
  mu::MutationEngine* mutator = w->service->mutation_engine();
  const uint64_t rounds_before = mutator->compaction_rounds();
  const double t0 = Now() + 0.01;
  const double stop_at = std::min(t0 + 6.0 * seconds, kStopIssuingAt);

  std::atomic<bool> writing{true};
  std::thread writer([&]() {
    pin.MoveCallerAside();
    for (size_t i = 0; i < timed && Now() < stop_at; ++i) {
      WriteRecord& rec = pass.writes[i];
      rec.due = t0 + static_cast<double>(i) * kWriteIntervalSeconds;
      const double wait = rec.due - Now();
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      rec.start = Now();
      auto applied =
          w->service->ApplyMutations(schedule[kWarmupBatches + i]);
      rec.ack = Now();
      rec.ok = applied.ok();
      if (applied.ok()) {
        rec.apply_seconds = applied->apply_seconds;
        rec.restaged = applied->structural_pairs;
      }
      pass.writes_done = i + 1;
    }
    writing = false;
  });
  // Fold durations, read from the engine's status whenever a round ends.
  std::thread fold_watch([&]() {
    pin.MoveCallerAside();
    uint64_t seen = rounds_before;
    while (watch_folds && writing) {
      const uint64_t now = mutator->compaction_rounds();
      if (now != seen) {
        seen = now;
        pass.fold_seconds.push_back(LastFoldSeconds(*mutator));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  while (Now() < t0) std::this_thread::yield();
  pass.read_elapsed = RunClosedLoop(
      wires.size(), 1, stop_at,
      [&](size_t i, Waiter* waiter) {
        IssueWire(w->service.get(), wires[i], waiter, &pass.reads[i]);
      },
      &pass.reads_completed);
  writer.join();
  fold_watch.join();
  pass.folds = mutator->compaction_rounds() - rounds_before;
  return pass;
}

/// The mutated data graph as plain rows: generated tables in order, minus
/// removed rows, additions appended, attributes updated in place — the row
/// order the copy-on-write apply produces. Rebuilding from it is the
/// identity oracle.
class RowModel {
 public:
  RowModel() {
    tsb::biozon::GeneratorConfig gen;
    gen.seed = kDatabaseSeed;
    gen.scale = kScale;
    tsb::biozon::GenerateBiozon(gen, &source_);
    for (const auto& es : source_.entity_sets()) Load(es.table_name);
    for (const auto& rs : source_.relationship_sets()) Load(rs.table_name);
  }

  void Apply(const mu::Mutation& op) {
    switch (op.kind) {
      case mu::MutationKind::kAddNode: {
        const auto* es = source_.FindEntitySet(op.set_name);
        TSB_CHECK(es != nullptr) << op.set_name;
        const auto& schema = source_.GetTable(es->table_name)->schema();
        tsb::storage::Tuple row(schema.num_columns());
        row[*schema.FindColumn(es->id_column)] = Value(op.id);
        for (const auto& [column, value] : op.attributes) {
          row[*schema.FindColumn(column)] = value;
        }
        Append(es->table_name, std::move(row));
        break;
      }
      case mu::MutationKind::kAddEdge: {
        const auto* rs = source_.FindRelationshipSet(op.set_name);
        TSB_CHECK(rs != nullptr) << op.set_name;
        const auto& schema = source_.GetTable(rs->table_name)->schema();
        tsb::storage::Tuple row(schema.num_columns());
        row[*schema.FindColumn(rs->id_column)] = Value(op.id);
        row[*schema.FindColumn(rs->from_column)] = Value(op.from);
        row[*schema.FindColumn(rs->to_column)] = Value(op.to);
        Append(rs->table_name, std::move(row));
        break;
      }
      case mu::MutationKind::kRemoveEdge: {
        const auto* rs = source_.FindRelationshipSet(op.set_name);
        TSB_CHECK(rs != nullptr) << op.set_name;
        Kill(rs->table_name, rs->id_column, op.id);
        break;
      }
      case mu::MutationKind::kUpdateAttribute: {
        const auto* es = source_.FindEntitySet(op.set_name);
        TSB_CHECK(es != nullptr) << op.set_name;
        const auto& schema = source_.GetTable(es->table_name)->schema();
        const size_t id_col = *schema.FindColumn(es->id_column);
        Rows& t = tables_[es->table_name];
        for (size_t r = 0; r < t.rows.size(); ++r) {
          if (t.dead[r] || t.rows[r][id_col].AsInt64() != op.id) continue;
          for (const auto& [column, value] : op.attributes) {
            t.rows[r][*schema.FindColumn(column)] = value;
          }
        }
        break;
      }
      case mu::MutationKind::kRemoveNode:
        TSB_CHECK(false) << "the schedule never removes nodes";
    }
  }

  /// Appends the surviving rows into the (empty) Biozon tables of `db`.
  void Materialize(tsb::storage::Catalog* db) const {
    for (const auto& [name, t] : tables_) {
      tsb::storage::Table* table = db->GetTable(name);
      for (size_t r = 0; r < t.rows.size(); ++r) {
        if (!t.dead[r]) table->AppendRowOrDie(t.rows[r]);
      }
    }
  }

 private:
  struct Rows {
    std::vector<tsb::storage::Tuple> rows;
    std::vector<bool> dead;
  };

  void Load(const std::string& name) {
    const tsb::storage::Table* table = source_.GetTable(name);
    Rows& t = tables_[name];
    for (size_t r = 0; r < table->num_rows(); ++r) {
      t.rows.push_back(table->GetRow(r));
      t.dead.push_back(false);
    }
  }

  void Append(const std::string& name, tsb::storage::Tuple row) {
    Rows& t = tables_[name];
    t.rows.push_back(std::move(row));
    t.dead.push_back(false);
  }

  void Kill(const std::string& name, const std::string& column, int64_t id) {
    const size_t c = *source_.GetTable(name)->schema().FindColumn(column);
    Rows& t = tables_[name];
    for (size_t r = 0; r < t.rows.size(); ++r) {
      if (!t.dead[r] && t.rows[r][c].AsInt64() == id) t.dead[r] = true;
    }
  }

  tsb::storage::Catalog source_;
  std::map<std::string, Rows> tables_;
};

/// All nine methods on a probe set: the live store after the schedule
/// against a from-scratch rebuild of the mutated graph, whose topology
/// catalog is seeded from the live one so TIDs line up.
size_t CheckAgainstRebuild(World* w,
                           const std::vector<mu::MutationBatch>& applied) {
  RowModel model;
  for (const mu::MutationBatch& batch : applied) {
    for (const mu::Mutation& op : batch.ops) model.Apply(op);
  }
  tsb::storage::Catalog db;
  const tsb::biozon::BiozonSchema ids = tsb::biozon::CreateBiozonSchema(&db);
  model.Materialize(&db);
  tsb::graph::DataGraphView view(db);
  tsb::graph::SchemaGraph schema(db);
  auto store = std::make_shared<tsb::core::TopologyStore>();
  const tsb::core::TopologyCatalog& live = w->handle->Snapshot()->catalog();
  auto seeded = std::make_shared<tsb::core::TopologyCatalog>();
  for (tsb::core::Tid tid = 1; tid <= static_cast<tsb::core::Tid>(live.size());
       ++tid) {
    const tsb::core::TopologyInfo& info = live.Get(tid);
    seeded->InternWithCode(info.graph, info.code, info.num_classes,
                           live.ClassKeysOf(tid));
  }
  store->adopt_catalog(seeded);
  BuildPairs(&db, ids, schema, view, store.get(), nullptr, nullptr);
  tsbe::SqlBaselineOptions sql;
  sql.max_candidates = 500;
  tsbe::Engine oracle(&db, store.get(), &schema, &view,
                      tsb::core::ScoreModel(
                          &store->catalog(),
                          tsb::biozon::MakeBiozonDomainKnowledge(ids)),
                      sql);

  RequestFactory live_factory(w->db, WriteMixSpace());
  RequestFactory oracle_factory(db, WriteMixSpace());
  const int8_t words[][2] = {{-1, -1}, {21, -1}, {-1, 22}, {20, 11}};
  size_t mismatches = 0;
  for (uint8_t pair = 0; pair < 2; ++pair) {
    for (const auto& [w1, w2] : words) {
      for (uint8_t scheme : {0, 2}) {
        for (uint8_t method = 0; method <= 8; ++method) {
          ReadSpec spec;
          spec.pair = pair;
          spec.word1 = w1;
          spec.word2 = w2;
          spec.scheme = scheme;
          spec.method = method;
          const auto kind = static_cast<tsbe::MethodKind>(method);
          auto a = w->engine->Execute(live_factory.Query(spec), kind);
          auto b = oracle.Execute(oracle_factory.Query(spec), kind);
          if (!a.ok() || !b.ok() || a->entries != b->entries) ++mismatches;
        }
      }
    }
  }
  return mismatches;
}

/// Write-path metrics of `pass`; fold durations pool `other` too (a pass
/// sees only ~25 folds, too few for ten beyond their median).
void ReportWriteLayer(const Pass& pass, const Pass* other,
                      RunResult* result) {
  Samples apply;
  Samples latency;
  Samples lag;
  double restaged = 0.0;
  for (size_t i = 0; i < pass.writes_done; ++i) {
    const WriteRecord& r = pass.writes[i];
    lag.Add(r.start - r.due);
    if (!r.ok) continue;
    apply.Add(r.apply_seconds);
    latency.Add(r.ack - r.due);
    restaged += static_cast<double>(r.restaged);
  }
  SetQuantile(result, "mutation.write_p50_ms", "ms", latency, 0.50, 1e3);
  SetQuantile(result, "mutation.write_p90_ms", "ms", latency, 0.90, 1e3);
  SetQuantile(result, "mutation.apply_ms_p50", "ms", apply, 0.50, 1e3);
  SetQuantile(result, "mutation.apply_ms_p90", "ms", apply, 0.90, 1e3);
  result->Set("mutation.restaged_pairs_per_batch", "count",
              restaged /
                  static_cast<double>(std::max<size_t>(1, apply.size())));
  SetQuantile(result, "loadgen.write_lag_ms_p90", "ms", lag, 0.90, 1e3);
  result->Set("mutation.folds", "count", static_cast<double>(pass.folds));
  if (pass.fold_seconds.empty()) return;  // Not watched (untraced).
  Samples folds;
  for (double s : pass.fold_seconds) folds.Add(s);
  if (other != nullptr) {
    for (double s : other->fold_seconds) folds.Add(s);
  }
  SetQuantile(result, "mutation.fold_ms_p50", "ms", folds, 0.50, 1e3);
}

/// DeltaLog::Append of the run's own batches into a scratch log.
void ReportWalLayer(const Args& args,
                    const std::vector<mu::MutationBatch>& schedule,
                    RunResult* result) {
  const std::string dir =
      args.run_dir + "/walprobe_" + std::to_string(::getpid());
  RemoveTree(dir);
  TSB_CHECK(MakeDirs(dir));
  mu::DeltaLog log;
  std::vector<mu::MutationBatch> replayed;
  TSB_CHECK(log.Open(dir + "/probe.wal", &replayed).ok());
  Samples append;
  for (const mu::MutationBatch& batch : schedule) {
    const double start = Now();
    TSB_CHECK(log.Append(batch).ok());
    append.Add(Now() - start);
  }
  SetQuantile(result, "mutation.wal_append_us_p50", "us", append, 0.50, 1e6);
  result->Set("mutation.wal_bytes_per_batch", "B",
              static_cast<double>(log.appended_bytes()) /
                  static_cast<double>(std::max<uint64_t>(
                      1, log.appended_records())));
  log.Close();
  RemoveTree(dir);
}

}  // namespace

RunResult RunWriteMix(const Args& args) {
  RunResult result;
  // One malloc arena for the whole process. With glibc's default (an arena
  // per contending thread) the peak RSS depends on which arenas the
  // writer's table copies and the compactor's folds happen to land in, and
  // read 56-83 MB over runs of the same schedule.
  const bool one_arena = ::mallopt(M_ARENA_MAX, 1) == 1;
  result.Meta("malloc_arenas", one_arena ? "1" : JsonString("default"));
  const std::vector<ReadSpec> reads = WriteMixReads(args.seed, args.seconds);

  // The schedule references the generated ids; generation is
  // deterministic, so a probe database yields the ids every world holds.
  std::vector<mu::MutationBatch> schedule;
  {
    tsb::storage::Catalog probe;
    tsb::biozon::GeneratorConfig gen;
    gen.seed = kDatabaseSeed;
    gen.scale = kScale;
    tsb::biozon::GenerateBiozon(gen, &probe);
    schedule = MakeWriteSchedule(Targets(probe), args.seed,
                                 kWarmupBatches +
                                     TimedWriteBatches(args.seconds));
  }
  std::unique_ptr<World> world = SetUp(args, 0, schedule);
  const double first_setup = Now();  // From process start.

  auto make_wires = [&](const World& w) {
    RequestFactory factory(w.db, WriteMixSpace());
    std::vector<tsb::wire::WireRequest> wires;
    wires.reserve(reads.size());
    for (size_t i = 0; i < reads.size(); ++i) {
      wires.push_back(factory.Wire(reads[i], i + 1));
    }
    return wires;
  };

  FailureCounts failures;
  size_t hits = 0;
  size_t reads_done = 0;
  auto account = [&](World* w, const Pass& pass, const char* label) {
    for (size_t i = 0; i < pass.reads_completed; ++i) {
      failures.Count(pass.reads[i].code);
      hits += pass.reads[i].from_cache;
    }
    reads_done += pass.reads_completed;
    std::vector<mu::MutationBatch> applied(
        schedule.begin(), schedule.begin() + kWarmupBatches);
    for (size_t i = 0; i < pass.writes_done; ++i) {
      if (!pass.writes[i].ok) ++failures.errors;
      else applied.push_back(schedule[kWarmupBatches + i]);
    }
    result.attempted += pass.reads_completed + pass.writes_done;
    w->service->mutation_engine()->StopCompaction();
    const size_t mismatches = CheckAgainstRebuild(w, applied);
    if (mismatches > 0) {
      result.Problem(std::string(label) + ": " + std::to_string(mismatches) +
                     " probe answers differ from the rebuild oracle");
    }
    result.Meta(std::string("oracle_mismatches.") + label,
                std::to_string(mismatches));
    if (pass.reads_completed < reads.size() ||
        pass.writes_done < pass.writes.size()) {
      result.Meta(std::string("truncated.") + label, "true");
    }
  };

  if (!args.trace) {
    const Pass pass = RunPass(world.get(), make_wires(*world), schedule,
                              args.seconds, false);
    ReportReads(pass.reads, pass.reads_completed, ReadFigures::kChunkMedians,
                &result);
    result.Set("peak_rss_mb", "MB", PeakRssMb());
    result.Meta("reader_cpus", JsonString(pass.reader_cpus));
    RunResult writes;
    ReportWriteLayer(pass, nullptr, &writes);
    for (const Metric& m : writes.metrics) {
      result.Meta(m.name, JsonNumber(m.value));
    }
    account(world.get(), pass, "timed");
  } else {
    const Pass pass = RunPass(world.get(), make_wires(*world), schedule,
                              args.seconds, true);
    // Untraced pass above; the traced pass gets a fresh world, since the
    // first one ends in the mutated state.
    account(world.get(), pass, "untraced");
    world.reset();
    world = SetUp(args, 1, schedule);
    const Pass traced = RunPass(world.get(), make_wires(*world), schedule,
                                args.seconds, true);
    SpanLog spans;
    Samples exec;
    double observed = 0.0;
    for (size_t i = 0; i < traced.reads_completed; ++i) {
      const ReadRecord& r = traced.reads[i];
      spans.Add("client.read", i, r.submit, r.done);
      spans.Add("service.submit", i, r.submit, r.submit + r.service_seconds);
      observed += r.latency();
      if (!r.from_cache && r.ok()) {
        const double exec_end = r.submit + r.service_seconds;
        spans.Add("engine.execute", i, exec_end - r.exec_seconds, exec_end);
        exec.Add(r.exec_seconds);
      }
    }
    double write_attributed = 0.0;
    for (size_t i = 0; i < traced.writes_done; ++i) {
      const WriteRecord& r = traced.writes[i];
      spans.Add("client.write", i, r.due, r.ack);
      spans.Add("mutation.apply", i, r.ack - r.apply_seconds, r.ack);
      observed += r.ack - r.due;
      write_attributed += r.apply_seconds;
    }
    result.Set("biozon.generate_s", "s", world->generate_s);
    result.Set("core.build_s", "s", world->build_s);
    result.Set("core.prune_s", "s", world->prune_s);
    result.Set("engine.index_s", "s", world->index_s);
    result.Set("setup.warmup_s", "s", world->warmup_s);
    const double read_attributed =
        ReportServiceLayer(traced.reads, traced.reads_completed, &result);
    // Engine time of the overlay reads as they ran (ExecStats::seconds of
    // each miss): a replay afterwards would see only the final epoch.
    SetQuantile(&result, "engine.exec_ms_p50", "ms", exec, 0.50, 1e3);
    SetQuantile(&result, "engine.exec_ms_p99", "ms", exec, 0.99, 1e3);
    ReportWriteLayer(traced, &pass, &result);
    ReportWalLayer(args, schedule, &result);
    result.Set("trace.overhead_ratio", "1",
               OverheadRatio(traced.reads, traced.reads_completed, pass.reads,
                             pass.reads_completed));
    result.Set("trace.coverage", "1",
               observed > 0.0 ? (read_attributed + write_attributed) / observed
                              : 0.0);
    WriteSpans(spans, args, &result);
    account(world.get(), traced, "traced");
  }
  ReportFailures(failures, args.trace, &result);
  const double hit_ratio =
      static_cast<double>(hits) /
      static_cast<double>(std::max<size_t>(1, reads_done));
  // Rule: most reads miss; a hit share near 50% would put p50 on the
  // boundary between cache hits and overlay reads.
  if (hit_ratio > 0.2) {
    result.Problem("cache hit ratio " + JsonNumber(hit_ratio) + " above 0.2");
  }

  result.Meta("scale", JsonNumber(kScale));
  result.Meta("read_clients", "1");
  result.Meta("writer_threads", "1");
  result.Meta("service_threads", std::to_string(kServiceThreads));
  result.Meta("requests", std::to_string(reads.size()));
  result.Meta("write_batches_timed",
              std::to_string(schedule.size() - kWarmupBatches));
  result.Meta("write_interval_s", JsonNumber(kWriteIntervalSeconds));
  result.Meta("flush_policy", JsonString("fsync per batch (DeltaLog)"));
  result.Meta("compaction_min_generations", "4");
  result.Meta("cache_hit_ratio", JsonNumber(hit_ratio));
  if (!args.trace) {
    size_t rep = 0;
    ReportSetUp(first_setup, [&]() {
      world.reset();
      world = SetUp(args, ++rep, schedule);
    }, &result);
  }
  return result;
}

}  // namespace perfbench
