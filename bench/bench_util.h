#ifndef TSB_BENCH_BENCH_UTIL_H_
#define TSB_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "biozon/domain.h"
#include "biozon/fig3.h"
#include "biozon/generator.h"
#include "common/stopwatch.h"
#include "core/builder.h"
#include "core/pruner.h"
#include "core/scorer.h"
#include "core/store.h"
#include "engine/engine.h"
#include "graph/data_graph.h"
#include "graph/schema_graph.h"
#include "storage/catalog.h"

namespace tsb {
namespace bench {

/// Configuration of a benchmark world: a generated Biozon plus built and
/// pruned topology pairs, mirroring the paper's experimental setup
/// (Section 6.1: warm cache, precomputed tables, indexes built).
struct WorldConfig {
  uint64_t seed = 42;
  double scale = 1.0;
  size_t max_path_length = 3;
  /// Entity-set name pairs to precompute (e.g. {"Protein", "Interaction"}).
  std::vector<std::pair<std::string, std::string>> pairs = {
      {"Protein", "Interaction"}};
  /// Pruning threshold as a fraction of each pair's related-pair count
  /// (the paper used an absolute 2M on the 28M-object Biozon, pruning 19 of
  /// 805 topologies).
  double prune_fraction = 0.005;
  /// Build caps (Section 6.2.3's intrinsic complexity).
  size_t max_class_representatives = 8;
  size_t max_union_combinations = 512;
  size_t max_paths_per_source = 200000;
  /// SQL-baseline candidate budget: the paper's a-priori restriction to
  /// topologies known to occur ("close to 200" on Biozon). The synthetic
  /// databases observe thousands of distinct topologies; checking each of
  /// them takes hours, exactly the Section-3.1 argument.
  size_t sql_max_candidates = 500;
  biozon::GeneratorConfig generator;  // seed/scale overridden by the above.
};

struct World {
  storage::Catalog db;
  biozon::BiozonSchema ids;
  std::unique_ptr<graph::DataGraphView> view;
  std::unique_ptr<graph::SchemaGraph> schema;
  core::TopologyStore store;
  std::unique_ptr<engine::Engine> engine;
  double build_seconds = 0.0;
  double prune_seconds = 0.0;

  storage::EntityTypeId Type(const std::string& entity_set) const {
    const storage::EntitySetDef* def = db.FindEntitySet(entity_set);
    TSB_CHECK(def != nullptr) << entity_set;
    return def->id;
  }

  const core::PairTopologyData& Pair(const std::string& a,
                                     const std::string& b) const {
    const core::PairTopologyData* pair = store.FindPair(Type(a), Type(b));
    TSB_CHECK(pair != nullptr);
    return *pair;
  }
};

inline std::unique_ptr<World> MakeWorld(const WorldConfig& config) {
  auto world = std::make_unique<World>();
  biozon::GeneratorConfig gen = config.generator;
  gen.seed = config.seed;
  gen.scale = config.scale;
  world->ids = biozon::GenerateBiozon(gen, &world->db);
  world->view = std::make_unique<graph::DataGraphView>(world->db);
  world->schema = std::make_unique<graph::SchemaGraph>(world->db);

  core::TopologyBuilder builder(&world->db, world->schema.get(),
                                world->view.get());
  core::BuildConfig build;
  build.max_path_length = config.max_path_length;
  build.max_class_representatives = config.max_class_representatives;
  build.max_union_combinations = config.max_union_combinations;
  build.max_paths_per_source = config.max_paths_per_source;

  Stopwatch build_watch;
  for (const auto& [a, b] : config.pairs) {
    TSB_CHECK(builder
                  .BuildPair(world->Type(a), world->Type(b), build,
                             &world->store)
                  .ok());
  }
  world->build_seconds = build_watch.ElapsedSeconds();

  Stopwatch prune_watch;
  for (const auto& [a, b] : config.pairs) {
    const core::PairTopologyData& pair = world->Pair(a, b);
    core::PruneConfig prune;
    prune.frequency_threshold = static_cast<size_t>(
        config.prune_fraction *
        static_cast<double>(pair.num_related_pairs));
    TSB_CHECK(core::PruneFrequentTopologies(&world->db, &world->store,
                                            world->Type(a), world->Type(b),
                                            prune)
                  .ok());
  }
  world->prune_seconds = prune_watch.ElapsedSeconds();

  engine::SqlBaselineOptions sql_options;
  sql_options.max_candidates = config.sql_max_candidates;
  world->engine = std::make_unique<engine::Engine>(
      &world->db, &world->store, world->schema.get(), world->view.get(),
      core::ScoreModel(&world->store.catalog(),
                       biozon::MakeBiozonDomainKnowledge(world->ids)),
      sql_options);
  for (const auto& [a, b] : config.pairs) {
    world->engine->PrepareIndexes(a, b);
  }
  return world;
}

/// Accumulates ExecStats across runs (ExecStats::operator+=) with a run
/// count — the aggregate used by throughput benches and batch reporting
/// instead of summing fields by hand.
struct StatsAccumulator {
  engine::ExecStats total;
  size_t runs = 0;

  void Add(const engine::ExecStats& stats) {
    total += stats;
    ++runs;
  }
  double QueriesPerSecond() const {
    return total.seconds > 0.0 ? static_cast<double>(runs) / total.seconds
                               : 0.0;
  }
};

/// Median-of-`reps` wall time of `fn` after one warm-up run (warm database
/// cache, as in the paper's setup).
inline double MeasureSeconds(const std::function<void()>& fn, int reps = 3) {
  fn();  // Warm-up.
  std::vector<double> times;
  times.reserve(reps);
  for (int i = 0; i < reps; ++i) {
    Stopwatch watch;
    fn();
    times.push_back(watch.ElapsedSeconds());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// "12.3K" / "4.5M" style byte formatting for space tables.
inline std::string HumanBytes(size_t bytes) {
  char buf[32];
  if (bytes >= 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1fMB",
                  static_cast<double>(bytes) / (1024.0 * 1024.0));
  } else if (bytes >= 1024) {
    std::snprintf(buf, sizeof(buf), "%.1fKB",
                  static_cast<double>(bytes) / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%zuB", bytes);
  }
  return buf;
}

/// Nearest-rank percentile (p in [0, 1]) of a non-empty sample.
inline double Percentile(std::vector<double> values, double p) {
  TSB_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const size_t idx = std::min(
      values.size() - 1,
      static_cast<size_t>(p * static_cast<double>(values.size())));
  return values[idx];
}

/// Parses "--flag=value" style options from argv; returns default if absent.
inline double FlagValue(int argc, char** argv, const std::string& name,
                        double def) {
  std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      return std::stod(arg.substr(prefix.size()));
    }
  }
  return def;
}

inline bool HasFlag(int argc, char** argv, const std::string& name) {
  std::string flag = "--" + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

}  // namespace bench
}  // namespace tsb

#endif  // TSB_BENCH_BENCH_UTIL_H_
