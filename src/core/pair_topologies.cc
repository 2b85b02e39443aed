#include "core/pair_topologies.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"
#include "graph/canonical.h"

namespace tsb {
namespace core {
namespace {

/// Unions the chosen paths into an instance-level labeled graph. A
/// relationship row shared by several paths adds one edge, and so do
/// distinct rows with identical endpoints and type: parallel duplicates
/// carry no information for topology identity. The graph equals building
/// every edge and then calling DedupeParallelEdges. Unions have a few dozen
/// nodes at most, so lookups are linear scans.
void BuildUnionGraph(const graph::DataGraphView& view,
                     const std::vector<const graph::PathInstance*>& chosen,
                     UnionGraph* out) {
  auto node_of = [out](graph::EntityId id) {
    return static_cast<graph::LabeledGraph::NodeId>(
        std::find(out->node_ids.begin(), out->node_ids.end(), id) -
        out->node_ids.begin());
  };
  for (const graph::PathInstance* path : chosen) {
    for (graph::EntityId id : path->nodes) {
      if (node_of(id) < out->node_ids.size()) continue;
      out->graph.AddNode(view.NodeType(id));
      out->node_ids.push_back(id);
    }
    for (size_t i = 0; i < path->steps.size(); ++i) {
      const graph::LabeledGraph::NodeId u = node_of(path->nodes[i]);
      const graph::LabeledGraph::NodeId v = node_of(path->nodes[i + 1]);
      const uint32_t rel = path->steps[i].rel;
      if (!out->graph.HasEdge(u, v, rel)) out->graph.AddEdge(u, v, rel);
    }
  }
}

}  // namespace

void ForEachUnion(
    const graph::DataGraphView& view,
    const std::vector<std::vector<graph::PathInstance>>& class_reps,
    const UnionLimits& limits, bool* truncated,
    const std::function<void(UnionGraph&)>& visit) {
  if (class_reps.empty()) return;
  const size_t s = class_reps.size();
  for (const auto& reps : class_reps) {
    TSB_CHECK(!reps.empty()) << "empty path equivalence class";
  }

  std::vector<size_t> choice(s, 0);
  std::vector<const graph::PathInstance*> chosen(s);
  size_t combos = 0;
  for (;;) {
    if (combos >= limits.max_union_combinations) {
      if (truncated != nullptr) *truncated = true;
      break;
    }
    ++combos;
    for (size_t c = 0; c < s; ++c) chosen[c] = &class_reps[c][choice[c]];
    UnionGraph u;
    BuildUnionGraph(view, chosen, &u);
    visit(u);

    if (s == 1) break;  // All single-class choices are isomorphic.
    // Advance the odometer.
    size_t c = 0;
    for (; c < s; ++c) {
      if (++choice[c] < class_reps[c].size()) break;
      choice[c] = 0;
    }
    if (c == s) break;
  }
}

SourceSweep SweepFromSource(const graph::DataGraphView& view,
                            const graph::SchemaGraph& schema,
                            graph::EntityId a,
                            storage::EntityTypeId partner_type,
                            bool self_pair, const SweepLimits& limits) {
  SourceSweep sweep;
  if (!view.HasNode(a)) return sweep;

  graph::PathInstance current;
  current.nodes.push_back(a);
  size_t paths_recorded = 0;

  std::function<void()> dfs = [&]() {
    if (sweep.source_truncated) return;
    graph::EntityId at = current.nodes.back();
    if (at != a && view.NodeType(at) == partner_type &&
        !current.steps.empty() && (!self_pair || at > a)) {
      if (paths_recorded >= limits.max_paths_per_source) {
        sweep.source_truncated = true;
        return;
      }
      ++paths_recorded;
      std::string key = schema.PathClassKey(current.ToSchemaPath(view));
      std::vector<graph::PathInstance>& reps = sweep.by_dest[at][key];
      if (reps.size() >= limits.max_class_representatives) {
        sweep.reps_truncated = true;
      } else {
        reps.push_back(current);
      }
    }
    if (current.steps.size() == limits.max_path_length) return;
    for (const graph::AdjEntry& adj : view.Neighbors(at)) {
      if (std::find(current.nodes.begin(), current.nodes.end(),
                    adj.neighbor) != current.nodes.end()) {
        continue;  // Simple paths only.
      }
      current.nodes.push_back(adj.neighbor);
      current.edge_ids.push_back(adj.edge_id);
      current.steps.push_back(graph::SchemaStep{adj.rel, adj.forward});
      dfs();
      current.nodes.pop_back();
      current.edge_ids.pop_back();
      current.steps.pop_back();
      if (sweep.source_truncated) return;
    }
  };
  dfs();
  return sweep;
}

PairComputation ComputePairTopologies(const graph::DataGraphView& view,
                                      const graph::SchemaGraph& schema,
                                      graph::EntityId a, graph::EntityId b,
                                      const PairComputeLimits& limits) {
  PairComputation result;
  bool path_truncated = false;
  std::vector<graph::PathInstance> paths = graph::EnumeratePathsBetween(
      view, a, b, limits.max_path_length, limits.path_cap, &path_truncated);
  if (path_truncated) result.truncated = true;

  for (graph::PathInstance& p : paths) {
    std::string key = schema.PathClassKey(p.ToSchemaPath(view));
    std::vector<graph::PathInstance>& reps = result.classes[key];
    if (reps.size() >= limits.union_limits.max_class_representatives) {
      result.truncated = true;
      continue;
    }
    reps.push_back(std::move(p));
  }
  if (result.classes.empty()) return result;

  std::vector<std::vector<graph::PathInstance>> class_reps;
  std::vector<std::string> class_keys;
  class_reps.reserve(result.classes.size());
  for (const auto& [key, reps] : result.classes) {
    class_keys.push_back(key);
    class_reps.push_back(reps);
  }

  // Distinct topologies in first-seen order, each with its first witness.
  std::unordered_set<std::string> seen;
  ForEachUnion(view, class_reps, limits.union_limits, &result.truncated,
               [&](UnionGraph& u) {
                 graph::Canonical canonical = graph::Canonicalize(u.graph);
                 if (!seen.insert(canonical.code).second) return;
                 ComputedTopology topo;
                 topo.code = std::move(canonical.code);
                 topo.graph = std::move(canonical.form);
                 topo.witness = std::move(u.graph);
                 topo.witness_ids = std::move(u.node_ids);
                 topo.num_classes = class_reps.size();
                 topo.class_keys = class_keys;
                 result.topologies.push_back(std::move(topo));
               });
  return result;
}

}  // namespace core
}  // namespace tsb
