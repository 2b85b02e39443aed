#include "graph/schema_topology_enum.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "graph/canonical.h"

namespace tsb {
namespace graph {
namespace {

using NodeId = LabeledGraph::NodeId;

/// One intermediate node of the disjoint-union graph, remembering which path
/// it came from (for the at-most-one-node-per-path-per-block rule).
struct Intermediate {
  NodeId node;
  size_t path;  // Index within the chosen subset.
  uint32_t type;
};

/// Enumerates set partitions of `items` where each block holds items of one
/// type and at most one item per path; invokes `fn` with block assignments
/// (assign[i] = block id of item i).
void ForEachPartition(const std::vector<Intermediate>& items,
                      const std::function<void(const std::vector<int>&)>& fn) {
  std::vector<int> assign(items.size(), -1);
  int num_blocks = 0;

  std::function<void(size_t)> rec = [&](size_t i) {
    if (i == items.size()) {
      fn(assign);
      return;
    }
    // Join an existing block if compatible.
    for (int b = 0; b < num_blocks; ++b) {
      bool ok = true;
      for (size_t j = 0; j < i; ++j) {
        if (assign[j] != b) continue;
        if (items[j].type != items[i].type || items[j].path == items[i].path) {
          ok = false;
          break;
        }
      }
      if (ok) {
        assign[i] = b;
        rec(i + 1);
        assign[i] = -1;
      }
    }
    // Or start a new block.
    assign[i] = num_blocks++;
    rec(i + 1);
    assign[i] = -1;
    --num_blocks;
  };
  rec(0);
}

}  // namespace

std::vector<CandidateTopology> EnumerateCandidateTopologies(
    const SchemaGraph& schema, const std::vector<SchemaPath>& paths,
    const EnumerateOptions& options, bool* truncated) {
  if (truncated != nullptr) *truncated = false;
  std::vector<CandidateTopology> out;
  std::unordered_set<std::string> seen_codes;
  if (paths.empty()) return out;

  const storage::EntityTypeId t1 = paths[0].start();
  const storage::EntityTypeId t2 = paths[0].end();
  for (const SchemaPath& p : paths) {
    TSB_CHECK(p.start() == t1 && p.end() == t2)
        << "all paths must connect the same entity-type pair";
  }

  bool capped = false;
  const size_t n = paths.size();
  // Iterate over non-empty subsets via bitmask when n is small enough,
  // otherwise over increasing subset sizes with recursion.
  TSB_CHECK_LE(n, size_t{24}) << "too many schema paths to enumerate";

  for (uint64_t mask = 1; mask < (uint64_t{1} << n) && !capped; ++mask) {
    std::vector<size_t> subset;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (uint64_t{1} << i)) subset.push_back(i);
    }
    if (subset.size() > options.max_paths_per_topology) continue;

    // Build the base graph: shared endpoints a (type t1) and b (type t2),
    // plus each path's intermediates as fresh nodes.
    LabeledGraph base;
    NodeId a = base.AddNode(t1);
    NodeId b = base.AddNode(t2);
    std::vector<Intermediate> intermediates;
    for (size_t si = 0; si < subset.size(); ++si) {
      const SchemaPath& p = paths[subset[si]];
      // Map path-node positions to graph nodes.
      std::vector<NodeId> at(p.node_types.size());
      at.front() = a;
      at.back() = b;
      for (size_t k = 1; k + 1 < p.node_types.size(); ++k) {
        NodeId id = base.AddNode(p.node_types[k]);
        at[k] = id;
        intermediates.push_back(Intermediate{id, si, p.node_types[k]});
      }
      for (size_t k = 0; k < p.steps.size(); ++k) {
        base.AddEdge(at[k], at[k + 1], p.steps[k].rel);
      }
    }

    ForEachPartition(intermediates, [&](const std::vector<int>& assign) {
      if (capped) return;
      // Apply merges on a copy: for each block, merge members into the
      // first. Track shifting ids by merging highest-id-first within
      // blocks; simpler: rebuild the graph with a node map.
      std::unordered_map<int, NodeId> block_to_node;
      LabeledGraph g;
      // Node 0/1 are the endpoints again.
      NodeId ga = g.AddNode(t1);
      NodeId gb = g.AddNode(t2);
      // base node -> g node.
      std::vector<NodeId> remap(base.num_nodes());
      remap[0] = ga;
      remap[1] = gb;
      for (size_t i = 0; i < intermediates.size(); ++i) {
        int block = assign[i];
        auto it = block_to_node.find(block);
        if (it == block_to_node.end()) {
          NodeId id = g.AddNode(intermediates[i].type);
          block_to_node.emplace(block, id);
          remap[intermediates[i].node] = id;
        } else {
          remap[intermediates[i].node] = it->second;
        }
      }
      for (const LabeledGraph::Edge& e : base.edges()) {
        g.AddEdge(remap[e.u], remap[e.v], e.label);
      }
      g.DedupeParallelEdges();

      Canonical canonical = Canonicalize(g);
      if (!seen_codes.insert(canonical.code).second) return;
      if (out.size() >= options.max_candidates) {
        capped = true;
        if (truncated != nullptr) *truncated = true;
        return;
      }
      CandidateTopology cand;
      cand.graph = std::move(canonical.form);
      cand.code = std::move(canonical.code);
      cand.path_indices = subset;
      out.push_back(std::move(cand));
    });
  }
  return out;
}

}  // namespace graph
}  // namespace tsb
