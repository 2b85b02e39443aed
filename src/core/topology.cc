#include "core/topology.h"

#include <algorithm>
#include <mutex>

#include "common/logging.h"
#include "common/str_util.h"
#include "graph/canonical.h"
#include "obs/cost.h"

namespace tsb {
namespace core {

bool IsPathShaped(const graph::LabeledGraph& g) {
  const size_t n = g.num_nodes();
  if (n < 2) return false;
  if (g.num_edges() != n - 1) return false;  // Tree edge count.
  if (!g.IsConnected()) return false;
  size_t degree_one = 0;
  for (size_t v = 0; v < n; ++v) {
    size_t d = g.Degree(static_cast<graph::LabeledGraph::NodeId>(v));
    if (d == 1) {
      ++degree_one;
    } else if (d != 2) {
      return false;
    }
  }
  return degree_one == 2;
}

std::optional<graph::SchemaPath> ExtractSchemaPath(
    const graph::LabeledGraph& g, const graph::SchemaGraph& schema) {
  if (!IsPathShaped(g)) return std::nullopt;
  using NodeId = graph::LabeledGraph::NodeId;
  const size_t n = g.num_nodes();
  // Find an endpoint to start the walk.
  NodeId start = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (g.Degree(v) == 1) {
      start = v;
      break;
    }
  }
  graph::SchemaPath path;
  path.node_types.push_back(g.node_label(start));
  NodeId prev = start;
  NodeId at = start;
  for (size_t step = 0; step + 1 < n; ++step) {
    // Move to the neighbor that is not where we came from.
    NodeId next = at;
    uint32_t edge_label = 0;
    for (const auto& [nbr, el] : g.Neighbors(at)) {
      if (step == 0 || nbr != prev) {
        next = nbr;
        edge_label = el;
        break;
      }
    }
    TSB_CHECK_NE(next, at);
    storage::EntityTypeId from_type = g.node_label(at);
    storage::EntityTypeId to_type = g.node_label(next);
    storage::RelTypeId rel = edge_label;
    bool forward;
    if (schema.rel_from(rel) == from_type && schema.rel_to(rel) == to_type) {
      forward = true;
    } else if (schema.rel_from(rel) == to_type &&
               schema.rel_to(rel) == from_type) {
      forward = false;
    } else {
      return std::nullopt;  // Edge label inconsistent with the schema.
    }
    path.steps.push_back(graph::SchemaStep{rel, forward});
    path.node_types.push_back(to_type);
    prev = at;
    at = next;
  }
  // Normalize to the canonical class direction: the one with the smaller
  // label sequence (matching SchemaGraph::PathClassKey).
  graph::SchemaPath reversed = path.Reversed();
  auto seq = [](const graph::SchemaPath& p) {
    std::vector<uint32_t> s;
    for (size_t i = 0; i < p.steps.size(); ++i) {
      s.push_back(p.node_types[i]);
      s.push_back(p.steps[i].rel);
    }
    s.push_back(p.node_types.back());
    return s;
  };
  if (seq(reversed) < seq(path)) return reversed;
  return path;
}

Tid TopologyCatalog::Intern(const graph::LabeledGraph& g, size_t num_classes) {
  graph::Canonical canonical = graph::Canonicalize(g);
  return InternWithCode(canonical.form, std::move(canonical.code),
                        num_classes);
}

Tid TopologyCatalog::InternWithCode(const graph::LabeledGraph& g,
                                    std::string code, size_t num_classes,
                                    std::vector<std::string> class_keys) {
  obs::CostTracker::ChargeCatalogInterns(1);
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = by_code_.find(code);
  if (it != by_code_.end()) {
    // The same topology can arise from different class sets (graph identity
    // carries no terminal marking); accumulate every observed constituent
    // class so structure-anchored checks stay complete.
    TopologyInfo& existing = infos_[static_cast<size_t>(it->second) - 1];
    for (std::string& key : class_keys) {
      if (std::find(existing.class_keys.begin(), existing.class_keys.end(),
                    key) == existing.class_keys.end()) {
        existing.class_keys.push_back(std::move(key));
      }
    }
    return it->second;
  }
  Tid tid = static_cast<Tid>(infos_.size()) + 1;
  TopologyInfo info;
  info.tid = tid;
  info.graph = g;
  info.code = code;
  info.num_classes = num_classes;
  info.is_path = IsPathShaped(info.graph);
  info.class_keys = std::move(class_keys);
  by_code_.emplace(std::move(code), tid);
  infos_.push_back(std::move(info));
  return tid;
}

std::optional<Tid> TopologyCatalog::FindByCode(const std::string& code) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = by_code_.find(code);
  if (it == by_code_.end()) return std::nullopt;
  return it->second;
}

const TopologyInfo& TopologyCatalog::GetLocked(Tid tid) const {
  TSB_CHECK(tid >= 1 && static_cast<size_t>(tid) <= infos_.size())
      << "unknown TID " << tid;
  return infos_[static_cast<size_t>(tid) - 1];
}

const TopologyInfo& TopologyCatalog::Get(Tid tid) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return GetLocked(tid);
}

std::vector<std::string> TopologyCatalog::ClassKeysOf(Tid tid) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return GetLocked(tid).class_keys;
}

size_t TopologyCatalog::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return infos_.size();
}

std::string TopologyCatalog::Describe(Tid tid,
                                      const graph::SchemaGraph& schema) const {
  const TopologyInfo& info = Get(tid);
  const graph::LabeledGraph& g = info.graph;
  std::vector<std::string> parts;
  for (const graph::LabeledGraph::Edge& e : g.edges()) {
    parts.push_back(StrFormat(
        "%s%u-(%s)-%s%u", schema.entity_name(g.node_label(e.u)).c_str(), e.u,
        schema.rel_name(e.label).c_str(),
        schema.entity_name(g.node_label(e.v)).c_str(), e.v));
  }
  return StrJoin(parts, ", ");
}

}  // namespace core
}  // namespace tsb
