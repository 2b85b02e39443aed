#include "graph/canonical.h"

#include <algorithm>
#include <map>
#include <tuple>

#include "common/hash.h"
#include "common/logging.h"
#include "common/str_util.h"

namespace tsb {
namespace graph {
namespace {

using NodeId = LabeledGraph::NodeId;

/// Refines node colors until stable. Returns the final color of each node;
/// colors are dense ranks that deterministically depend only on the
/// isomorphism class of each node's neighborhood tower.
std::vector<uint32_t> RefineColors(const LabeledGraph& g) {
  const size_t n = g.num_nodes();
  // Initial color: dense rank of the node label.
  std::vector<uint32_t> labels(g.node_labels());
  std::vector<uint32_t> sorted_labels = labels;
  std::sort(sorted_labels.begin(), sorted_labels.end());
  sorted_labels.erase(std::unique(sorted_labels.begin(), sorted_labels.end()),
                      sorted_labels.end());
  std::vector<uint32_t> color(n);
  for (size_t i = 0; i < n; ++i) {
    color[i] = static_cast<uint32_t>(
        std::lower_bound(sorted_labels.begin(), sorted_labels.end(),
                         labels[i]) -
        sorted_labels.begin());
  }

  // Adjacency with edge labels (parallel edges contribute multiplicity).
  std::vector<std::vector<std::pair<NodeId, uint32_t>>> adj(n);
  for (const LabeledGraph::Edge& e : g.edges()) {
    adj[e.u].emplace_back(e.v, e.label);
    if (e.u != e.v) adj[e.v].emplace_back(e.u, e.label);
  }

  size_t num_colors =
      sorted_labels.empty() ? 0 : sorted_labels.size();
  for (size_t round = 0; round < n + 1; ++round) {
    // Signature: (current color, original label, sorted multiset of
    // (edge label, neighbor color)).
    using Sig = std::tuple<uint32_t, uint32_t,
                           std::vector<std::pair<uint32_t, uint32_t>>>;
    std::vector<Sig> sigs(n);
    for (size_t v = 0; v < n; ++v) {
      std::vector<std::pair<uint32_t, uint32_t>> nbr;
      nbr.reserve(adj[v].size());
      for (const auto& [u, el] : adj[v]) nbr.emplace_back(el, color[u]);
      std::sort(nbr.begin(), nbr.end());
      sigs[v] = Sig{color[v], labels[v], std::move(nbr)};
    }
    std::map<Sig, uint32_t> rank;
    for (size_t v = 0; v < n; ++v) rank.emplace(sigs[v], 0);
    uint32_t next = 0;
    for (auto& [sig, r] : rank) r = next++;
    std::vector<uint32_t> new_color(n);
    for (size_t v = 0; v < n; ++v) new_color[v] = rank[sigs[v]];
    if (rank.size() == num_colors) {
      return new_color;  // Stable partition.
    }
    num_colors = rank.size();
    color = std::move(new_color);
  }
  return color;
}

/// Serializes the graph under a node ordering. `pos[v]` = position of node v.
std::string SerializeUnder(const LabeledGraph& g,
                           const std::vector<uint32_t>& pos) {
  std::string out;
  auto put32 = [&out](uint32_t v) {
    out.push_back(static_cast<char>(v >> 24));
    out.push_back(static_cast<char>(v >> 16));
    out.push_back(static_cast<char>(v >> 8));
    out.push_back(static_cast<char>(v));
  };
  const size_t n = g.num_nodes();
  put32(static_cast<uint32_t>(n));
  // Node labels in canonical position order.
  std::vector<uint32_t> label_at(n);
  for (size_t v = 0; v < n; ++v) label_at[pos[v]] = g.node_label(v);
  for (uint32_t l : label_at) put32(l);
  // Sorted edge triples.
  std::vector<std::tuple<uint32_t, uint32_t, uint32_t>> es;
  es.reserve(g.num_edges());
  for (const LabeledGraph::Edge& e : g.edges()) {
    uint32_t a = pos[e.u], b = pos[e.v];
    if (a > b) std::swap(a, b);
    es.emplace_back(a, b, e.label);
  }
  std::sort(es.begin(), es.end());
  put32(static_cast<uint32_t>(es.size()));
  for (const auto& [a, b, l] : es) {
    put32(a);
    put32(b);
    put32(l);
  }
  return out;
}

constexpr size_t kMaxOrderings = 5'000'000;

/// Enumerates orderings consistent with the color cells and returns the
/// minimal serialization (and optionally the winning position map).
std::string SearchMinCode(const LabeledGraph& g,
                          const std::vector<std::vector<NodeId>>& cells,
                          std::vector<uint32_t>* best_pos_out) {
  // Budget check: product of cell factorials.
  double orderings = 1.0;
  for (const auto& cell : cells) {
    for (size_t k = 2; k <= cell.size(); ++k) orderings *= double(k);
  }
  TSB_CHECK_LE(orderings, double(kMaxOrderings))
      << "canonicalization budget exceeded: graph too symmetric ("
      << g.num_nodes() << " nodes)";

  const size_t n = g.num_nodes();
  std::vector<uint32_t> pos(n, 0);
  std::string best;
  std::vector<uint32_t> best_pos;

  // Iterate over the cartesian product of per-cell permutations.
  std::vector<std::vector<NodeId>> perms = cells;
  for (auto& p : perms) std::sort(p.begin(), p.end());

  // Odometer over cells using std::next_permutation per cell.
  for (;;) {
    uint32_t next_position = 0;
    for (const auto& cell_perm : perms) {
      for (NodeId v : cell_perm) pos[v] = next_position++;
    }
    std::string code = SerializeUnder(g, pos);
    if (best.empty() || code < best) {
      best = std::move(code);
      best_pos = pos;
    }
    // Advance odometer.
    size_t i = 0;
    for (; i < perms.size(); ++i) {
      if (std::next_permutation(perms[i].begin(), perms[i].end())) break;
      // perms[i] wrapped to sorted order; carry to next cell.
    }
    if (i == perms.size()) break;
  }
  if (best_pos_out != nullptr) *best_pos_out = std::move(best_pos);
  return best;
}

std::string CanonicalCodeImpl(const LabeledGraph& g,
                              std::vector<uint32_t>* pos_out) {
  const size_t n = g.num_nodes();
  if (n == 0) {
    if (pos_out) pos_out->clear();
    return std::string("\0\0\0\0\0\0\0\0", 8);  // n = 0, edges = 0.
  }
  std::vector<uint32_t> color = RefineColors(g);
  // Cells ordered by color rank.
  uint32_t max_color = *std::max_element(color.begin(), color.end());
  std::vector<std::vector<NodeId>> cells(max_color + 1);
  for (size_t v = 0; v < n; ++v) {
    cells[color[v]].push_back(static_cast<NodeId>(v));
  }
  return SearchMinCode(g, cells, pos_out);
}

}  // namespace

std::string CanonicalCode(const LabeledGraph& g) {
  return CanonicalCodeImpl(g, nullptr);
}

Canonical Canonicalize(const LabeledGraph& g) {
  std::vector<uint32_t> pos;
  Canonical out;
  out.code = CanonicalCodeImpl(g, &pos);
  std::vector<uint32_t> label_at(g.num_nodes());
  for (size_t v = 0; v < g.num_nodes(); ++v) {
    label_at[pos[v]] = g.node_label(static_cast<NodeId>(v));
  }
  for (uint32_t l : label_at) out.form.AddNode(l);
  std::vector<std::tuple<uint32_t, uint32_t, uint32_t>> es;
  es.reserve(g.num_edges());
  for (const LabeledGraph::Edge& e : g.edges()) {
    uint32_t a = pos[e.u], b = pos[e.v];
    if (a > b) std::swap(a, b);
    es.emplace_back(a, b, e.label);
  }
  std::sort(es.begin(), es.end());
  for (const auto& [a, b, l] : es) {
    out.form.AddEdge(a, b, l);
  }
  return out;
}

LabeledGraph CanonicalForm(const LabeledGraph& g) {
  return Canonicalize(g).form;
}

std::string CodeDigest(const std::string& code) {
  return StrFormat("%016llx",
                   static_cast<unsigned long long>(Fnv1a(code)));
}

}  // namespace graph
}  // namespace tsb
