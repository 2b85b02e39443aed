#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "graph/canonical.h"
#include "graph/isomorphism.h"
#include "graph/labeled_graph.h"

namespace tsb {
namespace graph {
namespace {

using NodeId = LabeledGraph::NodeId;

LabeledGraph Triangle(uint32_t la, uint32_t lb, uint32_t lc, uint32_t e) {
  LabeledGraph g;
  NodeId a = g.AddNode(la);
  NodeId b = g.AddNode(lb);
  NodeId c = g.AddNode(lc);
  g.AddEdge(a, b, e);
  g.AddEdge(b, c, e);
  g.AddEdge(c, a, e);
  return g;
}

/// Applies a random relabeling of node ids to `g` (preserving structure).
LabeledGraph Permuted(const LabeledGraph& g, Rng* rng) {
  std::vector<NodeId> perm(g.num_nodes());
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<NodeId>(i);
  rng->Shuffle(&perm);
  std::vector<uint32_t> labels(g.num_nodes());
  for (size_t i = 0; i < g.num_nodes(); ++i) {
    labels[perm[i]] = g.node_label(static_cast<NodeId>(i));
  }
  LabeledGraph out;
  for (uint32_t l : labels) out.AddNode(l);
  std::vector<LabeledGraph::Edge> edges(g.edges());
  rng->Shuffle(&edges);
  for (const auto& e : edges) out.AddEdge(perm[e.u], perm[e.v], e.label);
  return out;
}

LabeledGraph RandomGraph(Rng* rng, size_t n, size_t m, uint32_t node_labels,
                         uint32_t edge_labels) {
  LabeledGraph g;
  for (size_t i = 0; i < n; ++i) {
    g.AddNode(static_cast<uint32_t>(rng->NextBounded(node_labels)));
  }
  for (size_t i = 0; i < m; ++i) {
    NodeId u = static_cast<NodeId>(rng->NextBounded(n));
    NodeId v = static_cast<NodeId>(rng->NextBounded(n));
    if (u == v) continue;
    g.AddEdge(u, v, static_cast<uint32_t>(rng->NextBounded(edge_labels)));
  }
  return g;
}

// --- LabeledGraph ------------------------------------------------------------

TEST(LabeledGraphTest, BasicConstruction) {
  LabeledGraph g;
  NodeId a = g.AddNode(1);
  NodeId b = g.AddNode(2);
  g.AddEdge(a, b, 9);
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.node_label(b), 2u);
  EXPECT_TRUE(g.HasEdge(a, b, 9));
  EXPECT_TRUE(g.HasEdge(b, a, 9));  // Undirected.
  EXPECT_FALSE(g.HasEdge(a, b, 8));
}

TEST(LabeledGraphTest, DegreeAndNeighbors) {
  LabeledGraph g = Triangle(1, 1, 1, 5);
  EXPECT_EQ(g.Degree(0), 2u);
  EXPECT_EQ(g.Neighbors(0).size(), 2u);
}

TEST(LabeledGraphTest, DedupeParallelEdges) {
  LabeledGraph g;
  NodeId a = g.AddNode(1);
  NodeId b = g.AddNode(2);
  g.AddEdge(a, b, 7);
  g.AddEdge(b, a, 7);  // Same undirected edge.
  g.AddEdge(a, b, 8);  // Different label: kept.
  g.DedupeParallelEdges();
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(LabeledGraphTest, MergeNodesRepointsEdges) {
  LabeledGraph g;
  NodeId a = g.AddNode(1);
  NodeId b = g.AddNode(2);
  NodeId c = g.AddNode(2);
  g.AddEdge(a, b, 3);
  g.AddEdge(a, c, 4);
  g.MergeNodes(b, c);
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_TRUE(g.HasEdge(a, b, 3));
  EXPECT_TRUE(g.HasEdge(a, b, 4));
}

TEST(LabeledGraphTest, Connectivity) {
  LabeledGraph g;
  g.AddNode(1);
  g.AddNode(1);
  EXPECT_FALSE(g.IsConnected());
  g.AddEdge(0, 1, 0);
  EXPECT_TRUE(g.IsConnected());
  EXPECT_TRUE(LabeledGraph().IsConnected());
}

TEST(LabeledGraphTest, AppendDisjoint) {
  LabeledGraph g = Triangle(1, 2, 3, 0);
  LabeledGraph h = Triangle(4, 5, 6, 1);
  NodeId offset = g.AppendDisjoint(h);
  EXPECT_EQ(offset, 3u);
  EXPECT_EQ(g.num_nodes(), 6u);
  EXPECT_EQ(g.num_edges(), 6u);
  EXPECT_FALSE(g.IsConnected());
}

TEST(LabeledGraphTest, MakePathGraph) {
  LabeledGraph g = MakePathGraph({1, 2, 3}, {7, 8});
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_TRUE(g.HasEdge(0, 1, 7));
  EXPECT_TRUE(g.HasEdge(1, 2, 8));
}

// --- Canonical codes -----------------------------------------------------------

TEST(CanonicalTest, IsomorphicGraphsShareCode) {
  Rng rng(17);
  LabeledGraph g = Triangle(1, 2, 3, 5);
  for (int trial = 0; trial < 20; ++trial) {
    LabeledGraph h = Permuted(g, &rng);
    EXPECT_EQ(CanonicalCode(g), CanonicalCode(h));
  }
}

TEST(CanonicalTest, DifferentNodeLabelsDiffer) {
  EXPECT_NE(CanonicalCode(Triangle(1, 2, 3, 5)),
            CanonicalCode(Triangle(1, 2, 4, 5)));
}

TEST(CanonicalTest, DifferentEdgeLabelsDiffer) {
  EXPECT_NE(CanonicalCode(Triangle(1, 2, 3, 5)),
            CanonicalCode(Triangle(1, 2, 3, 6)));
}

TEST(CanonicalTest, PathVsStarDiffer) {
  // Same label multiset, different structure.
  LabeledGraph path = MakePathGraph({1, 1, 1, 1}, {0, 0, 0});
  LabeledGraph star;
  NodeId hub = star.AddNode(1);
  for (int i = 0; i < 3; ++i) {
    NodeId leaf = star.AddNode(1);
    star.AddEdge(hub, leaf, 0);
  }
  EXPECT_NE(CanonicalCode(path), CanonicalCode(star));
}

TEST(CanonicalTest, PathDirectionInvariant) {
  LabeledGraph fwd = MakePathGraph({1, 2, 3}, {7, 8});
  LabeledGraph bwd = MakePathGraph({3, 2, 1}, {8, 7});
  EXPECT_EQ(CanonicalCode(fwd), CanonicalCode(bwd));
}

TEST(CanonicalTest, EmptyAndSingletonGraphs) {
  LabeledGraph empty;
  LabeledGraph single;
  single.AddNode(4);
  EXPECT_NE(CanonicalCode(empty), CanonicalCode(single));
  EXPECT_EQ(CanonicalCode(empty), CanonicalCode(LabeledGraph()));
}

TEST(CanonicalTest, CanonicalFormIsIdempotent) {
  Rng rng(3);
  LabeledGraph g = RandomGraph(&rng, 6, 9, 2, 2);
  LabeledGraph c1 = CanonicalForm(g);
  LabeledGraph c2 = CanonicalForm(c1);
  EXPECT_EQ(CanonicalCode(c1), CanonicalCode(c2));
  EXPECT_EQ(c1.node_labels(), c2.node_labels());
}

TEST(CanonicalTest, ParallelEdgeMultisetPreserved) {
  // Two parallel edges with different labels vs a single edge.
  LabeledGraph two;
  NodeId a = two.AddNode(1);
  NodeId b = two.AddNode(2);
  two.AddEdge(a, b, 0);
  two.AddEdge(a, b, 1);
  LabeledGraph one;
  a = one.AddNode(1);
  b = one.AddNode(2);
  one.AddEdge(a, b, 0);
  EXPECT_NE(CanonicalCode(two), CanonicalCode(one));
}

TEST(CanonicalTest, AgreesWithVf2OnRandomGraphs) {
  Rng rng(29);
  for (int trial = 0; trial < 120; ++trial) {
    LabeledGraph g = RandomGraph(&rng, 2 + rng.NextBounded(5),
                                 rng.NextBounded(8), 2, 2);
    LabeledGraph h = RandomGraph(&rng, 2 + rng.NextBounded(5),
                                 rng.NextBounded(8), 2, 2);
    g.DedupeParallelEdges();
    h.DedupeParallelEdges();
    bool same_code = CanonicalCode(g) == CanonicalCode(h);
    bool iso = IsIsomorphic(g, h);
    EXPECT_EQ(same_code, iso)
        << "disagreement: g=" << g.ToString() << " h=" << h.ToString();
  }
}

TEST(CanonicalTest, SymmetricGraphWithinBudget) {
  // A 8-node cycle of identical labels: highly symmetric but fine.
  LabeledGraph g;
  for (int i = 0; i < 8; ++i) g.AddNode(1);
  for (int i = 0; i < 8; ++i) {
    g.AddEdge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % 8), 0);
  }
  Rng rng(5);
  LabeledGraph h = Permuted(g, &rng);
  EXPECT_EQ(CanonicalCode(g), CanonicalCode(h));
}

/// Edges as comparable (u, v, label) triples.
std::vector<std::tuple<NodeId, NodeId, uint32_t>> EdgeTriples(
    const LabeledGraph& g) {
  std::vector<std::tuple<NodeId, NodeId, uint32_t>> out;
  for (const LabeledGraph::Edge& e : g.edges()) {
    out.emplace_back(e.u, e.v, e.label);
  }
  return out;
}

TEST(CanonicalTest, CanonicalizeEqualsCodeAndFormOverRelabelings) {
  // The random graphs and relabelings of property_test's CanonicalSweep.
  for (uint64_t seed : {11, 22, 33, 44}) {
    Rng rng(seed);
    for (int trial = 0; trial < 60; ++trial) {
      size_t n = 2 + rng.NextBounded(7);
      LabeledGraph g;
      for (size_t i = 0; i < n; ++i) {
        g.AddNode(static_cast<uint32_t>(rng.NextBounded(3)));
      }
      size_t m = rng.NextBounded(2 * n);
      for (size_t i = 0; i < m; ++i) {
        auto u = static_cast<NodeId>(rng.NextBounded(n));
        auto v = static_cast<NodeId>(rng.NextBounded(n));
        if (u == v) continue;
        g.AddEdge(u, v, static_cast<uint32_t>(rng.NextBounded(3)));
      }
      g.DedupeParallelEdges();
      std::vector<NodeId> perm(n);
      for (size_t i = 0; i < n; ++i) perm[i] = static_cast<NodeId>(i);
      rng.Shuffle(&perm);
      std::vector<uint32_t> labels(n);
      for (size_t i = 0; i < n; ++i) {
        labels[perm[i]] = g.node_label(static_cast<NodeId>(i));
      }
      LabeledGraph h;
      for (uint32_t l : labels) h.AddNode(l);
      for (const auto& e : g.edges()) h.AddEdge(perm[e.u], perm[e.v], e.label);

      for (const LabeledGraph* x : {&g, &h}) {
        const Canonical canonical = Canonicalize(*x);
        const LabeledGraph form = CanonicalForm(*x);
        EXPECT_EQ(canonical.code, CanonicalCode(*x)) << "seed " << seed;
        EXPECT_EQ(canonical.form.node_labels(), form.node_labels());
        EXPECT_EQ(EdgeTriples(canonical.form), EdgeTriples(form));
      }
      EXPECT_EQ(Canonicalize(g).code, Canonicalize(h).code);
      EXPECT_EQ(EdgeTriples(Canonicalize(g).form),
                EdgeTriples(Canonicalize(h).form));
    }
  }
}

TEST(CanonicalTest, CodeDigestIsShortHex) {
  std::string digest = CodeDigest(CanonicalCode(Triangle(1, 2, 3, 0)));
  EXPECT_EQ(digest.size(), 16u);
}

// --- VF2 ----------------------------------------------------------------------

TEST(IsomorphismTest, SubgraphInTriangle) {
  LabeledGraph tri = Triangle(1, 2, 3, 5);
  LabeledGraph edge;
  NodeId a = edge.AddNode(1);
  NodeId b = edge.AddNode(2);
  edge.AddEdge(a, b, 5);
  EXPECT_TRUE(IsSubgraphIsomorphic(edge, tri));
  EXPECT_FALSE(IsSubgraphIsomorphic(tri, edge));
}

TEST(IsomorphismTest, LabelMismatchFails) {
  LabeledGraph tri = Triangle(1, 2, 3, 5);
  LabeledGraph edge;
  NodeId a = edge.AddNode(1);
  NodeId b = edge.AddNode(2);
  edge.AddEdge(a, b, 6);  // Wrong edge label.
  EXPECT_FALSE(IsSubgraphIsomorphic(edge, tri));
}

TEST(IsomorphismTest, FindsWitnessMapping) {
  LabeledGraph tri = Triangle(1, 2, 3, 5);
  LabeledGraph edge;
  NodeId a = edge.AddNode(3);
  NodeId b = edge.AddNode(2);
  edge.AddEdge(a, b, 5);
  auto mapping = FindSubgraphIsomorphism(edge, tri);
  ASSERT_TRUE(mapping.has_value());
  EXPECT_EQ(tri.node_label((*mapping)[0]), 3u);
  EXPECT_EQ(tri.node_label((*mapping)[1]), 2u);
}

TEST(IsomorphismTest, DisconnectedPatternSupported) {
  LabeledGraph target = Triangle(1, 1, 1, 0);
  LabeledGraph pattern;
  pattern.AddNode(1);
  pattern.AddNode(1);
  EXPECT_TRUE(IsSubgraphIsomorphic(pattern, target));
  pattern.AddNode(1);
  pattern.AddNode(1);  // Four nodes cannot inject into three.
  EXPECT_FALSE(IsSubgraphIsomorphic(pattern, target));
}

TEST(IsomorphismTest, IsIsomorphicRequiresEqualSize) {
  LabeledGraph a = Triangle(1, 1, 1, 0);
  LabeledGraph b = Triangle(1, 1, 1, 0);
  EXPECT_TRUE(IsIsomorphic(a, b));
  b.AddNode(1);
  EXPECT_FALSE(IsIsomorphic(a, b));
}

}  // namespace
}  // namespace graph
}  // namespace tsb
