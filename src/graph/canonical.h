#ifndef TSB_GRAPH_CANONICAL_H_
#define TSB_GRAPH_CANONICAL_H_

#include <string>

#include "graph/labeled_graph.h"

namespace tsb {
namespace graph {

/// Computes a canonical byte string for a labeled multigraph: two graphs get
/// the same code iff they are isomorphic under the paper's Section-2.1
/// definition (label-preserving node bijection inducing a label-preserving
/// edge bijection).
///
/// Topology identity everywhere in the library is "equal canonical code";
/// the independent VF2 matcher in isomorphism.h cross-checks this in tests.
///
/// Implementation: iterative equitable-partition refinement (Weisfeiler–
/// Leman style with edge labels) followed by exhaustive permutation search
/// within the remaining color cells, keeping the lexicographically smallest
/// serialization. Exact, and fast for the <= ~12-node graphs topologies
/// produce; aborts loudly if a pathological graph exceeds the search budget.
///
/// Cost: every call runs the refinement and the search afresh, serializing
/// the graph once per ordering consistent with the color cells (the product
/// of the cell-size factorials). Nothing is cached across calls, so the
/// offline builder canonicalizes once per distinct union shape of a pair
/// (see core::SourceMemo), not once per union.
std::string CanonicalCode(const LabeledGraph& g);

/// A graph's canonical code together with its canonical form.
struct Canonical {
  std::string code;
  LabeledGraph form;
};

/// CanonicalCode(g) and CanonicalForm(g) from a single search; callers that
/// need both pay for one canonicalization, not two.
Canonical Canonicalize(const LabeledGraph& g);

/// Rebuilds the graph with nodes in canonical order and edges sorted; two
/// isomorphic graphs produce structurally identical canonical forms.
LabeledGraph CanonicalForm(const LabeledGraph& g);

/// Short printable digest of a canonical code (for logs and TopInfo rows).
std::string CodeDigest(const std::string& code);

}  // namespace graph
}  // namespace tsb

#endif  // TSB_GRAPH_CANONICAL_H_
