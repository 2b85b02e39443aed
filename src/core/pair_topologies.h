#ifndef TSB_CORE_PAIR_TOPOLOGIES_H_
#define TSB_CORE_PAIR_TOPOLOGIES_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "graph/data_graph.h"
#include "graph/path_enum.h"
#include "graph/schema_graph.h"

namespace tsb {
namespace core {

/// A topology computed for a concrete pair of entities, together with one
/// witness (the instance-level union subgraph that produced it).
struct ComputedTopology {
  std::string code;                  // Canonical code (schema level).
  graph::LabeledGraph graph;         // Canonical schema-level form.
  graph::LabeledGraph witness;       // Instance graph (node labels = types).
  std::vector<graph::EntityId> witness_ids;  // Node index -> entity id.
  size_t num_classes = 0;            // s = |l-PathEC(a, b)|.
  std::vector<std::string> class_keys;       // Constituent path classes.
};

/// Resource limits for the union-combination enumeration. Definition 2
/// unions one representative per path class over *all* choices of
/// representatives; weak relationships can have thousands of instances per
/// class (Section 6.2.3), so production builds cap both the representatives
/// retained per class and the total combinations explored.
struct UnionLimits {
  size_t max_class_representatives = 32;
  size_t max_union_combinations = 4096;
};

/// The union graph of one choice of representatives: the chosen paths'
/// nodes in first-visit order and their edges, parallel duplicates removed.
struct UnionGraph {
  graph::LabeledGraph graph;              // Node labels = entity types.
  std::vector<graph::EntityId> node_ids;  // Node index -> entity id.
};

/// The mixed-radix odometer of Definition 2 over one representative per
/// class (classes given as non-empty representative lists). Calls `visit`
/// with the union graph of each combination in enumeration order, at most
/// `max_union_combinations` times, and sets `*truncated` if that cap cut
/// the enumeration short. With a single class every choice yields the same
/// (path) topology, so only the first is visited. `visit` may move out of
/// the graph it is handed.
void ForEachUnion(
    const graph::DataGraphView& view,
    const std::vector<std::vector<graph::PathInstance>>& class_reps,
    const UnionLimits& limits, bool* truncated,
    const std::function<void(UnionGraph&)>& visit);

/// Everything the library can say about one entity pair: its path classes
/// and its topology set. This is the pair-at-a-time (online) evaluation
/// path, used by the SQL baseline, topology verification, and instance
/// retrieval; the offline TopologyBuilder computes the same result in bulk.
struct PairComputation {
  /// Class key -> representatives (capped).
  std::map<std::string, std::vector<graph::PathInstance>> classes;
  std::vector<ComputedTopology> topologies;
  bool truncated = false;
};

struct PairComputeLimits {
  size_t max_path_length = 3;  // l
  size_t path_cap = SIZE_MAX;  // Cap on enumerated paths for the pair.
  UnionLimits union_limits;
};

/// Computes l-PathEC(a, b) and l-Top(a, b) from scratch (Definitions 1-3).
PairComputation ComputePairTopologies(const graph::DataGraphView& view,
                                      const graph::SchemaGraph& schema,
                                      graph::EntityId a, graph::EntityId b,
                                      const PairComputeLimits& limits);

/// All simple paths of length <= l from one source entity to entities of
/// `partner_type`, grouped by destination and path class. This is the unit
/// of work of the offline Topology Computation sweep (Section 4.1); the SQL
/// baseline reuses it verbatim so that online checks replay exactly the
/// offline semantics (including caps).
struct SourceSweep {
  /// destination -> class key -> representatives (capped).
  std::map<graph::EntityId,
           std::map<std::string, std::vector<graph::PathInstance>>>
      by_dest;
  bool source_truncated = false;  // max_paths_per_source fired.
  bool reps_truncated = false;    // max_class_representatives fired.
};

struct SweepLimits {
  size_t max_path_length = 3;
  size_t max_class_representatives = 32;
  size_t max_paths_per_source = SIZE_MAX;
};

/// When `self_pair` is true only destinations with id > a are recorded
/// (each unordered pair is swept exactly once, from its smaller endpoint).
SourceSweep SweepFromSource(const graph::DataGraphView& view,
                            const graph::SchemaGraph& schema,
                            graph::EntityId a,
                            storage::EntityTypeId partner_type,
                            bool self_pair, const SweepLimits& limits);

}  // namespace core
}  // namespace tsb

#endif  // TSB_CORE_PAIR_TOPOLOGIES_H_
