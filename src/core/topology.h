#ifndef TSB_CORE_TOPOLOGY_H_
#define TSB_CORE_TOPOLOGY_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/labeled_graph.h"
#include "graph/schema_graph.h"

namespace tsb {
namespace core {

/// Topology identifier (the TID of the paper's TopInfo / AllTops tables).
using Tid = int64_t;
constexpr Tid kNoTid = -1;

/// Everything known about one topology: its canonical schema-level graph
/// and derived structural facts. Topologies are identified purely by the
/// isomorphism class of their graph (Definition 2 uses [G] with no marked
/// terminals), so the canonical code is the identity.
struct TopologyInfo {
  Tid tid = kNoTid;
  graph::LabeledGraph graph;  // Canonical form.
  std::string code;           // CanonicalCode(graph).
  size_t num_classes = 0;     // Path classes unioned when first observed.
  bool is_path = false;       // Path-shaped (only these are prunable).
  /// Path-class keys of the union that first produced this topology. The
  /// SQL baseline anchors its per-topology existence query on one of these
  /// (the structure-specific join the paper issues per candidate).
  ///
  /// Unlike every other field, class_keys keeps accumulating after
  /// publication (the same topology can arise from different class sets).
  /// Concurrent readers must go through TopologyCatalog::ClassKeysOf; the
  /// reference returned by Get only covers the immutable fields.
  std::vector<std::string> class_keys;
};

/// True if `g` is a connected simple path: exactly two endpoints of degree
/// 1, all other nodes of degree 2, and no cycles.
bool IsPathShaped(const graph::LabeledGraph& g);

/// For a path-shaped graph, recovers the schema path (in the canonical
/// class direction). Returns nullopt for non-paths or when an edge label is
/// not consistent with the schema's endpoint types.
std::optional<graph::SchemaPath> ExtractSchemaPath(
    const graph::LabeledGraph& g, const graph::SchemaGraph& schema);

/// Interns topologies by canonical code and assigns stable TIDs (dense,
/// starting at 1). The in-memory backing of the paper's TopInfo table.
///
/// Thread safety: Intern/InternWithCode/FindByCode/Get/size/ClassKeysOf/
/// Describe are safe to call concurrently from any mix of threads (the
/// intern map is mutex-guarded and entries live in a deque, so published
/// TopologyInfo references never relocate). This is what lets 3-queries
/// intern new topologies while 2-query readers traverse the catalog, and
/// lets the parallel build commit without quiescing the service. infos()
/// is the one exception: it exposes the underlying container for offline
/// iteration (export, persistence) and must not race with interning.
class TopologyCatalog {
 public:
  /// Returns the TID for `g`, interning it if unseen. `num_classes` records
  /// how many path equivalence classes were unioned (kept from the first
  /// observation).
  Tid Intern(const graph::LabeledGraph& g, size_t num_classes);

  /// Interning by precomputed code; `g` must be the canonical form of that
  /// code (graph::Canonicalize), and is stored as given, so interning runs
  /// no canonical search. `class_keys` (optional) records the constituent
  /// path classes of the first observation; on re-observation, unseen keys
  /// are appended in order.
  Tid InternWithCode(const graph::LabeledGraph& g, std::string code,
                     size_t num_classes,
                     std::vector<std::string> class_keys = {});

  std::optional<Tid> FindByCode(const std::string& code) const;

  /// The reference stays valid for the catalog's lifetime; its immutable
  /// fields (tid, graph, code, num_classes, is_path) may be read without
  /// synchronization. For class_keys use ClassKeysOf.
  const TopologyInfo& Get(Tid tid) const;

  /// Snapshot copy of the (concurrently growing) class-key list of `tid`.
  std::vector<std::string> ClassKeysOf(Tid tid) const;

  size_t size() const;

  /// Offline-only iteration (see class comment).
  const std::deque<TopologyInfo>& infos() const { return infos_; }

  /// Human-readable structure, e.g. "[P]-(encodes)-[D], [P]-(uni_encodes)-[U]".
  std::string Describe(Tid tid, const graph::SchemaGraph& schema) const;

 private:
  const TopologyInfo& GetLocked(Tid tid) const;

  /// Guards by_code_, growth of infos_, and every class_keys vector.
  mutable std::shared_mutex mu_;
  /// Deque, not vector: published entries must not relocate while readers
  /// hold references across interning.
  std::deque<TopologyInfo> infos_;
  std::unordered_map<std::string, Tid> by_code_;
};

}  // namespace core
}  // namespace tsb

#endif  // TSB_CORE_TOPOLOGY_H_
