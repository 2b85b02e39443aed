#ifndef TSB_ENGINE_ENGINE_H_
#define TSB_ENGINE_ENGINE_H_

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "core/instance_retrieval.h"
#include "core/scorer.h"
#include "core/store.h"
#include "engine/query.h"
#include "graph/data_graph.h"
#include "graph/schema_graph.h"
#include "storage/catalog.h"

namespace tsb {
namespace engine {

struct MethodContext;

/// Configuration of the SQL baseline (Section 3.1). The baseline issues one
/// existence query per candidate topology; candidates are the observed
/// topology catalog (the paper's "restrict to topologies that have at least
/// some corresponding entities using some a-priori knowledge", close to 200
/// on Biozon) because unconstrained schema enumeration yields tens of
/// thousands of candidates (the 88453 of Section 3.1; see
/// graph::EnumerateCandidateTopologies and bench_fig8_schema_enum for that
/// explosion).
struct SqlBaselineOptions {
  size_t max_candidates = 100000;
};

/// The Topology Query Engine of Figure 10: evaluates 2-queries over the
/// precomputed topology artifacts (or, for the SQL baseline, over base data
/// alone) with any of the nine strategies of Section 6.
class Engine {
 public:
  /// Single-epoch construction over a caller-owned store (the store must
  /// outlive the engine). Equivalent to wrapping `store` in a StoreHandle
  /// that is never swapped.
  Engine(storage::Catalog* db, core::TopologyStore* store,
         const graph::SchemaGraph* schema, const graph::DataGraphView* view,
         core::ScoreModel score_model,
         SqlBaselineOptions sql_options = SqlBaselineOptions{});

  /// Epoch-aware construction: every Execute acquires the handle's current
  /// store snapshot, so a rebuild can StoreHandle::Swap a fresh store in
  /// behind live queries. In-flight queries finish on the snapshot they
  /// started with; the per-epoch score model is rebuilt lazily on the
  /// first query that observes the new epoch.
  Engine(storage::Catalog* db, std::shared_ptr<core::StoreHandle> store,
         const graph::SchemaGraph* schema, const graph::DataGraphView* view,
         core::ScoreModel score_model,
         SqlBaselineOptions sql_options = SqlBaselineOptions{});

  /// Evaluates `query` with `method`. All methods return identical result
  /// *sets* (top-k methods return the k best by score).
  ///
  /// Thread safety: Execute is safe to call from many threads at once and
  /// runs entirely against one store snapshot; store swaps through the
  /// StoreHandle and catalog interning by concurrent 3-queries are safe.
  /// Only dropping tables of the epoch a query runs on is not — the
  /// retired-store cleanup hook takes care of that ordering.
  Result<QueryResult> Execute(const TopologyQuery& query, MethodKind method,
                              const ExecOptions& options = ExecOptions{}) const;

  /// Builds the hash indexes the plans use (warm cache, as in the paper's
  /// experimental setup), so timed runs do not pay index construction.
  void PrepareIndexes(const std::string& entity_set1,
                      const std::string& entity_set2) const;

  /// Instance-level results for one topology of a query (the paper's
  /// Section-2.2 output format: topologies first, then the concrete
  /// biological systems adhering to each). Only pairs whose endpoints
  /// satisfy the query's predicates are materialized.
  Result<std::vector<core::TopologyInstance>> Instances(
      const TopologyQuery& query, core::Tid tid,
      const core::RetrievalLimits& limits = core::RetrievalLimits{}) const;

  /// The handle every query reads through; the service swaps rebuilt
  /// stores via this handle so engine and service stay in lockstep.
  const std::shared_ptr<core::StoreHandle>& store_handle() const {
    return store_handle_;
  }

  /// True when the engine was constructed over a shared_ptr StoreHandle
  /// (heap-owned stores). False for the legacy raw-pointer constructor,
  /// whose non-owning wrapper cannot honor the retired-epoch cleanup
  /// contract — the service refuses live rebuilds on such engines.
  bool store_is_swappable() const { return swappable_store_; }

  const core::DomainKnowledge& knowledge() const { return knowledge_; }
  const graph::SchemaGraph* schema() const { return schema_; }
  const graph::DataGraphView* view() const { return view_; }

  /// Test hook: entries in the lazily built exception-pair and
  /// weak-topology sets of the serving snapshot the engine holds.
  size_t CachedSetsForTest() const;

 private:
  friend struct MethodContext;

  using PairSet =
      std::unordered_set<std::pair<int64_t, int64_t>, PairHash>;

  /// Per-epoch serving state: the store snapshot, the score model bound to
  /// its catalog, and the sets queries derive from that store on first
  /// use. Queries pin one snapshot for their whole execution; the derived
  /// sets retire with it.
  class ServingSnapshot {
   public:
    ServingSnapshot(uint64_t epoch, std::shared_ptr<core::TopologyStore> store,
                    core::ScoreModel scores);

    /// The (E1, E2) rows ExcpTops holds for one pruned TID.
    const PairSet& ExcpPairs(const storage::Catalog& db,
                             const core::PairTopologyData& pair,
                             core::Tid tid) const;
    /// The pair's weak topologies (Section 6.2.3 domain pruning).
    const std::unordered_set<core::Tid>& WeakTids(
        const core::PairTopologyData& pair) const;
    size_t CachedSets() const;

    const uint64_t epoch;
    const std::shared_ptr<core::TopologyStore> store;
    const core::ScoreModel scores;

   private:
    /// Keyed by the pair's ExcpTops name and TID, and by its AllTops name.
    /// Guarded by mu_; references handed out stay valid because
    /// unordered_map never relocates mapped values.
    mutable std::mutex mu_;
    mutable std::unordered_map<std::string, PairSet> excp_;
    mutable std::unordered_map<std::string, std::unordered_set<core::Tid>>
        weak_;
  };
  std::shared_ptr<const ServingSnapshot> AcquireSnapshot() const;

  /// Resolves `query` against `snapshot` into a fresh per-query context.
  Status BindContext(const TopologyQuery& query,
                     std::shared_ptr<const ServingSnapshot> snapshot,
                     MethodContext* ctx) const;

  storage::Catalog* db_;
  std::shared_ptr<core::StoreHandle> store_handle_;
  const graph::SchemaGraph* schema_;
  const graph::DataGraphView* view_;
  core::DomainKnowledge knowledge_;
  SqlBaselineOptions sql_options_;
  bool swappable_store_ = true;

  /// Cached snapshot for the current epoch, rebuilt lazily after a swap.
  mutable std::shared_mutex snapshot_mu_;
  mutable std::shared_ptr<const ServingSnapshot> snapshot_;
};

/// Internal: a query resolved against the catalog and topology store.
/// Shared by the method implementations (methods_basic.cc / methods_topk.cc).
struct ResolvedQuery {
  const core::PairTopologyData* pair = nullptr;
  const storage::Table* table_a = nullptr;  // Query's entity_set1.
  const storage::Table* table_b = nullptr;
  storage::PredicateRef pred_a;
  storage::PredicateRef pred_b;
  storage::EntityTypeId type_a = 0;
  storage::EntityTypeId type_b = 0;
  /// True if entity_set1 maps to the pair's E2 column.
  bool swapped = false;
  bool self_pair = false;
  core::RankScheme scheme = core::RankScheme::kFreq;
  size_t k = 10;
};

}  // namespace engine
}  // namespace tsb

#endif  // TSB_ENGINE_ENGINE_H_
