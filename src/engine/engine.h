#ifndef TSB_ENGINE_ENGINE_H_
#define TSB_ENGINE_ENGINE_H_

#include <memory>
#include <mutex>
#include <optional>
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
namespace exec {
class OutputSchema;
}  // namespace exec
namespace engine {

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

  /// Column offsets of the ET group-source schema ("TI.TID", "TI.SCORE"),
  /// resolved once per store epoch instead of per query construction (the
  /// schema layout is fixed by BuildEtPlan, so every query of an epoch
  /// shares them). Thread-safe; racing resolutions compute identical
  /// values.
  struct EtOffsets {
    size_t tid_col = 0;
    size_t score_col = 0;
  };
  EtOffsets ResolveEtOffsets(const exec::OutputSchema& schema) const;

  /// Test hook: (epoch, offsets) currently cached, if any.
  std::optional<std::pair<uint64_t, EtOffsets>> CachedEtOffsetsForTest() const;

 private:
  friend struct MethodContext;

  /// Immutable per-epoch serving state: the store snapshot plus the score
  /// model bound to its catalog. Queries pin one snapshot for their whole
  /// execution.
  struct ServingSnapshot {
    uint64_t epoch;
    std::shared_ptr<core::TopologyStore> store;
    core::ScoreModel scores;
  };
  std::shared_ptr<const ServingSnapshot> AcquireSnapshot() const;

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

  /// Exception-pair sets per pruned TID, keyed by (ExcpTops table name,
  /// tid) — table names are epoch-unique, so entries never alias across
  /// store swaps. Guarded by excp_mu_; references handed out stay valid
  /// because unordered_map never relocates mapped values.
  using PairSet =
      std::unordered_set<std::pair<int64_t, int64_t>, PairHash>;
  mutable std::mutex excp_mu_;
  mutable std::unordered_map<std::string, PairSet> excp_cache_;

  const PairSet& ExcpPairs(const core::PairTopologyData& pair,
                           core::Tid tid) const;

  /// Weak-topology sets per pair (Section 6.2.3 domain pruning), keyed by
  /// the epoch-unique AllTops table name. Guarded by weak_mu_ under the
  /// same stable-reference argument. Entries of retired epochs linger
  /// until engine destruction (bounded by rebuild count).
  mutable std::mutex weak_mu_;
  mutable std::unordered_map<std::string, std::unordered_set<core::Tid>>
      weak_cache_;
  const std::unordered_set<core::Tid>& WeakTids(
      const core::TopologyCatalog& catalog,
      const core::PairTopologyData& pair) const;

  /// ET group-source offsets for the current epoch (see ResolveEtOffsets).
  mutable std::mutex et_offsets_mu_;
  mutable std::optional<std::pair<uint64_t, EtOffsets>> et_offsets_;
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
