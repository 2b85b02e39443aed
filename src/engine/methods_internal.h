#ifndef TSB_ENGINE_METHODS_INTERNAL_H_
#define TSB_ENGINE_METHODS_INTERNAL_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/pair_topologies.h"
#include "engine/engine.h"
#include "engine/query.h"
#include "exec/dgj.h"

namespace tsb {
namespace engine {

/// Shared state and primitives for the method implementations. One context
/// is created per Execute() call.
struct MethodContext {
  /// The store epoch this query runs on, pinned for its whole execution.
  std::shared_ptr<const Engine::ServingSnapshot> snapshot;
  storage::Catalog* db = nullptr;
  core::TopologyStore* store = nullptr;
  const graph::SchemaGraph* schema = nullptr;
  const graph::DataGraphView* view = nullptr;
  const core::ScoreModel* scores = nullptr;
  const SqlBaselineOptions* sql_options = nullptr;
  ResolvedQuery rq;
  ExecOptions options;
  ExecStats stats;
  /// Set when any scan of this query ran on the columnar block path;
  /// Execute() annotates the plan string with it.
  bool used_columnar = false;
  /// Non-null when the query excludes weak topologies (Section 6.2.3).
  const std::unordered_set<core::Tid>* weak_tids = nullptr;

  bool Excluded(core::Tid tid) const {
    return weak_tids != nullptr && weak_tids->count(tid) > 0;
  }

  /// Each side's predicate verdict, one byte per entity-table row (1 = the
  /// row qualifies). Evaluated once per query, on first use, and shared by
  /// every consumer of that side: SelectedA/B, the columnar scan, the DGJ
  /// levels of the ET plans and the -Opt selectivity estimate. This is the
  /// only place a plan evaluates a predicate. The evaluation charges the
  /// table's rows to rows_scanned; reading the mask again charges nothing.
  const std::vector<uint8_t>& MaskA();
  const std::vector<uint8_t>& MaskB();

  /// Entities of one side satisfying its predicate.
  struct Selected {
    std::vector<int64_t> ids;
    std::unordered_set<int64_t> set;
  };
  /// Lazily gathered from the side's mask.
  const Selected& SelectedA();
  const Selected& SelectedB();

  /// True when a stored (E1, E2) row's endpoints satisfy the query's
  /// predicates: E1 and E2 mapped onto the query's sides, or for a self
  /// pair either orientation.
  bool RowQualifies(int64_t e1, int64_t e2);

  double ScoreOf(core::Tid tid) const;
  /// The global result order: (score desc, tid asc).
  static bool RanksBefore(const ResultEntry& x, const ResultEntry& y);
  /// Attaches scores to tids and sorts them into the result order.
  std::vector<ResultEntry> RankTids(const std::vector<core::Tid>& tids) const;

  /// Distinct TIDs (ascending) of `tops_table` rows whose (E1, E2)
  /// endpoints satisfy the query predicates. The columnar block walk when
  /// the snapshot carries a slice for the table; otherwise the Figure-14
  /// shape as one loop for every pair kind: the selected id sets are the
  /// build sides, the tops rows the probe (RowQualifies), DISTINCT on TID.
  std::vector<core::Tid> JoinTops(const std::string& tops_table);

  /// The online existence check for a pruned topology (the lower
  /// sub-queries of SQL1): does some selected pair satisfy the pruned
  /// path condition without appearing in ExcpTops?
  bool OnlineCheckPruned(core::Tid tid);

  /// Builds the Figure-15 DGJ plan over `tops_table` with the given ranked
  /// group source; returns the grouped root. The group source lays out
  /// TI.TID and TI.SCORE as columns 0 and 1, and each join level only
  /// appends its table's columns, so every output tuple keeps them there.
  std::unique_ptr<exec::GroupedOperator> BuildEtPlan(
      const std::string& tops_table,
      const std::vector<ResultEntry>& ranked_groups);

  /// Normalized (E1, E2) key for exception lookups.
  std::pair<int64_t, int64_t> NormalizedPair(int64_t a_side,
                                             int64_t b_side) const;

 private:
  const std::vector<uint8_t>& Mask(bool side_a);
  const Selected& Select(bool side_a);

  std::optional<std::vector<uint8_t>> mask_a_;
  std::optional<std::vector<uint8_t>> mask_b_;
  std::optional<Selected> selected_a_;
  std::optional<Selected> selected_b_;
};

/// Method implementations (methods_basic.cc / methods_topk.cc).
QueryResult RunSql(MethodContext* ctx);
QueryResult RunFullTop(MethodContext* ctx);
QueryResult RunFastTop(MethodContext* ctx);
QueryResult RunFullTopK(MethodContext* ctx);
QueryResult RunFastTopK(MethodContext* ctx);
QueryResult RunFullTopKEt(MethodContext* ctx);
QueryResult RunFastTopKEt(MethodContext* ctx);
QueryResult RunFullTopKOpt(MethodContext* ctx);
QueryResult RunFastTopKOpt(MethodContext* ctx);

}  // namespace engine
}  // namespace tsb

#endif  // TSB_ENGINE_METHODS_INTERNAL_H_
