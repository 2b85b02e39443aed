// Top-k strategies: Fast-Top-k (Section 5.1), the early-termination DGJ
// variants (Section 5.3), and the cost-based -Opt variants (Section 5.4).

#include <algorithm>
#include <memory>

#include "common/logging.h"
#include "common/str_util.h"
#include "engine/columnar_scan.h"
#include "engine/methods_internal.h"
#include "optimizer/cost_model.h"
#include "optimizer/join_enum.h"
#include "optimizer/stats.h"

namespace tsb {
namespace engine {
namespace {

/// Ranked candidates for a tops table: all observed TIDs for AllTops-based
/// methods, unpruned TIDs for LeftTops-based ones.
std::vector<ResultEntry> RankedCandidates(MethodContext* ctx, bool unpruned) {
  std::vector<core::Tid> tids =
      unpruned ? ctx->rq.pair->UnprunedTids() : ctx->rq.pair->ObservedTids();
  return ctx->RankTids(tids);
}

/// The qualified, non-excluded groups of one tops table (LeftTops for the
/// Fast methods, AllTops otherwise) in result order, pulled one at a time
/// so a top-k consumer stops early. Three forms enumerate the identical
/// sequence:
///  - the columnar block cursor, when the serving snapshot carries a slice
///    for the table;
///  - the DGJ driver over the Figure-15 plan, for the ET methods on the
///    row path;
///  - the materialized RankTids(JoinTops(...)) ranking, for the regular
///    methods on the row path.
class RankedSource {
 public:
  RankedSource(MethodContext* ctx, bool fast, bool et) {
    const core::PairTopologyData& pair = *ctx->rq.pair;
    const std::string& tops = fast ? pair.lefttops_table : pair.alltops_table;
    // An explicit DGJ algorithm or join-order choice selects a specific row
    // ET plan; taking the columnar cursor would silently ignore it, so
    // honor the request and run the plan it configures.
    const bool default_et_plan =
        ctx->options.dgj_algs.empty() &&
        ctx->options.et_side_order == std::vector<size_t>{0, 1};
    if (!et || default_et_plan) scan_ = ColumnarScan::TryCreate(ctx, tops);
    if (scan_ != nullptr) return;
    if (et) {
      plan_ = ctx->BuildEtPlan(tops, RankedCandidates(ctx, fast));
      plan_->Open();
    } else {
      ranked_ = ctx->RankTids(ctx->JoinTops(tops));
    }
  }

  bool columnar() const { return scan_ != nullptr; }

  std::optional<ResultEntry> Next() {
    if (scan_ != nullptr) return scan_->NextRanked();
    if (plan_ != nullptr) {
      // One qualifying row proves the group; skip the rest of it. TI.TID
      // and TI.SCORE are columns 0 and 1 (see BuildEtPlan).
      exec::Tuple t;
      if (!plan_->Next(&t)) return std::nullopt;
      plan_->AdvanceToNextGroup();
      return ResultEntry{t[0].AsInt64(), t[1].AsDouble()};
    }
    if (next_ < ranked_.size()) return ranked_[next_++];
    return std::nullopt;
  }

  /// Folds the scan's counters into `stats`; once, after the last Next.
  /// The materialized form's join charged them as it ran.
  void FoldCounters(ExecStats* stats) const {
    if (scan_ != nullptr) {
      scan_->FoldCounters(stats);
    } else if (plan_ != nullptr) {
      exec::OpCounters counters = plan_->TreeCounters();
      stats->rows_scanned += counters.rows_scanned;
      stats->probes += counters.probes;
      stats->rows_out += counters.rows_out;
      stats->builds += counters.builds;
    }
  }

 private:
  std::unique_ptr<ColumnarScan> scan_;
  std::unique_ptr<exec::GroupedOperator> plan_;
  std::vector<ResultEntry> ranked_;
  size_t next_ = 0;
};

/// Full-Top-k and Full-Top-k-ET: the first k groups of the source.
std::vector<ResultEntry> FetchK(RankedSource* source, size_t k) {
  std::vector<ResultEntry> out;
  while (out.size() < k) {
    std::optional<ResultEntry> next = source->Next();
    if (!next.has_value()) break;
    out.push_back(*next);
  }
  return out;
}

/// Fast-Top-k and Fast-Top-k-ET (SQL4 + SQL5): the source's unpruned groups
/// merged by score with the pruned candidates, each pruned one admitted
/// only after its online check; stops at k, so only pruned topologies that
/// could still enter the top-k are checked.
std::vector<ResultEntry> MergeWithPruned(MethodContext* ctx,
                                         RankedSource* source) {
  // Under scatter-gather, only the designated shard interleaves pruned
  // candidates (their online checks are shard-independent; see ExecOptions).
  const std::vector<ResultEntry> pruned =
      ctx->options.skip_pruned_checks
          ? std::vector<ResultEntry>{}
          : ctx->RankTids(ctx->rq.pair->pruned_tids);
  std::vector<ResultEntry> out;
  std::optional<ResultEntry> next = source->Next();
  size_t j = 0;
  while (out.size() < ctx->rq.k && (next.has_value() || j < pruned.size())) {
    if (j >= pruned.size() ||
        (next.has_value() && MethodContext::RanksBefore(*next, pruned[j]))) {
      out.push_back(*next);
      next = source->Next();
    } else {
      const ResultEntry candidate = pruned[j++];
      if (ctx->OnlineCheckPruned(candidate.tid)) out.push_back(candidate);
    }
  }
  return out;
}

std::string DgjPlanString(const MethodContext& ctx) {
  std::string out = "TopoInfo(score order)";
  const char* names[2] = {"E1-join", "E2-join"};
  for (size_t level = 0; level < 2; ++level) {
    DgjAlg alg = level < ctx.options.dgj_algs.size()
                     ? ctx.options.dgj_algs[level]
                     : DgjAlg::kIdgj;
    out += StrFormat(" -> %s[%s]",
                     alg == DgjAlg::kIdgj ? "IDGJ" : "HDGJ", names[level]);
  }
  return out;
}

std::string TopKPlanString(const MethodContext& ctx, bool fast, bool et,
                           bool columnar) {
  if (et && columnar) {
    return fast ? "LeftTops block cursor (ET order) -> merge-k + pruned checks"
                : "AllTops block cursor (ET order) -> fetch-k";
  }
  if (et) {
    return DgjPlanString(ctx) +
           (fast ? " over LeftTops + pruned checks" : " over AllTops");
  }
  if (columnar) {
    return fast ? "LeftTops block cursor -> merge-k, + SQL5 checks for pruned"
                : "AllTops block cursor -> ranked walk -> fetch-k";
  }
  return fast ? "LeftTops join -> sort -> fetch-k, + SQL5 checks for pruned"
              : "AllTops join -> sort(score) -> fetch-k";
}

/// The four top-k methods: Full (fetch-k over AllTops) or Fast (merge with
/// the pruned candidates over LeftTops), each as the regular plan or the
/// ET plan of Section 5.3.
QueryResult RunTopK(MethodContext* ctx, bool fast, bool et) {
  if (et && ctx->rq.self_pair) {
    // DGJ plans are built for distinct-type pairs; self pairs need both row
    // orientations and fall back to the sort-based plan.
    QueryResult result = RunTopK(ctx, fast, /*et=*/false);
    result.stats.plan += " (self-pair fallback from ET)";
    return result;
  }
  RankedSource source(ctx, fast, et);
  QueryResult result;
  result.entries =
      fast ? MergeWithPruned(ctx, &source) : FetchK(&source, ctx->rq.k);
  source.FoldCounters(&ctx->stats);
  result.stats = ctx->stats;
  result.stats.plan = TopKPlanString(*ctx, fast, et, source.columnar());
  return result;
}

}  // namespace

QueryResult RunFullTopK(MethodContext* ctx) {
  return RunTopK(ctx, /*fast=*/false, /*et=*/false);
}

QueryResult RunFastTopK(MethodContext* ctx) {
  return RunTopK(ctx, /*fast=*/true, /*et=*/false);
}

QueryResult RunFullTopKEt(MethodContext* ctx) {
  return RunTopK(ctx, /*fast=*/false, /*et=*/true);
}

QueryResult RunFastTopKEt(MethodContext* ctx) {
  return RunTopK(ctx, /*fast=*/true, /*et=*/true);
}

namespace {

/// Cost-based choice between the regular top-k plan and the ET plans
/// (Section 5.4), shared by the two -Opt methods. The System-R-style
/// enumerator explores join orders and operator choices (hash / index-NL /
/// IDGJ / HDGJ); an ET winner is executed with the chosen side order and
/// DGJ algorithms, a regular winner falls back to the sort-based plan.
QueryResult RunOpt(MethodContext* ctx, bool fast) {
  const core::PairTopologyData& pair = *ctx->rq.pair;
  std::vector<ResultEntry> groups = RankedCandidates(ctx, /*unpruned=*/fast);
  const std::string& tops_name =
      fast ? pair.lefttops_table : pair.alltops_table;

  optimizer::QuerySpec spec;
  {
    optimizer::RelationSpec driver;
    driver.name = "TopoInfo";
    driver.cardinality = static_cast<double>(groups.size());
    spec.relations.push_back(driver);

    // ρ from the query's own masks at the estimator's sample rows: the
    // same value the predicate sample gives, and the masks are reused by
    // whichever plan runs.
    const double rho_a = optimizer::EstimateSelectivity(ctx->MaskA());
    const double rho_b = optimizer::EstimateSelectivity(ctx->MaskB());
    // Relation 1 is the E1-side table, relation 2 the E2-side, matching
    // ExecOptions::et_side_order indices.
    optimizer::RelationSpec e1;
    e1.name = ctx->rq.swapped ? ctx->rq.table_b->name()
                              : ctx->rq.table_a->name();
    e1.cardinality = static_cast<double>(
        (ctx->rq.swapped ? ctx->rq.table_b : ctx->rq.table_a)->num_rows());
    e1.predicate_selectivity = ctx->rq.swapped ? rho_b : rho_a;
    spec.relations.push_back(e1);
    optimizer::RelationSpec e2;
    e2.name = ctx->rq.swapped ? ctx->rq.table_a->name()
                              : ctx->rq.table_b->name();
    e2.cardinality = static_cast<double>(
        (ctx->rq.swapped ? ctx->rq.table_a : ctx->rq.table_b)->num_rows());
    e2.predicate_selectivity = ctx->rq.swapped ? rho_a : rho_b;
    spec.relations.push_back(e2);

    spec.joins = {{0, 1}, {0, 2}};
    spec.k = ctx->rq.k;
    spec.group_cards.reserve(groups.size());
    for (const ResultEntry& g : groups) {
      auto it = pair.freq.find(g.tid);
      spec.group_cards.push_back(
          it == pair.freq.end() ? 0.0 : static_cast<double>(it->second));
    }
  }
  // The calibrated regular-plan model: the enumerator's chain model ranks
  // ET plans against each other well, but the regular-vs-ET decision uses
  // the dedicated model (validated against measured crossovers in
  // bench_cost_model).
  optimizer::RegularPlanModel regular;
  regular.grouped_rows =
      static_cast<double>(ctx->db->GetTable(tops_name)->num_rows());
  regular.side_cards = {spec.relations[1].cardinality,
                        spec.relations[2].cardinality};
  regular.num_groups = static_cast<double>(groups.size());
  const double regular_cost = optimizer::ExpectedRegularCost(regular);

  optimizer::PlanChoice choice =
      optimizer::OptimizeJoinOrder(spec, /*require_early_termination=*/true);
  const bool choose_et = !choice.order.empty() &&
                         choice.cost < regular_cost && !ctx->rq.self_pair;

  QueryResult result;
  if (choose_et) {
    // Translate the enumerator's plan into executor options.
    ctx->options.et_side_order.clear();
    ctx->options.dgj_algs.clear();
    for (size_t i = 1; i < choice.order.size(); ++i) {
      ctx->options.et_side_order.push_back(choice.order[i] - 1);
      ctx->options.dgj_algs.push_back(
          choice.algs[i - 1] == optimizer::JoinAlg::kHdgj
              ? DgjAlg::kHdgj
              : DgjAlg::kIdgj);
    }
    result = RunTopK(ctx, fast, /*et=*/true);
    result.stats.plan =
        "choice=ET | " + choice.ToString(spec) + " | " + result.stats.plan;
  } else {
    result = RunTopK(ctx, fast, /*et=*/false);
    result.stats.plan = "choice=regular | " +
                        optimizer::ExplainChoice(choice.cost, regular_cost) +
                        " | " + result.stats.plan;
  }
  return result;
}

}  // namespace

QueryResult RunFullTopKOpt(MethodContext* ctx) {
  return RunOpt(ctx, /*fast=*/false);
}

QueryResult RunFastTopKOpt(MethodContext* ctx) {
  return RunOpt(ctx, /*fast=*/true);
}

}  // namespace engine
}  // namespace tsb
