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

/// Global result order: (score desc, tid asc).
bool Before(const ResultEntry& x, const ResultEntry& y) {
  if (x.score != y.score) return x.score > y.score;
  return x.tid < y.tid;
}

/// Ranked candidates for a tops table: all observed TIDs for AllTops-based
/// methods, unpruned TIDs for LeftTops-based ones.
std::vector<ResultEntry> RankedCandidates(MethodContext* ctx, bool unpruned) {
  std::vector<core::Tid> tids =
      unpruned ? ctx->rq.pair->UnprunedTids() : ctx->rq.pair->ObservedTids();
  return ctx->RankTids(tids);
}

std::vector<ResultEntry> RankedPruned(MethodContext* ctx) {
  // Under scatter-gather, only the designated shard interleaves pruned
  // candidates (their online checks are shard-independent; see ExecOptions).
  if (ctx->options.skip_pruned_checks) return {};
  return ctx->RankTids(ctx->rq.pair->pruned_tids);
}

/// Pull-one-matched-group-at-a-time driver over a DGJ plan.
class EtDriver {
 public:
  EtDriver(MethodContext* ctx, const std::string& tops_table,
           const std::vector<ResultEntry>& groups)
      : plan_(ctx->BuildEtPlan(tops_table, groups)) {
    // Column offsets are cached per store epoch on the engine rather than
    // re-resolved by name for every query construction.
    const Engine::EtOffsets offsets =
        ctx->engine->ResolveEtOffsets(plan_->schema());
    tid_col_ = offsets.tid_col;
    score_col_ = offsets.score_col;
    plan_->Open();
  }

  /// Next topology with at least one qualifying pair, in score order.
  std::optional<ResultEntry> NextMatch() {
    exec::Tuple t;
    if (!plan_->Next(&t)) return std::nullopt;
    ResultEntry entry{t[tid_col_].AsInt64(), t[score_col_].AsDouble()};
    plan_->AdvanceToNextGroup();
    return entry;
  }

  void FoldCounters(ExecStats* stats) const {
    exec::OpCounters counters = plan_->TreeCounters();
    stats->rows_scanned += counters.rows_scanned;
    stats->probes += counters.probes;
    stats->rows_out += counters.rows_out;
    stats->builds += counters.builds;
  }

 private:
  std::unique_ptr<exec::GroupedOperator> plan_;
  size_t tid_col_ = 0;
  size_t score_col_ = 0;
};

/// Ranked qualified-group source for the ET methods: the columnar block
/// cursor when the serving snapshot carries a slice for `tops_table`, the
/// DGJ driver otherwise. Both enumerate qualified, non-excluded groups in
/// (score desc, tid asc) order and stop pulling when the consumer has k.
class RankedSource {
 public:
  RankedSource(MethodContext* ctx, const std::string& tops_table,
               bool unpruned) {
    // An explicit DGJ algorithm or join-order choice selects a specific row
    // ET plan; taking the columnar cursor would silently ignore it, so
    // honor the request and run the plan it configures.
    const bool default_et_plan = ctx->options.dgj_algs.empty() &&
                                 ctx->options.et_side_order ==
                                     std::vector<size_t>{0, 1};
    if (default_et_plan) scan_ = ColumnarScan::TryCreate(ctx, tops_table);
    if (scan_ == nullptr) {
      driver_.emplace(ctx, tops_table, RankedCandidates(ctx, unpruned));
    }
  }

  bool columnar() const { return scan_ != nullptr; }

  std::optional<ResultEntry> Next() {
    return scan_ != nullptr ? scan_->NextRanked() : driver_->NextMatch();
  }

  void FoldCounters(ExecStats* stats) {
    if (scan_ != nullptr) {
      scan_->FoldCounters(stats);
    } else {
      driver_->FoldCounters(stats);
    }
  }

 private:
  std::unique_ptr<ColumnarScan> scan_;
  std::optional<EtDriver> driver_;
};

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

}  // namespace

QueryResult RunFullTopK(MethodContext* ctx) {
  // Columnar: the ranked block cursor probes groups in score order and
  // stops at k, instead of resolving every group before truncating.
  // Identical entries — the cursor enumerates exactly
  // RankTids(JoinTops(AllTops)).
  if (std::unique_ptr<ColumnarScan> scan =
          ColumnarScan::TryCreate(ctx, ctx->rq.pair->alltops_table)) {
    QueryResult result;
    while (result.entries.size() < ctx->rq.k) {
      std::optional<ResultEntry> next = scan->NextRanked();
      if (!next.has_value()) break;
      result.entries.push_back(*next);
    }
    scan->FoldCounters(&ctx->stats);
    result.stats = ctx->stats;
    result.stats.plan = "AllTops block cursor -> ranked walk -> fetch-k";
    return result;
  }

  // SQL4 without pruned sub-queries: all topologies joined, then sort and
  // fetch the first k.
  std::vector<core::Tid> tids = ctx->JoinTops(ctx->rq.pair->alltops_table);
  std::vector<ResultEntry> entries = ctx->RankTids(tids);
  if (entries.size() > ctx->rq.k) entries.resize(ctx->rq.k);
  QueryResult result;
  result.entries = std::move(entries);
  result.stats = ctx->stats;
  result.stats.plan = "AllTops join -> sort(score) -> fetch-k";
  return result;
}

QueryResult RunFastTopK(MethodContext* ctx) {
  // SQL4: top-k of the unpruned sub-query first. On the columnar path the
  // ranked cursor feeds the merge lazily (only groups that can still make
  // the top-k are probed); the row path materializes the whole ranking.
  // Both produce the identical (score desc, tid asc) sequence.
  std::unique_ptr<ColumnarScan> scan =
      ColumnarScan::TryCreate(ctx, ctx->rq.pair->lefttops_table);
  std::vector<ResultEntry> top;
  if (scan == nullptr) {
    top = ctx->RankTids(ctx->JoinTops(ctx->rq.pair->lefttops_table));
  }
  size_t i = 0;
  std::optional<ResultEntry> next_top;
  auto advance_top = [&]() {
    if (scan != nullptr) {
      next_top = scan->NextRanked();
    } else if (i < top.size()) {
      next_top = top[i++];
    } else {
      next_top.reset();
    }
  };
  advance_top();

  // ...then SQL5 for each pruned topology that could still enter the top-k,
  // in score order.
  std::vector<ResultEntry> pruned = RankedPruned(ctx);

  std::vector<ResultEntry> merged;
  size_t j = 0;
  while (merged.size() < ctx->rq.k &&
         (next_top.has_value() || j < pruned.size())) {
    if (j >= pruned.size() ||
        (next_top.has_value() && Before(*next_top, pruned[j]))) {
      merged.push_back(*next_top);
      advance_top();
    } else {
      const ResultEntry candidate = pruned[j++];
      if (ctx->OnlineCheckPruned(candidate.tid)) merged.push_back(candidate);
    }
  }
  if (scan != nullptr) scan->FoldCounters(&ctx->stats);
  QueryResult result;
  result.entries = std::move(merged);
  result.stats = ctx->stats;
  result.stats.plan =
      scan != nullptr
          ? "LeftTops block cursor -> merge-k, + SQL5 checks for pruned"
          : "LeftTops join -> sort -> fetch-k, + SQL5 checks for pruned";
  return result;
}

QueryResult RunFullTopKEt(MethodContext* ctx) {
  if (ctx->rq.self_pair) {
    // DGJ plans are built for distinct-type pairs; self pairs need both row
    // orientations and fall back to the sort-based plan.
    QueryResult result = RunFullTopK(ctx);
    result.stats.plan += " (self-pair fallback from ET)";
    return result;
  }
  RankedSource source(ctx, ctx->rq.pair->alltops_table, /*unpruned=*/false);
  QueryResult result;
  while (result.entries.size() < ctx->rq.k) {
    std::optional<ResultEntry> match = source.Next();
    if (!match.has_value()) break;
    result.entries.push_back(*match);
  }
  source.FoldCounters(&ctx->stats);
  result.stats = ctx->stats;
  result.stats.plan = source.columnar()
                          ? "AllTops block cursor (ET order) -> fetch-k"
                          : DgjPlanString(*ctx) + " over AllTops";
  return result;
}

QueryResult RunFastTopKEt(MethodContext* ctx) {
  if (ctx->rq.self_pair) {
    QueryResult result = RunFastTopK(ctx);
    result.stats.plan += " (self-pair fallback from ET)";
    return result;
  }
  // Unpruned topologies flow through the ranked source in score order;
  // pruned candidates are interleaved by score and verified with
  // SQL5-style online checks.
  RankedSource source(ctx, ctx->rq.pair->lefttops_table, /*unpruned=*/true);
  std::vector<ResultEntry> pruned = RankedPruned(ctx);

  QueryResult result;
  std::optional<ResultEntry> next_match = source.Next();
  size_t j = 0;
  while (result.entries.size() < ctx->rq.k &&
         (next_match.has_value() || j < pruned.size())) {
    if (j >= pruned.size() ||
        (next_match.has_value() && Before(*next_match, pruned[j]))) {
      result.entries.push_back(*next_match);
      next_match = source.Next();
    } else {
      const ResultEntry candidate = pruned[j++];
      if (ctx->OnlineCheckPruned(candidate.tid)) {
        result.entries.push_back(candidate);
      }
    }
  }
  source.FoldCounters(&ctx->stats);
  result.stats = ctx->stats;
  result.stats.plan =
      source.columnar()
          ? "LeftTops block cursor (ET order) -> merge-k + pruned checks"
          : DgjPlanString(*ctx) + " over LeftTops + pruned checks";
  return result;
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
    result = fast ? RunFastTopKEt(ctx) : RunFullTopKEt(ctx);
    result.stats.plan =
        "choice=ET | " + choice.ToString(spec) + " | " + result.stats.plan;
  } else {
    result = fast ? RunFastTopK(ctx) : RunFullTopK(ctx);
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
