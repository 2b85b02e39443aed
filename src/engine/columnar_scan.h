#ifndef TSB_ENGINE_COLUMNAR_SCAN_H_
#define TSB_ENGINE_COLUMNAR_SCAN_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "columnar/blocks.h"
#include "engine/query.h"

namespace tsb {
namespace engine {

struct MethodContext;

/// Per-query columnar execution over one tops-table slice. On creation it
/// takes the query's per-side verdict masks (MethodContext::MaskA/MaskB,
/// evaluated once per query), gathers them through the slice's endpoint
/// dictionaries into per-code bitmaps, and then drives a BlockScanCursor.
///
/// Byte-identity contract with the row engine:
///  - QualifiedTids() is set-equal to MethodContext::JoinTops over the
///    same table (all callers sort afterwards, so order is free);
///  - NextRanked() enumerates exactly the sequence RankTids(qualified
///    groups) would produce — (ScoreOf desc, tid asc), weak-excluded
///    topologies filtered — but lazily, probing one group's rows at a time
///    so a top-k consumer stops early.
class ColumnarScan {
 public:
  /// Null when the columnar path cannot serve this query: gated off by
  /// ExecOptions, no slice attached (pre-columnar snapshot), slice built
  /// against different tables than the query resolved, or the slice fails
  /// its structural screen. Callers fall back to the row path.
  static std::unique_ptr<ColumnarScan> TryCreate(MethodContext* ctx,
                                                 const std::string& tops_table);

  /// Distinct qualified TIDs (ascending), the JoinTops equivalent.
  std::vector<core::Tid> QualifiedTids();

  /// Next qualified, non-excluded group in (score desc, tid asc) order
  /// under the query's scheme; nullopt when exhausted.
  std::optional<ResultEntry> NextRanked();

  /// Folds scan counters (tops rows, blocks, zone-map skips) into `stats`.
  /// Call once, after the last scan. The entity-table rows are charged when
  /// the query's masks are evaluated, not here.
  void FoldCounters(ExecStats* stats);

 private:
  ColumnarScan(const MethodContext* ctx,
               std::shared_ptr<const columnar::ColumnarSlice> slice,
               columnar::BlockScanCursor::Masks masks);

  struct RankedGroup {
    core::Tid tid = core::kNoTid;
    double score = 0.0;
    uint32_t group = 0;
  };

  /// Builds the per-query (score desc, tid asc) group order on first use.
  void EnsureRanked();

  const MethodContext* ctx_;  // Outlives the scan (both are per-query).
  std::shared_ptr<const columnar::ColumnarSlice> slice_;
  columnar::BlockScanCursor cursor_;
  bool ranked_built_ = false;
  std::vector<RankedGroup> ranked_;
  size_t next_ranked_ = 0;
};

}  // namespace engine
}  // namespace tsb

#endif  // TSB_ENGINE_COLUMNAR_SCAN_H_
