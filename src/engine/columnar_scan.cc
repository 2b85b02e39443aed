#include "engine/columnar_scan.h"

#include <algorithm>
#include <utility>

#include "engine/methods_internal.h"
#include "obs/cost.h"

namespace tsb {
namespace engine {
namespace {

/// Entity-table row verdicts gathered through a dictionary into per-code
/// verdicts. A code whose id is absent from the entity table (kNoRow)
/// never qualifies, matching the row path's empty join probe.
std::vector<uint8_t> GatherCodes(const std::vector<uint8_t>& row_mask,
                                 const std::vector<uint32_t>& dict_row) {
  obs::CostTracker::ChargeHeapBytes(dict_row.size());
  std::vector<uint8_t> mask(dict_row.size(), 0);
  for (size_t code = 0; code < dict_row.size(); ++code) {
    const uint32_t row = dict_row[code];
    if (row != columnar::ColumnarSlice::kNoRow && row < row_mask.size()) {
      mask[code] = row_mask[row];
    }
  }
  return mask;
}

}  // namespace

std::unique_ptr<ColumnarScan> ColumnarScan::TryCreate(
    MethodContext* ctx, const std::string& tops_table) {
  if (!ctx->options.use_columnar) return nullptr;
  const core::PairTopologyData& pair = *ctx->rq.pair;
  std::shared_ptr<const columnar::ColumnarSlice> slice;
  if (tops_table == pair.alltops_table) {
    slice = pair.alltops_blocks;
  } else if (!pair.lefttops_table.empty() &&
             tops_table == pair.lefttops_table) {
    slice = pair.lefttops_blocks;
  }
  if (slice == nullptr || slice->source_table != tops_table) return nullptr;
  if (!columnar::CheckSliceShape(*slice)) return nullptr;

  const ResolvedQuery& rq = ctx->rq;
  // The slice's dictionaries were resolved against the canonical pair
  // tables; map the query's sides onto the stored E1/E2 orientation.
  const storage::Table* e1_table = rq.swapped ? rq.table_b : rq.table_a;
  const storage::Table* e2_table = rq.swapped ? rq.table_a : rq.table_b;
  if (slice->e1_table != e1_table->name() ||
      slice->e2_table != e2_table->name()) {
    return nullptr;
  }

  // The query's per-side verdict masks (MethodContext::MaskA/MaskB) are
  // evaluated once and shared with the row consumers of the same query.
  columnar::BlockScanCursor::Masks masks;
  const std::vector<uint8_t>& rows_a = ctx->MaskA();
  const std::vector<uint8_t>& rows_b = ctx->MaskB();
  if (!rq.self_pair) {
    const std::vector<uint8_t>& rows1 = rq.swapped ? rows_b : rows_a;
    const std::vector<uint8_t>& rows2 = rq.swapped ? rows_a : rows_b;
    masks.e1_first = GatherCodes(rows1, slice->e1_dict_row);
    masks.e2_second = GatherCodes(rows2, slice->e2_dict_row);
  } else {
    // Self pair: one table, both predicates, both sweep orientations.
    masks.e1_first = GatherCodes(rows_a, slice->e1_dict_row);
    masks.e2_second = GatherCodes(rows_b, slice->e2_dict_row);
    masks.e1_second = GatherCodes(rows_b, slice->e1_dict_row);
    masks.e2_first = GatherCodes(rows_a, slice->e2_dict_row);
    masks.both_orientations = true;
  }

  ctx->used_columnar = true;
  return std::unique_ptr<ColumnarScan>(
      new ColumnarScan(ctx, std::move(slice), std::move(masks)));
}

ColumnarScan::ColumnarScan(const MethodContext* ctx,
                           std::shared_ptr<const columnar::ColumnarSlice> slice,
                           columnar::BlockScanCursor::Masks masks)
    : ctx_(ctx), slice_(std::move(slice)), cursor_(slice_, std::move(masks)) {}

std::vector<core::Tid> ColumnarScan::QualifiedTids() {
  std::vector<uint8_t> qualified;
  cursor_.QualifyAllGroups(&qualified);
  std::vector<core::Tid> out;
  for (size_t g = 0; g < qualified.size(); ++g) {
    if (qualified[g]) out.push_back(slice_->groups[g].tid);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ColumnarScan::EnsureRanked() {
  if (ranked_built_) return;
  ranked_built_ = true;
  obs::CostTracker::ChargeHeapBytes(slice_->groups.size() *
                                    sizeof(RankedGroup));
  ranked_.reserve(slice_->groups.size());
  for (uint32_t g = 0; g < slice_->groups.size(); ++g) {
    const core::Tid tid = slice_->groups[g].tid;
    if (ctx_->Excluded(tid)) continue;  // Section 6.2.3 domain pruning.
    ranked_.push_back({tid, ctx_->ScoreOf(tid), g});
  }
  // Same order as RankTids: (score desc, tid asc); tids are unique across
  // groups, so the key is total.
  std::sort(ranked_.begin(), ranked_.end(),
            [](const RankedGroup& a, const RankedGroup& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.tid < b.tid;
            });
}

std::optional<ResultEntry> ColumnarScan::NextRanked() {
  EnsureRanked();
  while (next_ranked_ < ranked_.size()) {
    const RankedGroup& g = ranked_[next_ranked_++];
    if (cursor_.GroupQualifies(g.group)) {
      return ResultEntry{g.tid, g.score};
    }
  }
  return std::nullopt;
}

void ColumnarScan::FoldCounters(ExecStats* stats) {
  const columnar::ScanCounters c = cursor_.Counters();
  stats->rows_scanned += c.rows_scanned;
  stats->blocks_total += c.blocks_total;
  stats->blocks_skipped += c.blocks_skipped;
  if (obs::CostTracker::enabled()) {
    stats->bytes_deserialized += c.bytes_read;
  }
}

}  // namespace engine
}  // namespace tsb
