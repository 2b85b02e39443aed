#ifndef TSB_OPTIMIZER_STATS_H_
#define TSB_OPTIMIZER_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tsb {
namespace optimizer {

/// Deterministic sampled selectivity estimate of a predicate from its
/// verdict mask over a table (one byte per row, as EvalAll produces; the
/// engine passes the query's own masks): the qualifying fraction of up to
/// `sample_size` evenly spaced rows (0, stride, 2*stride, ...); 0 for an
/// empty table. This plays the role of the paper's "selectivity and join
/// estimation techniques" (Section 5.4.3, item 5) without histograms.
double EstimateSelectivity(const std::vector<uint8_t>& row_mask,
                           size_t sample_size = 512);

/// Number of distinct keys a PK/FK join would produce per probe; for a
/// unique key this is exactly 1. Estimated as rows / distinct-keys.
double EstimateJoinFanout(size_t table_rows, size_t distinct_keys);

}  // namespace optimizer
}  // namespace tsb

#endif  // TSB_OPTIMIZER_STATS_H_
