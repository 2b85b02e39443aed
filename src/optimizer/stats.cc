#include "optimizer/stats.h"

#include <algorithm>

namespace tsb {
namespace optimizer {

double EstimateSelectivity(const std::vector<uint8_t>& row_mask,
                           size_t sample_size) {
  const size_t n = row_mask.size();
  const size_t samples = std::min(sample_size, n);
  if (samples == 0) return 0.0;
  const size_t stride = n / samples;
  size_t hits = 0;
  size_t looked = 0;
  for (size_t i = 0; i < n && looked < samples; i += stride) {
    ++looked;
    if (row_mask[i]) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(looked);
}

double EstimateJoinFanout(size_t table_rows, size_t distinct_keys) {
  if (distinct_keys == 0) return 0.0;
  return static_cast<double>(table_rows) / static_cast<double>(distinct_keys);
}

}  // namespace optimizer
}  // namespace tsb
