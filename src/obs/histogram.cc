#include "obs/histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace tsb {
namespace obs {

const std::array<double, LatencyHistogram::kNumBuckets>&
LatencyHistogram::UpperBounds() {
  static const std::array<double, kNumBuckets> bounds = [] {
    std::array<double, kNumBuckets> b{};
    const double factor =
        std::pow(2.0, 1.0 / static_cast<double>(kBucketsPerOctave));
    double bound = kFirstUpperBound;
    for (size_t i = 0; i < kNumBuckets; ++i) {
      b[i] = bound;
      bound *= factor;
    }
    return b;
  }();
  return bounds;
}

void LatencyHistogram::Record(double seconds) {
  const std::array<double, kNumBuckets>& bounds = UpperBounds();
  // First bucket whose upper bound covers the value; values beyond the
  // last finite bound (and NaN) land in the overflow bucket.
  const auto it =
      std::lower_bound(bounds.begin(), bounds.end(), seconds);
  const size_t index = static_cast<size_t>(it - bounds.begin());
  ++buckets_[index];
  ++count_;
  sum_ += seconds;
  if (seconds > max_) max_ = seconds;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i <= kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.max_ > max_) max_ = other.max_;
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count_));
  if (rank >= count_) rank = count_ - 1;
  uint64_t cumulative = 0;
  for (size_t i = 0; i <= kNumBuckets; ++i) {
    cumulative += buckets_[i];
    if (cumulative > rank) {
      return i < kNumBuckets ? UpperBounds()[i] : max_;
    }
  }
  return max_;
}

std::vector<std::pair<double, uint64_t>>
LatencyHistogram::CumulativeBuckets() const {
  std::vector<std::pair<double, uint64_t>> out;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    cumulative += buckets_[i];
    out.emplace_back(UpperBounds()[i], cumulative);
  }
  out.emplace_back(std::numeric_limits<double>::infinity(), count_);
  return out;
}

void LatencyHistogram::EncodeTo(std::string* out) const {
  PutU64(out, count_);
  PutF64(out, sum_);
  PutF64(out, max_);
  uint32_t nonzero = 0;
  for (size_t i = 0; i <= kNumBuckets; ++i) {
    if (buckets_[i] != 0) ++nonzero;
  }
  PutU32(out, nonzero);
  for (size_t i = 0; i <= kNumBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    PutU16(out, static_cast<uint16_t>(i));
    PutU64(out, buckets_[i]);
  }
}

Result<LatencyHistogram> LatencyHistogram::DecodeFrom(BinaryReader* in) {
  LatencyHistogram h;
  h.count_ = in->U64();
  h.sum_ = in->F64();
  h.max_ = in->F64();
  const uint32_t nonzero = in->U32();
  if (!in->ok()) return in->status("truncated histogram header");
  if (nonzero > kNumBuckets + 1) {
    return Status::InvalidArgument("histogram bucket count out of range");
  }
  uint64_t total = 0;
  int last_index = -1;
  for (uint32_t i = 0; i < nonzero; ++i) {
    const uint16_t index = in->U16();
    const uint64_t bucket_count = in->U64();
    if (!in->ok()) return in->status("truncated histogram bucket");
    if (index > kNumBuckets || static_cast<int>(index) <= last_index) {
      return Status::InvalidArgument("histogram bucket index out of order");
    }
    if (bucket_count == 0) {
      return Status::InvalidArgument("empty bucket encoded as non-empty");
    }
    last_index = index;
    h.buckets_[index] = bucket_count;
    total += bucket_count;
  }
  if (total != h.count_) {
    return Status::InvalidArgument("histogram bucket counts disagree with "
                                   "total");
  }
  return h;
}

}  // namespace obs
}  // namespace tsb
