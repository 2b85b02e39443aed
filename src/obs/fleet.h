#ifndef TSB_OBS_FLEET_H_
#define TSB_OBS_FLEET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "obs/cost.h"
#include "obs/histogram.h"

namespace tsb {
namespace obs {

/// One query method's fleet-wide serving row: counters plus the
/// mergeable latency histogram and the resource bill. Merged by method
/// name — plain sums everywhere.
struct FleetMethodStats {
  std::string method;
  uint64_t requests = 0;
  uint64_t cache_hits = 0;
  uint64_t errors = 0;
  LatencyHistogram latency;
  CostCounters cost;
};

/// One costly query, ranked by what it paid rather than how long it sat:
/// score = cpu_ns × (bytes + 1), so a CPU-bound scan and a
/// deserialization-bound gather both surface.
struct FleetTopQuery {
  std::string request;
  std::string method;
  double service_seconds = 0.0;
  uint64_t cpu_ns = 0;
  uint64_t bytes = 0;  // bytes_deserialized + heap_bytes.

  double Score() const {
    return static_cast<double>(cpu_ns) * (static_cast<double>(bytes) + 1.0);
  }
};

/// The payload of an admin `cost-snapshot` pull: everything `topctl top`
/// needs from one process, shaped so that Merge() over any subset of the
/// fleet is exact. Histograms and counters sum; shard_rows takes the
/// elementwise max (replicas of the same shard report the same store, and
/// must not double count); top queries keep the highest-scoring few.
struct FleetSnapshot {
  static constexpr size_t kMaxTopQueries = 8;

  uint64_t processes = 1;

  std::vector<FleetMethodStats> methods;  // Only methods with traffic.
  uint64_t total_requests = 0;
  uint64_t total_cache_hits = 0;
  uint64_t total_errors = 0;
  uint64_t total_rejected = 0;

  uint64_t scan_rows = 0;
  uint64_t scan_blocks_total = 0;
  uint64_t scan_blocks_skipped = 0;

  std::vector<uint64_t> shard_rows;

  // Replica-routing health (zero on shard servers; the router fills them).
  uint64_t hedges_launched = 0;
  uint64_t failovers = 0;
  uint64_t exhausted = 0;

  // Mutation / compaction state (PR 9 counters; zero on pure frontends).
  uint64_t mutation_batches = 0;
  uint64_t mutation_ops = 0;
  uint64_t overlay_generations = 0;
  uint64_t compaction_folds = 0;
  uint64_t wal_records = 0;
  uint64_t wal_bytes = 0;

  std::vector<FleetTopQuery> top_queries;  // Score-descending, capped.

  /// Exact fleet aggregation. Associative and commutative up to the
  /// canonical ordering Normalize() imposes (methods by name, top queries
  /// by score); histogram bucket counts merge losslessly.
  void Merge(const FleetSnapshot& other);

  /// Canonical ordering: methods sorted by name, top queries by
  /// (score desc, request, method) truncated to kMaxTopQueries. Encode
  /// normalizes automatically; Merge calls it too.
  void Normalize();

  /// The `topctl top` dashboard body (also what tests assert against).
  std::string Render() const;
};

/// Skew factor of a per-shard row-count vector: max/mean. 1.0 is
/// perfectly balanced; 0 when the vector is empty or all-zero. The one
/// definition the service gauge, RebuildStats and `topctl top` share.
double ShardSkew(const std::vector<uint64_t>& rows);

void EncodeFleetSnapshot(const FleetSnapshot& snapshot, std::string* out);
Result<FleetSnapshot> DecodeFleetSnapshot(std::string_view payload);

}  // namespace obs
}  // namespace tsb

#endif  // TSB_OBS_FLEET_H_
