#ifndef TSB_SERVICE_METRICS_H_
#define TSB_SERVICE_METRICS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/query.h"
#include "obs/cost.h"
#include "obs/fleet.h"
#include "obs/histogram.h"
#include "obs/registry.h"
#include "obs/slow_log.h"

namespace tsb {
namespace service {

/// Per-method serving counters. One row per engine method plus one for
/// 3-queries (kTripleSlot).
struct MethodStatsSnapshot {
  std::string method;
  uint64_t requests = 0;     // Admitted requests (hits + executions).
  uint64_t cache_hits = 0;
  uint64_t errors = 0;       // Admitted but failed in the engine.
  /// End-to-end service latency in fixed log buckets; bucket counts merge
  /// exactly across processes (`topctl top`).
  obs::LatencyHistogram latency;
  /// Aggregate resource bill for this method (obs::CostTracker).
  obs::CostCounters cost;
};

/// Per-admission-class serving counters (wire::Priority classes).
struct PriorityClassSnapshot {
  std::string name;            // "interactive" / "batch".
  uint64_t admitted = 0;       // Entered the class queue.
  uint64_t rejected = 0;       // Bounced: class queue at its bound.
  uint64_t deadline_shed = 0;  // Dequeued after the deadline expired.
  uint64_t cancelled = 0;      // Stream cancelled before execution.
  obs::LatencyHistogram latency;  // End-to-end, executed requests.
};

struct MetricsSnapshot {
  std::vector<MethodStatsSnapshot> methods;  // Only methods with traffic.
  uint64_t total_requests = 0;
  uint64_t total_cache_hits = 0;
  uint64_t total_errors = 0;
  uint64_t total_rejected = 0;  // Bounced by admission control.

  /// One row per admission class (always both, traffic or not).
  std::vector<PriorityClassSnapshot> classes;

  /// Per-shard AllTops row counts (one entry for a single store; refreshed
  /// on construction and after every rebuild) and the skew factor
  /// max/mean — 1.0 is perfectly balanced, 0 when empty. The
  /// first half of the ROADMAP shard-rebalancing item: observe the skew
  /// before acting on it.
  std::vector<uint64_t> shard_rows;
  double shard_skew = 0.0;

  /// Aggregate scan counters from executed queries (ExecStats), so the
  /// columnar zone-map skip rate is observable at the service level.
  uint64_t scan_rows_scanned = 0;
  uint64_t scan_blocks_total = 0;
  uint64_t scan_blocks_skipped = 0;

  /// Multi-line human-readable table.
  std::string ToString() const;
};

/// Thread-safe serving metrics: requests, cache hits, errors, rejections,
/// and per-method latency histograms (p50/p95/p99 at bucket resolution).
///
/// Also an obs::MetricsSource: registered with a process's
/// obs::MetricsRegistry it exports every counter under tsb_service_*
/// (Prometheus / JSON); the Snapshot()+ToString view stays as the human
/// rendering of the same state.
class ServiceMetrics : public obs::MetricsSource {
 public:
  /// Slot used for TripleQuery traffic (engine methods use their enum
  /// value as the slot).
  static constexpr size_t kTripleSlot = 9;
  static constexpr size_t kNumSlots = 10;

  static constexpr size_t kNumClasses = 2;  // wire::Priority cardinality.

  void RecordRequest(size_t slot, double seconds, bool cache_hit, bool ok);
  /// Folds one executed query's resource bill (ExecStats cost fields)
  /// into the method's aggregate CostCounters.
  void RecordCost(size_t slot, const obs::CostCounters& cost);
  /// `cls` is the admission class (static_cast of wire::Priority).
  void RecordRejected(size_t cls);
  void RecordAdmitted(size_t cls);
  void RecordDeadlineShed(size_t cls);
  void RecordCancelled(size_t cls);
  void RecordClassLatency(size_t cls, double seconds);
  /// Folds one executed query's scan counters (ExecStats) into the
  /// service-level aggregates.
  void RecordScanStats(uint64_t rows_scanned, uint64_t blocks_total,
                       uint64_t blocks_skipped);
  /// Publishes the per-shard row counts the skew metric derives from.
  void SetShardRows(std::vector<uint64_t> rows);
  void Reset();

  MetricsSnapshot Snapshot() const;

  /// obs::MetricsSource: exports the snapshot as typed tsb_service_*
  /// samples.
  void Collect(obs::MetricsSink* sink) const override;

  static size_t SlotOf(engine::MethodKind method) {
    return static_cast<size_t>(method);
  }
  static std::string SlotName(size_t slot);

 private:
  struct Slot {
    mutable std::mutex mu;
    uint64_t requests = 0;
    uint64_t cache_hits = 0;
    uint64_t errors = 0;
    obs::LatencyHistogram latency;
    obs::CostCounters cost;
  };

  struct ClassSlot {
    mutable std::mutex mu;
    uint64_t admitted = 0;
    uint64_t rejected = 0;
    uint64_t deadline_shed = 0;
    uint64_t cancelled = 0;
    obs::LatencyHistogram latency;
  };

  std::array<Slot, kNumSlots> slots_;
  std::array<ClassSlot, kNumClasses> classes_;
  mutable std::mutex rejected_mu_;
  uint64_t rejected_ = 0;
  mutable std::mutex shard_mu_;
  std::vector<uint64_t> shard_rows_;
  mutable std::mutex scan_mu_;
  uint64_t scan_rows_scanned_ = 0;
  uint64_t scan_blocks_total_ = 0;
  uint64_t scan_blocks_skipped_ = 0;
};

/// One shard's transport counters, as observed by the sending side.
struct TransportShardSnapshot {
  uint64_t requests = 0;        // Sub-query round-trips attempted.
  uint64_t failures = 0;        // Round-trips that returned no response.
  uint64_t bytes_sent = 0;      // Encoded request frame bytes.
  uint64_t bytes_received = 0;  // Encoded response frame bytes.
  uint64_t reconnects = 0;      // Successful dials after a failure.
  obs::LatencyHistogram rtt;    // Send-to-response round-trip time.
};

struct TransportMetricsSnapshot {
  std::vector<TransportShardSnapshot> shards;
  /// Sums of the per-shard counters; rtt stays empty (merge the per-shard
  /// histograms for an all-shard view).
  TransportShardSnapshot total;

  /// Multi-line human-readable table (one row per shard with traffic).
  std::string ToString() const;
};

/// Thread-safe per-shard transport telemetry: send/recv byte counters,
/// request RTT p50/p95, failure and reconnect counts. The executor's
/// replica-set transport records one row per logical Send, whether its
/// channels are in-process or sockets, so swapping transports keeps the
/// dashboards comparable.
class TransportMetrics : public obs::MetricsSource {
 public:
  explicit TransportMetrics(size_t num_shards);

  size_t num_shards() const { return num_shards_; }

  /// One completed round-trip attempt. `ok` is false when the shard never
  /// produced a response frame (dial failure, broken connection, deadline);
  /// bytes cover whatever actually crossed the wire before the failure.
  void RecordRoundTrip(size_t shard, uint64_t bytes_sent,
                       uint64_t bytes_received, double rtt_seconds, bool ok);

  /// A successful (re-)connect after this shard had failed — the signal a
  /// dead shard came back.
  void RecordReconnect(size_t shard);

  TransportMetricsSnapshot Snapshot() const;
  void Reset();

  /// obs::MetricsSource: exports per-shard tsb_transport_* samples.
  void Collect(obs::MetricsSink* sink) const override;

 private:
  struct ShardSlot {
    mutable std::mutex mu;
    uint64_t requests = 0;
    uint64_t failures = 0;
    uint64_t bytes_sent = 0;
    uint64_t bytes_received = 0;
    uint64_t reconnects = 0;
    obs::LatencyHistogram rtt;
  };

  size_t num_shards_;
  std::unique_ptr<ShardSlot[]> shards_;
};

/// One replica's serving counters, as observed by the replica-set
/// transport (the sending side).
struct ReplicaSnapshot {
  uint64_t attempts = 0;       // Round-trip attempts routed here.
  uint64_t failures = 0;       // Attempts that returned no response.
  uint64_t probes = 0;         // Attempts sent as ejection probes.
  uint64_t hedge_attempts = 0; // Attempts fired as the hedge copy.
  uint64_t hedge_wins = 0;     // Hedge copies that answered first.
  uint64_t ejections = 0;      // healthy/suspect → ejected transitions.
  uint64_t reinstatements = 0; // ejected/quarantined → healthy.
  uint64_t quarantines = 0;    // Stale-epoch quarantine entries.
  uint64_t outstanding = 0;    // In-flight right now (gauge).
  double rtt_ewma = 0.0;       // Load-routing signal (seconds).
  obs::LatencyHistogram rtt;   // Attempt round-trip time.
};

struct ReplicaShardSnapshot {
  std::vector<ReplicaSnapshot> replicas;
  uint64_t hedges_launched = 0;  // Sends that fired a hedge copy.
  uint64_t failovers = 0;        // Attempts retried on a sibling replica.
  uint64_t exhausted = 0;        // Sends that failed on every replica.
};

struct ReplicaMetricsSnapshot {
  std::vector<ReplicaShardSnapshot> shards;

  /// Multi-line human-readable table (one row per replica with traffic).
  std::string ToString() const;
};

/// Thread-safe per-(shard, replica) serving telemetry — the replica
/// dimension under TransportMetrics' per-shard view. Doubles as the
/// routing-state source: the replica-set transport picks the least-loaded
/// healthy replica by (outstanding, rtt_ewma), both read from here, so
/// the load signal the router acts on is exactly the one the dashboards
/// show.
class ReplicaMetrics : public obs::MetricsSource {
 public:
  /// `replicas_per_shard[s]` is shard s's replica count (R may vary).
  explicit ReplicaMetrics(std::vector<size_t> replicas_per_shard);

  size_t num_shards() const { return shards_.size(); }
  size_t num_replicas(size_t shard) const {
    return shards_[shard].replicas.size();
  }

  /// An attempt was routed to (shard, replica): bumps the outstanding
  /// gauge. Exactly one RecordOutcome must follow — the transport calls
  /// it from the attempt task itself, so the pair holds even when the
  /// logical request was already answered by a sibling (hedge loser) or
  /// its caller abandoned the future.
  void RecordAttempt(size_t shard, size_t replica, bool is_probe,
                     bool is_hedge);
  void RecordOutcome(size_t shard, size_t replica, double rtt_seconds,
                     bool ok);
  void RecordHedgeWin(size_t shard, size_t replica);
  void RecordHedgeLaunched(size_t shard);
  void RecordFailover(size_t shard);
  void RecordExhausted(size_t shard);
  void RecordEjection(size_t shard, size_t replica);
  void RecordReinstatement(size_t shard, size_t replica);
  void RecordQuarantine(size_t shard, size_t replica);

  /// Routing signals (racy snapshots, by design).
  uint64_t Outstanding(size_t shard, size_t replica) const;
  double RttEwma(size_t shard, size_t replica) const;
  /// RTT p95 across all of `shard`'s replicas — the hedge-delay base —
  /// at histogram bucket resolution.
  /// `min_samples` gates warm-up: returns 0 until the shard has seen that
  /// many attempts.
  double ShardRttP95(size_t shard, uint64_t min_samples) const;

  ReplicaMetricsSnapshot Snapshot() const;
  void Reset();

  /// obs::MetricsSource: exports per-(shard, replica) tsb_replica_*
  /// samples.
  void Collect(obs::MetricsSink* sink) const override;

  /// EWMA smoothing factor for rtt_ewma (weight of the newest sample).
  static constexpr double kEwmaAlpha = 0.2;

 private:
  struct ReplicaSlot {
    mutable std::mutex mu;
    uint64_t attempts = 0;
    uint64_t failures = 0;
    uint64_t probes = 0;
    uint64_t hedge_attempts = 0;
    uint64_t hedge_wins = 0;
    uint64_t ejections = 0;
    uint64_t reinstatements = 0;
    uint64_t quarantines = 0;
    std::atomic<uint64_t> outstanding{0};
    double rtt_ewma = 0.0;
    obs::LatencyHistogram rtt;
  };

  struct ShardSlot {
    std::vector<std::unique_ptr<ReplicaSlot>> replicas;
    mutable std::mutex mu;
    uint64_t hedges_launched = 0;
    uint64_t failovers = 0;
    uint64_t exhausted = 0;
    obs::LatencyHistogram shard_rtt;  // Pooled over replicas (hedge base).
    uint64_t shard_attempts = 0;
  };

  std::vector<ShardSlot> shards_;
};

/// Assembles one process's contribution to the fleet cost view (the admin
/// `cost-snapshot` payload): per-method counters + histograms + cost
/// bills from the service snapshot, replica-routing health when a replica
/// snapshot is supplied (frontends; null on shard servers), and the
/// top-cost queries mined from the slow log (null when disabled). The
/// caller fills the mutation/WAL counters afterwards — they live in the
/// mutation engine, outside the metrics layer.
obs::FleetSnapshot BuildFleetSnapshot(const MetricsSnapshot& service,
                                      const ReplicaMetricsSnapshot* replicas,
                                      const obs::SlowQueryLog* slow_log);

}  // namespace service
}  // namespace tsb

#endif  // TSB_SERVICE_METRICS_H_
