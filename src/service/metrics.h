#ifndef TSB_SERVICE_METRICS_H_
#define TSB_SERVICE_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/query.h"
#include "obs/fleet.h"
#include "obs/histogram.h"
#include "obs/registry.h"
#include "obs/slow_log.h"

namespace tsb {
namespace service {

/// Thread-safe serving metrics, exported under tsb_service_*: per method
/// slot (one per engine method plus kTripleSlot) the admitted requests,
/// cache hits, errors, latency histogram, resource bill and scan
/// counters; per admission class the admitted, rejected, shed and
/// cancelled counts and a latency histogram; and the per-shard AllTops
/// row gauge. Each family is declared once (metrics.cc); MetricsTable and
/// FleetSnapshotOf render a read of it.
class ServiceMetrics : public obs::MetricsSource {
 public:
  /// Slot used for TripleQuery traffic (engine methods use their enum
  /// value as the slot).
  static constexpr size_t kTripleSlot = 9;
  static constexpr size_t kNumSlots = 10;

  static constexpr size_t kNumClasses = 2;  // wire::Priority cardinality.

  /// One admitted request. `executed` — the stats of a query that ran —
  /// adds its resource bill and scan counters in the same cell update.
  void RecordRequest(size_t slot, double seconds, bool cache_hit, bool ok,
                     const engine::ExecStats* executed = nullptr);
  /// `cls` is the admission class (static_cast of wire::Priority).
  void RecordRejected(size_t cls) { Bump(cls, &ClassCell::rejected); }
  void RecordAdmitted(size_t cls) { Bump(cls, &ClassCell::admitted); }
  void RecordDeadlineShed(size_t cls) {
    Bump(cls, &ClassCell::deadline_shed);
  }
  void RecordCancelled(size_t cls) { Bump(cls, &ClassCell::cancelled); }
  void RecordClassLatency(size_t cls, double seconds);
  /// Publishes the per-shard row counts (refreshed on construction and
  /// after every rebuild) the shard-skew gauge derives from.
  void SetShardRows(std::vector<uint64_t> rows);

  void Collect(obs::MetricsRead* read) const override;

  static size_t SlotOf(engine::MethodKind method) {
    return static_cast<size_t>(method);
  }
  static std::string SlotName(size_t slot);

  // The declared export: one table per cell kind (metrics.cc).
  struct MethodCell {
    mutable std::mutex mu;
    uint64_t requests = 0;  // Admitted requests (hits + executions).
    uint64_t cache_hits = 0;
    uint64_t errors = 0;    // Admitted but failed in the engine.
    obs::LatencyHistogram latency;
    uint64_t cpu_ns = 0;
    uint64_t bytes_deserialized = 0;
    uint64_t catalog_interns = 0;
    uint64_t heap_bytes = 0;
    uint64_t rows_scanned = 0;
    uint64_t blocks_total = 0;
    uint64_t blocks_skipped = 0;
  };
  struct ClassCell {
    mutable std::mutex mu;
    uint64_t admitted = 0;       // Entered the class queue.
    uint64_t rejected = 0;       // Bounced: class queue at its bound.
    uint64_t deadline_shed = 0;  // Dequeued after the deadline expired.
    uint64_t cancelled = 0;      // Stream cancelled before execution.
    obs::LatencyHistogram latency;  // End-to-end, executed requests.
  };
  static const obs::CellTable<MethodCell> kMethodCells;
  /// The scan counters, exported unlabelled as their sum over methods.
  static const obs::CellTable<MethodCell> kScanTotals;
  static const obs::CellTable<ClassCell> kClassCells;

 private:
  void Bump(size_t cls, uint64_t ClassCell::*counter);

  std::array<MethodCell, kNumSlots> methods_;
  std::array<ClassCell, kNumClasses> classes_;
  mutable std::mutex shard_mu_;
  std::vector<uint64_t> shard_rows_;
};

/// Thread-safe per-shard transport telemetry, exported under
/// tsb_transport_*: round trips, failures, bytes each way, reconnects and
/// an RTT histogram. The executor's replica-set transport records one row
/// per logical Send, whether its channels are in-process or sockets, so
/// swapping transports keeps the dashboards comparable.
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

  void Collect(obs::MetricsRead* read) const override;

  // The declared export (metrics.cc).
  struct ShardCell {
    mutable std::mutex mu;
    uint64_t requests = 0;
    uint64_t failures = 0;
    uint64_t bytes_sent = 0;
    uint64_t bytes_received = 0;
    uint64_t reconnects = 0;
    obs::LatencyHistogram rtt;
  };
  static const obs::CellTable<ShardCell> kShardCells;

 private:
  size_t num_shards_;
  std::unique_ptr<ShardCell[]> shards_;
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

/// ReplicaMetrics' exported state as plain structs, built from its read:
/// a replica or shard the read leaves out reads as zeros.
struct ReplicaMetricsSnapshot {
  std::vector<ReplicaShardSnapshot> shards;
};

/// Thread-safe per-(shard, replica) serving telemetry — the replica
/// dimension under TransportMetrics' per-shard view — exported under
/// tsb_replica_*. Doubles as the routing-state source: the replica-set
/// transport picks the least-loaded healthy replica by (outstanding,
/// rtt_ewma), both read from here, so the load signal the router acts on
/// is exactly the one the dashboards show.
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
  void RecordHedgeWin(size_t shard, size_t replica) {
    Bump(shard, replica, &ReplicaCell::hedge_wins);
  }
  void RecordHedgeLaunched(size_t shard) {
    Bump(shard, &ShardCell::hedges_launched);
  }
  void RecordFailover(size_t shard) { Bump(shard, &ShardCell::failovers); }
  void RecordExhausted(size_t shard) { Bump(shard, &ShardCell::exhausted); }
  void RecordEjection(size_t shard, size_t replica) {
    Bump(shard, replica, &ReplicaCell::ejections);
  }
  void RecordReinstatement(size_t shard, size_t replica) {
    Bump(shard, replica, &ReplicaCell::reinstatements);
  }
  void RecordQuarantine(size_t shard, size_t replica) {
    Bump(shard, replica, &ReplicaCell::quarantines);
  }

  /// Routing signals (racy snapshots, by design).
  uint64_t Outstanding(size_t shard, size_t replica) const;
  double RttEwma(size_t shard, size_t replica) const;
  /// RTT p95 across all of `shard`'s replicas — the hedge-delay base —
  /// at histogram bucket resolution.
  /// `min_samples` gates warm-up: returns 0 until the shard has seen that
  /// many attempts.
  double ShardRttP95(size_t shard, uint64_t min_samples) const;

  ReplicaMetricsSnapshot Snapshot() const;

  void Collect(obs::MetricsRead* read) const override;

  /// EWMA smoothing factor for rtt_ewma (weight of the newest sample).
  static constexpr double kEwmaAlpha = 0.2;

  // The declared export (metrics.cc).
  struct ReplicaCell {
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
  struct ShardCell {
    std::vector<std::unique_ptr<ReplicaCell>> replicas;
    mutable std::mutex mu;
    uint64_t hedges_launched = 0;
    uint64_t failovers = 0;
    uint64_t exhausted = 0;
    obs::LatencyHistogram shard_rtt;  // Pooled over replicas (hedge base).
    uint64_t shard_attempts = 0;
  };
  static const obs::CellTable<ReplicaCell> kReplicaCells;
  static const obs::CellTable<ShardCell> kShardCells;

 private:
  ReplicaCell& Replica(size_t shard, size_t replica) const;
  void Bump(size_t shard, size_t replica, uint64_t ReplicaCell::*counter);
  void Bump(size_t shard, uint64_t ShardCell::*counter);

  std::vector<ShardCell> shards_;
};

/// The `metrics-text` body: one row per method with traffic, one per
/// admission class with any, the shard rows and skew, the scan line and
/// the totals — rendered from a read that includes a ServiceMetrics.
std::string MetricsTable(const obs::MetricsRead& read);

/// One row per transport shard the read exports, then the totals.
std::string TransportTable(const obs::MetricsRead& read);

/// One row per replica the read exports, then each exported shard's
/// hedge/failover/exhausted line.
std::string ReplicaTable(const obs::MetricsRead& read);

/// One process's contribution to the fleet cost view (the admin
/// `cost-snapshot` payload), rendered from a read of its registry:
/// per-method counters, histograms and cost bills, replica-routing totals
/// and mutation/WAL counters where the read has them, plus the top-cost
/// queries mined from the slow log (null when disabled).
obs::FleetSnapshot FleetSnapshotOf(const obs::MetricsRead& read,
                                   const obs::SlowQueryLog* slow_log);

}  // namespace service
}  // namespace tsb

#endif  // TSB_SERVICE_METRICS_H_
