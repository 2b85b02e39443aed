#include "service/metrics.h"

#include <cstdio>
#include <utility>

#include "common/logging.h"
#include "shard/sharded_store.h"

namespace tsb {
namespace service {

namespace {

/// The registry-facing view of a LatencyHistogram (cumulative buckets).
obs::HistogramValue HistValue(const obs::LatencyHistogram& hist) {
  obs::HistogramValue value;
  value.count = hist.count();
  value.sum = hist.sum();
  value.buckets = hist.CumulativeBuckets();
  return value;
}

}  // namespace

std::string ServiceMetrics::SlotName(size_t slot) {
  if (slot == kTripleSlot) return "Triple";
  return engine::MethodKindToString(static_cast<engine::MethodKind>(slot));
}

void ServiceMetrics::RecordRequest(size_t slot, double seconds,
                                   bool cache_hit, bool ok) {
  TSB_CHECK_LT(slot, kNumSlots);
  Slot& s = slots_[slot];
  std::lock_guard<std::mutex> lock(s.mu);
  ++s.requests;
  if (cache_hit) ++s.cache_hits;
  if (!ok) ++s.errors;
  s.latency.Record(seconds);
}

void ServiceMetrics::RecordCost(size_t slot, const obs::CostCounters& cost) {
  TSB_CHECK_LT(slot, kNumSlots);
  Slot& s = slots_[slot];
  std::lock_guard<std::mutex> lock(s.mu);
  s.cost += cost;
}

void ServiceMetrics::RecordRejected(size_t cls) {
  {
    std::lock_guard<std::mutex> lock(rejected_mu_);
    ++rejected_;
  }
  TSB_CHECK_LT(cls, kNumClasses);
  std::lock_guard<std::mutex> lock(classes_[cls].mu);
  ++classes_[cls].rejected;
}

void ServiceMetrics::RecordAdmitted(size_t cls) {
  TSB_CHECK_LT(cls, kNumClasses);
  std::lock_guard<std::mutex> lock(classes_[cls].mu);
  ++classes_[cls].admitted;
}

void ServiceMetrics::RecordDeadlineShed(size_t cls) {
  TSB_CHECK_LT(cls, kNumClasses);
  std::lock_guard<std::mutex> lock(classes_[cls].mu);
  ++classes_[cls].deadline_shed;
}

void ServiceMetrics::RecordCancelled(size_t cls) {
  TSB_CHECK_LT(cls, kNumClasses);
  std::lock_guard<std::mutex> lock(classes_[cls].mu);
  ++classes_[cls].cancelled;
}

void ServiceMetrics::RecordClassLatency(size_t cls, double seconds) {
  TSB_CHECK_LT(cls, kNumClasses);
  std::lock_guard<std::mutex> lock(classes_[cls].mu);
  classes_[cls].latency.Record(seconds);
}

void ServiceMetrics::RecordScanStats(uint64_t rows_scanned,
                                     uint64_t blocks_total,
                                     uint64_t blocks_skipped) {
  std::lock_guard<std::mutex> lock(scan_mu_);
  scan_rows_scanned_ += rows_scanned;
  scan_blocks_total_ += blocks_total;
  scan_blocks_skipped_ += blocks_skipped;
}

void ServiceMetrics::SetShardRows(std::vector<uint64_t> rows) {
  std::lock_guard<std::mutex> lock(shard_mu_);
  shard_rows_ = std::move(rows);
}

void ServiceMetrics::Reset() {
  for (Slot& s : slots_) {
    std::lock_guard<std::mutex> lock(s.mu);
    s.requests = 0;
    s.cache_hits = 0;
    s.errors = 0;
    s.latency.Reset();
    s.cost = obs::CostCounters{};
  }
  for (ClassSlot& c : classes_) {
    std::lock_guard<std::mutex> lock(c.mu);
    c.admitted = 0;
    c.rejected = 0;
    c.deadline_shed = 0;
    c.cancelled = 0;
    c.latency.Reset();
  }
  {
    std::lock_guard<std::mutex> lock(shard_mu_);
    shard_rows_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(scan_mu_);
    scan_rows_scanned_ = 0;
    scan_blocks_total_ = 0;
    scan_blocks_skipped_ = 0;
  }
  std::lock_guard<std::mutex> lock(rejected_mu_);
  rejected_ = 0;
}

MetricsSnapshot ServiceMetrics::Snapshot() const {
  MetricsSnapshot snap;
  for (size_t slot = 0; slot < kNumSlots; ++slot) {
    const Slot& s = slots_[slot];
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.requests == 0) continue;
    MethodStatsSnapshot row;
    row.method = SlotName(slot);
    row.requests = s.requests;
    row.cache_hits = s.cache_hits;
    row.errors = s.errors;
    row.latency = s.latency;
    row.cost = s.cost;
    snap.total_requests += row.requests;
    snap.total_cache_hits += row.cache_hits;
    snap.total_errors += row.errors;
    snap.methods.push_back(std::move(row));
  }
  static const char* kClassNames[kNumClasses] = {"interactive", "batch"};
  for (size_t cls = 0; cls < kNumClasses; ++cls) {
    const ClassSlot& c = classes_[cls];
    std::lock_guard<std::mutex> lock(c.mu);
    PriorityClassSnapshot row;
    row.name = kClassNames[cls];
    row.admitted = c.admitted;
    row.rejected = c.rejected;
    row.deadline_shed = c.deadline_shed;
    row.cancelled = c.cancelled;
    row.latency = c.latency;
    snap.classes.push_back(std::move(row));
  }
  {
    std::lock_guard<std::mutex> lock(shard_mu_);
    snap.shard_rows = shard_rows_;
  }
  snap.shard_skew = shard::ShardRowSkew(snap.shard_rows);
  {
    std::lock_guard<std::mutex> lock(scan_mu_);
    snap.scan_rows_scanned = scan_rows_scanned_;
    snap.scan_blocks_total = scan_blocks_total_;
    snap.scan_blocks_skipped = scan_blocks_skipped_;
  }
  std::lock_guard<std::mutex> lock(rejected_mu_);
  snap.total_rejected = rejected_;
  return snap;
}

std::string MetricsSnapshot::ToString() const {
  std::string out =
      "method              requests   hits  errors    p50(ms)    p95(ms)"
      "    p99(ms)\n";
  char line[200];
  for (const MethodStatsSnapshot& row : methods) {
    std::snprintf(line, sizeof(line),
                  "%-18s %9llu %6llu %7llu %10.3f %10.3f %10.3f\n",
                  row.method.c_str(),
                  static_cast<unsigned long long>(row.requests),
                  static_cast<unsigned long long>(row.cache_hits),
                  static_cast<unsigned long long>(row.errors),
                  row.latency.Quantile(0.50) * 1e3,
                  row.latency.Quantile(0.95) * 1e3,
                  row.latency.Quantile(0.99) * 1e3);
    out += line;
  }
  for (const PriorityClassSnapshot& row : classes) {
    if (row.admitted == 0 && row.rejected == 0 && row.deadline_shed == 0 &&
        row.cancelled == 0) {
      continue;
    }
    std::snprintf(line, sizeof(line),
                  "class %-12s %9llu admitted %6llu rejected %5llu shed "
                  "%5llu cancelled  p95 %8.3fms  p99 %8.3fms\n",
                  row.name.c_str(),
                  static_cast<unsigned long long>(row.admitted),
                  static_cast<unsigned long long>(row.rejected),
                  static_cast<unsigned long long>(row.deadline_shed),
                  static_cast<unsigned long long>(row.cancelled),
                  row.latency.Quantile(0.95) * 1e3,
                  row.latency.Quantile(0.99) * 1e3);
    out += line;
  }
  if (!shard_rows.empty()) {
    out += "shard rows:";
    for (size_t i = 0; i < shard_rows.size(); ++i) {
      std::snprintf(line, sizeof(line), " s%zu=%llu", i,
                    static_cast<unsigned long long>(shard_rows[i]));
      out += line;
    }
    std::snprintf(line, sizeof(line), "  skew(max/mean)=%.2f\n", shard_skew);
    out += line;
  }
  if (scan_rows_scanned > 0 || scan_blocks_total > 0) {
    const double skip_pct =
        scan_blocks_total == 0
            ? 0.0
            : 100.0 * static_cast<double>(scan_blocks_skipped) /
                  static_cast<double>(scan_blocks_total);
    std::snprintf(line, sizeof(line),
                  "scan: %llu rows, %llu blocks, %llu skipped (%.1f%%)\n",
                  static_cast<unsigned long long>(scan_rows_scanned),
                  static_cast<unsigned long long>(scan_blocks_total),
                  static_cast<unsigned long long>(scan_blocks_skipped),
                  skip_pct);
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "total: %llu requests, %llu cache hits, %llu errors, "
                "%llu rejected\n",
                static_cast<unsigned long long>(total_requests),
                static_cast<unsigned long long>(total_cache_hits),
                static_cast<unsigned long long>(total_errors),
                static_cast<unsigned long long>(total_rejected));
  out += line;
  return out;
}

TransportMetrics::TransportMetrics(size_t num_shards)
    : num_shards_(num_shards),
      shards_(std::make_unique<ShardSlot[]>(num_shards)) {}

void TransportMetrics::RecordRoundTrip(size_t shard, uint64_t bytes_sent,
                                       uint64_t bytes_received,
                                       double rtt_seconds, bool ok) {
  TSB_CHECK_LT(shard, num_shards_);
  ShardSlot& s = shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  ++s.requests;
  if (!ok) ++s.failures;
  s.bytes_sent += bytes_sent;
  s.bytes_received += bytes_received;
  s.rtt.Record(rtt_seconds);
}

void TransportMetrics::RecordReconnect(size_t shard) {
  TSB_CHECK_LT(shard, num_shards_);
  ShardSlot& s = shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  ++s.reconnects;
}

TransportMetricsSnapshot TransportMetrics::Snapshot() const {
  TransportMetricsSnapshot snap;
  snap.shards.reserve(num_shards_);
  for (size_t i = 0; i < num_shards_; ++i) {
    const ShardSlot& s = shards_[i];
    std::lock_guard<std::mutex> lock(s.mu);
    TransportShardSnapshot row;
    row.requests = s.requests;
    row.failures = s.failures;
    row.bytes_sent = s.bytes_sent;
    row.bytes_received = s.bytes_received;
    row.reconnects = s.reconnects;
    row.rtt = s.rtt;
    snap.total.requests += row.requests;
    snap.total.failures += row.failures;
    snap.total.bytes_sent += row.bytes_sent;
    snap.total.bytes_received += row.bytes_received;
    snap.total.reconnects += row.reconnects;
    snap.shards.push_back(std::move(row));
  }
  return snap;
}

void TransportMetrics::Reset() {
  for (size_t i = 0; i < num_shards_; ++i) {
    ShardSlot& s = shards_[i];
    std::lock_guard<std::mutex> lock(s.mu);
    s.requests = 0;
    s.failures = 0;
    s.bytes_sent = 0;
    s.bytes_received = 0;
    s.reconnects = 0;
    s.rtt.Reset();
  }
}

std::string TransportMetricsSnapshot::ToString() const {
  std::string out =
      "shard   requests  failed  reconn      sent B      recv B  "
      "rtt p50(ms)  rtt p95(ms)  rtt p99(ms)\n";
  char line[200];
  for (size_t i = 0; i < shards.size(); ++i) {
    const TransportShardSnapshot& row = shards[i];
    if (row.requests == 0 && row.reconnects == 0) continue;
    std::snprintf(
        line, sizeof(line),
        "s%-5zu %9llu %7llu %7llu %11llu %11llu %12.3f %12.3f %12.3f\n",
        i, static_cast<unsigned long long>(row.requests),
        static_cast<unsigned long long>(row.failures),
        static_cast<unsigned long long>(row.reconnects),
        static_cast<unsigned long long>(row.bytes_sent),
        static_cast<unsigned long long>(row.bytes_received),
        row.rtt.Quantile(0.50) * 1e3, row.rtt.Quantile(0.95) * 1e3,
        row.rtt.Quantile(0.99) * 1e3);
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "total: %llu round-trips, %llu failed, %llu reconnects, "
                "%llu B out, %llu B in\n",
                static_cast<unsigned long long>(total.requests),
                static_cast<unsigned long long>(total.failures),
                static_cast<unsigned long long>(total.reconnects),
                static_cast<unsigned long long>(total.bytes_sent),
                static_cast<unsigned long long>(total.bytes_received));
  out += line;
  return out;
}

ReplicaMetrics::ReplicaMetrics(std::vector<size_t> replicas_per_shard)
    : shards_(replicas_per_shard.size()) {
  for (size_t s = 0; s < replicas_per_shard.size(); ++s) {
    TSB_CHECK_GE(replicas_per_shard[s], 1u);
    shards_[s].replicas.reserve(replicas_per_shard[s]);
    for (size_t r = 0; r < replicas_per_shard[s]; ++r) {
      shards_[s].replicas.push_back(std::make_unique<ReplicaSlot>());
    }
  }
}

void ReplicaMetrics::RecordAttempt(size_t shard, size_t replica,
                                   bool is_probe, bool is_hedge) {
  TSB_CHECK_LT(shard, shards_.size());
  TSB_CHECK_LT(replica, shards_[shard].replicas.size());
  ReplicaSlot& r = *shards_[shard].replicas[replica];
  r.outstanding.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(r.mu);
  ++r.attempts;
  if (is_probe) ++r.probes;
  if (is_hedge) ++r.hedge_attempts;
}

void ReplicaMetrics::RecordOutcome(size_t shard, size_t replica,
                                   double rtt_seconds, bool ok) {
  TSB_CHECK_LT(shard, shards_.size());
  TSB_CHECK_LT(replica, shards_[shard].replicas.size());
  ReplicaSlot& r = *shards_[shard].replicas[replica];
  r.outstanding.fetch_sub(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(r.mu);
    if (!ok) ++r.failures;
    // Failures feed the EWMA too: a replica timing out at the deadline
    // must look slow to the router, not untouched.
    r.rtt_ewma = r.rtt_ewma == 0.0
                     ? rtt_seconds
                     : kEwmaAlpha * rtt_seconds +
                           (1.0 - kEwmaAlpha) * r.rtt_ewma;
    r.rtt.Record(rtt_seconds);
  }
  ShardSlot& s = shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  ++s.shard_attempts;
  if (ok) s.shard_rtt.Record(rtt_seconds);
}

void ReplicaMetrics::RecordHedgeWin(size_t shard, size_t replica) {
  TSB_CHECK_LT(shard, shards_.size());
  TSB_CHECK_LT(replica, shards_[shard].replicas.size());
  ReplicaSlot& r = *shards_[shard].replicas[replica];
  std::lock_guard<std::mutex> lock(r.mu);
  ++r.hedge_wins;
}

void ReplicaMetrics::RecordHedgeLaunched(size_t shard) {
  TSB_CHECK_LT(shard, shards_.size());
  std::lock_guard<std::mutex> lock(shards_[shard].mu);
  ++shards_[shard].hedges_launched;
}

void ReplicaMetrics::RecordFailover(size_t shard) {
  TSB_CHECK_LT(shard, shards_.size());
  std::lock_guard<std::mutex> lock(shards_[shard].mu);
  ++shards_[shard].failovers;
}

void ReplicaMetrics::RecordExhausted(size_t shard) {
  TSB_CHECK_LT(shard, shards_.size());
  std::lock_guard<std::mutex> lock(shards_[shard].mu);
  ++shards_[shard].exhausted;
}

void ReplicaMetrics::RecordEjection(size_t shard, size_t replica) {
  TSB_CHECK_LT(shard, shards_.size());
  TSB_CHECK_LT(replica, shards_[shard].replicas.size());
  ReplicaSlot& r = *shards_[shard].replicas[replica];
  std::lock_guard<std::mutex> lock(r.mu);
  ++r.ejections;
}

void ReplicaMetrics::RecordReinstatement(size_t shard, size_t replica) {
  TSB_CHECK_LT(shard, shards_.size());
  TSB_CHECK_LT(replica, shards_[shard].replicas.size());
  ReplicaSlot& r = *shards_[shard].replicas[replica];
  std::lock_guard<std::mutex> lock(r.mu);
  ++r.reinstatements;
}

void ReplicaMetrics::RecordQuarantine(size_t shard, size_t replica) {
  TSB_CHECK_LT(shard, shards_.size());
  TSB_CHECK_LT(replica, shards_[shard].replicas.size());
  ReplicaSlot& r = *shards_[shard].replicas[replica];
  std::lock_guard<std::mutex> lock(r.mu);
  ++r.quarantines;
}

uint64_t ReplicaMetrics::Outstanding(size_t shard, size_t replica) const {
  TSB_CHECK_LT(shard, shards_.size());
  TSB_CHECK_LT(replica, shards_[shard].replicas.size());
  return shards_[shard].replicas[replica]->outstanding.load(
      std::memory_order_relaxed);
}

double ReplicaMetrics::RttEwma(size_t shard, size_t replica) const {
  TSB_CHECK_LT(shard, shards_.size());
  TSB_CHECK_LT(replica, shards_[shard].replicas.size());
  const ReplicaSlot& r = *shards_[shard].replicas[replica];
  std::lock_guard<std::mutex> lock(r.mu);
  return r.rtt_ewma;
}

double ReplicaMetrics::ShardRttP95(size_t shard,
                                   uint64_t min_samples) const {
  TSB_CHECK_LT(shard, shards_.size());
  const ShardSlot& s = shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.shard_attempts < min_samples) return 0.0;
  return s.shard_rtt.Quantile(0.95);
}

ReplicaMetricsSnapshot ReplicaMetrics::Snapshot() const {
  ReplicaMetricsSnapshot snap;
  snap.shards.reserve(shards_.size());
  for (const ShardSlot& s : shards_) {
    ReplicaShardSnapshot shard_row;
    {
      std::lock_guard<std::mutex> lock(s.mu);
      shard_row.hedges_launched = s.hedges_launched;
      shard_row.failovers = s.failovers;
      shard_row.exhausted = s.exhausted;
    }
    shard_row.replicas.reserve(s.replicas.size());
    for (const std::unique_ptr<ReplicaSlot>& slot : s.replicas) {
      const ReplicaSlot& r = *slot;
      std::lock_guard<std::mutex> lock(r.mu);
      ReplicaSnapshot row;
      row.attempts = r.attempts;
      row.failures = r.failures;
      row.probes = r.probes;
      row.hedge_attempts = r.hedge_attempts;
      row.hedge_wins = r.hedge_wins;
      row.ejections = r.ejections;
      row.reinstatements = r.reinstatements;
      row.quarantines = r.quarantines;
      row.outstanding = r.outstanding.load(std::memory_order_relaxed);
      row.rtt_ewma = r.rtt_ewma;
      row.rtt = r.rtt;
      shard_row.replicas.push_back(std::move(row));
    }
    snap.shards.push_back(std::move(shard_row));
  }
  return snap;
}

void ReplicaMetrics::Reset() {
  for (ShardSlot& s : shards_) {
    {
      std::lock_guard<std::mutex> lock(s.mu);
      s.hedges_launched = 0;
      s.failovers = 0;
      s.exhausted = 0;
      s.shard_rtt.Reset();
      s.shard_attempts = 0;
    }
    for (std::unique_ptr<ReplicaSlot>& slot : s.replicas) {
      ReplicaSlot& r = *slot;
      std::lock_guard<std::mutex> lock(r.mu);
      r.attempts = 0;
      r.failures = 0;
      r.probes = 0;
      r.hedge_attempts = 0;
      r.hedge_wins = 0;
      r.ejections = 0;
      r.reinstatements = 0;
      r.quarantines = 0;
      r.rtt_ewma = 0.0;
      r.rtt.Reset();
      // outstanding is owned by in-flight attempts; leave the gauge alone.
    }
  }
}

std::string ReplicaMetricsSnapshot::ToString() const {
  std::string out =
      "shard rep  attempts  failed  probes  hedged  h-wins  eject  "
      "outst  ewma(ms)  rtt p95(ms)  rtt p99(ms)\n";
  char line[220];
  for (size_t s = 0; s < shards.size(); ++s) {
    const ReplicaShardSnapshot& shard_row = shards[s];
    for (size_t r = 0; r < shard_row.replicas.size(); ++r) {
      const ReplicaSnapshot& row = shard_row.replicas[r];
      if (row.attempts == 0) continue;
      std::snprintf(
          line, sizeof(line),
          "s%-4zu r%-3zu %8llu %7llu %7llu %7llu %7llu %6llu %6llu "
          "%9.3f %12.3f %12.3f\n",
          s, r, static_cast<unsigned long long>(row.attempts),
          static_cast<unsigned long long>(row.failures),
          static_cast<unsigned long long>(row.probes),
          static_cast<unsigned long long>(row.hedge_attempts),
          static_cast<unsigned long long>(row.hedge_wins),
          static_cast<unsigned long long>(row.ejections),
          static_cast<unsigned long long>(row.outstanding),
          row.rtt_ewma * 1e3, row.rtt.Quantile(0.95) * 1e3,
          row.rtt.Quantile(0.99) * 1e3);
      out += line;
    }
    if (shard_row.hedges_launched != 0 || shard_row.failovers != 0 ||
        shard_row.exhausted != 0) {
      std::snprintf(line, sizeof(line),
                    "s%-4zu hedges=%llu failovers=%llu exhausted=%llu\n", s,
                    static_cast<unsigned long long>(shard_row.hedges_launched),
                    static_cast<unsigned long long>(shard_row.failovers),
                    static_cast<unsigned long long>(shard_row.exhausted));
      out += line;
    }
  }
  return out;
}

/// --- obs::MetricsSource exports --------------------------------------------
///
/// The registry collectors walk the same Snapshot() state the ToString
/// views render, so the Prometheus/JSON exports and the human tables can
/// never disagree.

void ServiceMetrics::Collect(obs::MetricsSink* sink) const {
  const MetricsSnapshot snap = Snapshot();
  using Labels = obs::MetricsSink::Labels;
  for (const MethodStatsSnapshot& row : snap.methods) {
    const Labels labels = {{"method", row.method}};
    sink->Counter("tsb_service_requests_total", "Admitted requests",
                  labels, static_cast<double>(row.requests));
    sink->Counter("tsb_service_cache_hits_total", "Cache hits", labels,
                  static_cast<double>(row.cache_hits));
    sink->Counter("tsb_service_errors_total", "Engine failures", labels,
                  static_cast<double>(row.errors));
    sink->Histogram("tsb_service_latency_hist_seconds",
                    "End-to-end service latency (mergeable buckets)",
                    labels, HistValue(row.latency));
    sink->Counter("tsb_service_cpu_seconds_total",
                  "Thread CPU burned executing this method", labels,
                  static_cast<double>(row.cost.cpu_ns) / 1e9);
    sink->Counter("tsb_service_deserialized_bytes_total",
                  "Bytes decoded from storage and the wire", labels,
                  static_cast<double>(row.cost.bytes_deserialized));
    sink->Counter("tsb_service_catalog_interns_total",
                  "Catalog symbol interns", labels,
                  static_cast<double>(row.cost.catalog_interns));
    sink->Counter("tsb_service_heap_bytes_total",
                  "Bytes reserved in engine scratch buffers", labels,
                  static_cast<double>(row.cost.heap_bytes));
  }
  for (const PriorityClassSnapshot& row : snap.classes) {
    const Labels labels = {{"class", row.name}};
    sink->Counter("tsb_service_admitted_total",
                  "Requests entering the class queue", labels,
                  static_cast<double>(row.admitted));
    sink->Counter("tsb_service_rejected_total",
                  "Requests bounced at the class bound", labels,
                  static_cast<double>(row.rejected));
    sink->Counter("tsb_service_deadline_shed_total",
                  "Requests shed after deadline expiry", labels,
                  static_cast<double>(row.deadline_shed));
    sink->Counter("tsb_service_cancelled_total",
                  "Requests cancelled before execution", labels,
                  static_cast<double>(row.cancelled));
    sink->Histogram("tsb_service_class_latency_hist_seconds",
                    "Per-class latency (mergeable buckets)", labels,
                    HistValue(row.latency));
  }
  for (size_t s = 0; s < snap.shard_rows.size(); ++s) {
    sink->Gauge("tsb_service_shard_rows", "AllTops rows per shard",
                {{"shard", std::to_string(s)}},
                static_cast<double>(snap.shard_rows[s]));
  }
  if (!snap.shard_rows.empty()) {
    sink->Gauge("tsb_service_shard_skew", "Shard row skew (max/mean)", {},
                snap.shard_skew);
  }
  sink->Counter("tsb_service_scan_rows_total", "Rows scanned by executed "
                "queries", {}, static_cast<double>(snap.scan_rows_scanned));
  sink->Counter("tsb_service_scan_blocks_total",
                "Columnar blocks considered", {},
                static_cast<double>(snap.scan_blocks_total));
  sink->Counter("tsb_service_scan_blocks_skipped_total",
                "Columnar blocks skipped by zone maps", {},
                static_cast<double>(snap.scan_blocks_skipped));
}

void TransportMetrics::Collect(obs::MetricsSink* sink) const {
  const TransportMetricsSnapshot snap = Snapshot();
  using Labels = obs::MetricsSink::Labels;
  for (size_t s = 0; s < snap.shards.size(); ++s) {
    const TransportShardSnapshot& row = snap.shards[s];
    if (row.requests == 0 && row.reconnects == 0) continue;
    const Labels labels = {{"shard", std::to_string(s)}};
    sink->Counter("tsb_transport_requests_total",
                  "Sub-query round-trips attempted", labels,
                  static_cast<double>(row.requests));
    sink->Counter("tsb_transport_failures_total",
                  "Round-trips without a response", labels,
                  static_cast<double>(row.failures));
    sink->Counter("tsb_transport_bytes_sent_total",
                  "Encoded request bytes sent", labels,
                  static_cast<double>(row.bytes_sent));
    sink->Counter("tsb_transport_bytes_received_total",
                  "Encoded response bytes received", labels,
                  static_cast<double>(row.bytes_received));
    sink->Counter("tsb_transport_reconnects_total",
                  "Successful dials after a failure", labels,
                  static_cast<double>(row.reconnects));
    sink->Histogram("tsb_transport_rtt_hist_seconds",
                    "Round-trip time (mergeable buckets)", labels,
                    HistValue(row.rtt));
  }
}

void ReplicaMetrics::Collect(obs::MetricsSink* sink) const {
  const ReplicaMetricsSnapshot snap = Snapshot();
  using Labels = obs::MetricsSink::Labels;
  for (size_t s = 0; s < snap.shards.size(); ++s) {
    const ReplicaShardSnapshot& shard_row = snap.shards[s];
    const std::string shard_label = std::to_string(s);
    for (size_t r = 0; r < shard_row.replicas.size(); ++r) {
      const ReplicaSnapshot& row = shard_row.replicas[r];
      if (row.attempts == 0) continue;
      const Labels labels = {{"shard", shard_label},
                             {"replica", std::to_string(r)}};
      sink->Counter("tsb_replica_attempts_total",
                    "Round-trip attempts routed to this replica", labels,
                    static_cast<double>(row.attempts));
      sink->Counter("tsb_replica_failures_total",
                    "Attempts without a response", labels,
                    static_cast<double>(row.failures));
      sink->Counter("tsb_replica_probes_total",
                    "Attempts sent as ejection probes", labels,
                    static_cast<double>(row.probes));
      sink->Counter("tsb_replica_hedge_attempts_total",
                    "Attempts fired as the hedge copy", labels,
                    static_cast<double>(row.hedge_attempts));
      sink->Counter("tsb_replica_hedge_wins_total",
                    "Hedge copies answering first", labels,
                    static_cast<double>(row.hedge_wins));
      sink->Counter("tsb_replica_ejections_total",
                    "Health-ladder ejections", labels,
                    static_cast<double>(row.ejections));
      sink->Counter("tsb_replica_reinstatements_total",
                    "Recoveries back to healthy", labels,
                    static_cast<double>(row.reinstatements));
      sink->Counter("tsb_replica_quarantines_total",
                    "Stale-epoch quarantine entries", labels,
                    static_cast<double>(row.quarantines));
      sink->Gauge("tsb_replica_outstanding", "In-flight attempts right now",
                  labels, static_cast<double>(row.outstanding));
      sink->Gauge("tsb_replica_rtt_ewma_seconds",
                  "Load-routing RTT EWMA", labels, row.rtt_ewma);
      sink->Histogram("tsb_replica_rtt_hist_seconds",
                      "Attempt round-trip time (mergeable buckets)",
                      labels, HistValue(row.rtt));
    }
    const Labels labels = {{"shard", shard_label}};
    if (shard_row.hedges_launched != 0 || shard_row.failovers != 0 ||
        shard_row.exhausted != 0) {
      sink->Counter("tsb_replica_hedges_launched_total",
                    "Sends that fired a hedge copy", labels,
                    static_cast<double>(shard_row.hedges_launched));
      sink->Counter("tsb_replica_failovers_total",
                    "Attempts retried on a sibling replica", labels,
                    static_cast<double>(shard_row.failovers));
      sink->Counter("tsb_replica_exhausted_total",
                    "Sends that failed on every replica", labels,
                    static_cast<double>(shard_row.exhausted));
    }
  }
}

obs::FleetSnapshot BuildFleetSnapshot(const MetricsSnapshot& service,
                                      const ReplicaMetricsSnapshot* replicas,
                                      const obs::SlowQueryLog* slow_log) {
  obs::FleetSnapshot snap;
  snap.processes = 1;
  for (const MethodStatsSnapshot& row : service.methods) {
    obs::FleetMethodStats method;
    method.method = row.method;
    method.requests = row.requests;
    method.cache_hits = row.cache_hits;
    method.errors = row.errors;
    method.latency = row.latency;
    method.cost = row.cost;
    snap.methods.push_back(std::move(method));
  }
  snap.total_requests = service.total_requests;
  snap.total_cache_hits = service.total_cache_hits;
  snap.total_errors = service.total_errors;
  snap.total_rejected = service.total_rejected;
  snap.scan_rows = service.scan_rows_scanned;
  snap.scan_blocks_total = service.scan_blocks_total;
  snap.scan_blocks_skipped = service.scan_blocks_skipped;
  snap.shard_rows = service.shard_rows;
  if (replicas != nullptr) {
    for (const ReplicaShardSnapshot& shard : replicas->shards) {
      snap.hedges_launched += shard.hedges_launched;
      snap.failovers += shard.failovers;
      snap.exhausted += shard.exhausted;
    }
  }
  if (slow_log != nullptr) {
    for (const obs::SlowQueryRecord& record : slow_log->Recent()) {
      const uint64_t bytes =
          record.bytes_deserialized + record.heap_bytes;
      if (record.cpu_ns == 0 && bytes == 0) continue;
      obs::FleetTopQuery query;
      query.request = record.request;
      query.method = record.method;
      query.service_seconds = record.service_seconds;
      query.cpu_ns = record.cpu_ns;
      query.bytes = bytes;
      snap.top_queries.push_back(std::move(query));
    }
  }
  snap.Normalize();
  return snap;
}

}  // namespace service
}  // namespace tsb
