#include "service/metrics.h"

#include <utility>

#include "common/logging.h"
#include "common/str_util.h"
#include "mutation/mutation_engine.h"

namespace tsb {
namespace service {

namespace {

constexpr obs::MetricKind kCounter = obs::MetricKind::kCounter;
constexpr obs::MetricKind kGauge = obs::MetricKind::kGauge;
constexpr obs::MetricKind kHistogram = obs::MetricKind::kHistogram;

const obs::MetricFamily kShardRows{"tsb_service_shard_rows",
                                   "AllTops rows per shard", kGauge,
                                   {"shard"}};
const obs::MetricFamily kShardSkew{"tsb_service_shard_skew",
                                   "Shard row skew (max/mean)", kGauge, {}};

const char* const kClassNames[ServiceMetrics::kNumClasses] = {"interactive",
                                                              "batch"};

/// The printf argument type of the tables' %llu columns.
unsigned long long Ull(uint64_t v) { return v; }

}  // namespace

using MethodCell = ServiceMetrics::MethodCell;
using ClassCell = ServiceMetrics::ClassCell;
using TransportCell = TransportMetrics::ShardCell;
using ReplicaCell = ReplicaMetrics::ReplicaCell;
using ReplicaShardCell = ReplicaMetrics::ShardCell;

const obs::CellTable<MethodCell> ServiceMetrics::kMethodCells(
    {"method"},
    {{{"tsb_service_requests_total", "Admitted requests", kCounter},
      &MethodCell::requests},
     {{"tsb_service_cache_hits_total", "Cache hits", kCounter},
      &MethodCell::cache_hits},
     {{"tsb_service_errors_total", "Engine failures", kCounter},
      &MethodCell::errors},
     {{"tsb_service_latency_hist_seconds",
       "End-to-end service latency (mergeable buckets)", kHistogram},
      &MethodCell::latency},
     {{"tsb_service_cpu_seconds_total",
       "Thread CPU burned executing this method", kCounter, {}, 1e9},
      &MethodCell::cpu_ns},
     {{"tsb_service_deserialized_bytes_total",
       "Bytes decoded from storage and the wire", kCounter},
      &MethodCell::bytes_deserialized},
     {{"tsb_service_catalog_interns_total", "Catalog symbol interns",
       kCounter},
      &MethodCell::catalog_interns},
     {{"tsb_service_heap_bytes_total",
       "Bytes reserved in engine scratch buffers", kCounter},
      &MethodCell::heap_bytes}},
    /*gate=*/{&MethodCell::requests});

const obs::CellTable<MethodCell> ServiceMetrics::kScanTotals(
    {},
    {{{"tsb_service_scan_rows_total", "Rows scanned by executed queries",
       kCounter},
      &MethodCell::rows_scanned},
     {{"tsb_service_scan_blocks_total", "Columnar blocks considered",
       kCounter},
      &MethodCell::blocks_total},
     {{"tsb_service_scan_blocks_skipped_total",
       "Columnar blocks skipped by zone maps", kCounter},
      &MethodCell::blocks_skipped}});

const obs::CellTable<ClassCell> ServiceMetrics::kClassCells(
    {"class"},
    {{{"tsb_service_admitted_total", "Requests entering the class queue",
       kCounter},
      &ClassCell::admitted},
     {{"tsb_service_rejected_total", "Requests bounced at the class bound",
       kCounter},
      &ClassCell::rejected},
     {{"tsb_service_deadline_shed_total",
       "Requests shed after deadline expiry", kCounter},
      &ClassCell::deadline_shed},
     {{"tsb_service_cancelled_total", "Requests cancelled before execution",
       kCounter},
      &ClassCell::cancelled},
     {{"tsb_service_class_latency_hist_seconds",
       "Per-class latency (mergeable buckets)", kHistogram},
      &ClassCell::latency}});

const obs::CellTable<TransportCell> TransportMetrics::kShardCells(
    {"shard"},
    {{{"tsb_transport_requests_total", "Sub-query round-trips attempted",
       kCounter},
      &TransportCell::requests},
     {{"tsb_transport_failures_total", "Round-trips without a response",
       kCounter},
      &TransportCell::failures},
     {{"tsb_transport_bytes_sent_total", "Encoded request bytes sent",
       kCounter},
      &TransportCell::bytes_sent},
     {{"tsb_transport_bytes_received_total",
       "Encoded response bytes received", kCounter},
      &TransportCell::bytes_received},
     {{"tsb_transport_reconnects_total", "Successful dials after a failure",
       kCounter},
      &TransportCell::reconnects},
     {{"tsb_transport_rtt_hist_seconds",
       "Round-trip time (mergeable buckets)", kHistogram},
      &TransportCell::rtt}},
    /*gate=*/{&TransportCell::requests, &TransportCell::reconnects});

const obs::CellTable<ReplicaCell> ReplicaMetrics::kReplicaCells(
    {"shard", "replica"},
    {{{"tsb_replica_attempts_total",
       "Round-trip attempts routed to this replica", kCounter},
      &ReplicaCell::attempts},
     {{"tsb_replica_failures_total", "Attempts without a response",
       kCounter},
      &ReplicaCell::failures},
     {{"tsb_replica_probes_total", "Attempts sent as ejection probes",
       kCounter},
      &ReplicaCell::probes},
     {{"tsb_replica_hedge_attempts_total", "Attempts fired as the hedge copy",
       kCounter},
      &ReplicaCell::hedge_attempts},
     {{"tsb_replica_hedge_wins_total", "Hedge copies answering first",
       kCounter},
      &ReplicaCell::hedge_wins},
     {{"tsb_replica_ejections_total", "Health-ladder ejections", kCounter},
      &ReplicaCell::ejections},
     {{"tsb_replica_reinstatements_total", "Recoveries back to healthy",
       kCounter},
      &ReplicaCell::reinstatements},
     {{"tsb_replica_quarantines_total", "Stale-epoch quarantine entries",
       kCounter},
      &ReplicaCell::quarantines},
     {{"tsb_replica_outstanding", "In-flight attempts right now", kGauge},
      &ReplicaCell::outstanding},
     {{"tsb_replica_rtt_ewma_seconds", "Load-routing RTT EWMA", kGauge},
      &ReplicaCell::rtt_ewma},
     {{"tsb_replica_rtt_hist_seconds",
       "Attempt round-trip time (mergeable buckets)", kHistogram},
      &ReplicaCell::rtt}},
    /*gate=*/{&ReplicaCell::attempts});

const obs::CellTable<ReplicaShardCell> ReplicaMetrics::kShardCells(
    {"shard"},
    {{{"tsb_replica_hedges_launched_total", "Sends that fired a hedge copy",
       kCounter},
      &ReplicaShardCell::hedges_launched},
     {{"tsb_replica_failovers_total", "Attempts retried on a sibling replica",
       kCounter},
      &ReplicaShardCell::failovers},
     {{"tsb_replica_exhausted_total", "Sends that failed on every replica",
       kCounter},
      &ReplicaShardCell::exhausted}},
    /*gate=*/{&ReplicaShardCell::hedges_launched, &ReplicaShardCell::failovers,
              &ReplicaShardCell::exhausted});

// --- ServiceMetrics ---------------------------------------------------------

std::string ServiceMetrics::SlotName(size_t slot) {
  if (slot == kTripleSlot) return "Triple";
  return engine::MethodKindToString(static_cast<engine::MethodKind>(slot));
}

void ServiceMetrics::RecordRequest(size_t slot, double seconds,
                                   bool cache_hit, bool ok,
                                   const engine::ExecStats* executed) {
  TSB_CHECK_LT(slot, kNumSlots);
  MethodCell& c = methods_[slot];
  std::lock_guard<std::mutex> lock(c.mu);
  ++c.requests;
  if (cache_hit) ++c.cache_hits;
  if (!ok) ++c.errors;
  c.latency.Record(seconds);
  if (executed != nullptr) {
    c.cpu_ns += executed->cpu_ns;
    c.bytes_deserialized += executed->bytes_deserialized;
    c.catalog_interns += executed->catalog_interns;
    c.heap_bytes += executed->heap_bytes;
    c.rows_scanned += executed->rows_scanned;
    c.blocks_total += executed->blocks_total;
    c.blocks_skipped += executed->blocks_skipped;
  }
}

void ServiceMetrics::Bump(size_t cls, uint64_t ClassCell::*counter) {
  TSB_CHECK_LT(cls, kNumClasses);
  std::lock_guard<std::mutex> lock(classes_[cls].mu);
  ++(classes_[cls].*counter);
}

void ServiceMetrics::RecordClassLatency(size_t cls, double seconds) {
  TSB_CHECK_LT(cls, kNumClasses);
  std::lock_guard<std::mutex> lock(classes_[cls].mu);
  classes_[cls].latency.Record(seconds);
}

void ServiceMetrics::SetShardRows(std::vector<uint64_t> rows) {
  std::lock_guard<std::mutex> lock(shard_mu_);
  shard_rows_ = std::move(rows);
}

void ServiceMetrics::Collect(obs::MetricsRead* read) const {
  MethodCell scan;
  for (size_t slot = 0; slot < kNumSlots; ++slot) {
    std::lock_guard<std::mutex> lock(methods_[slot].mu);
    kMethodCells.Read(methods_[slot], {SlotName(slot)}, read);
    kScanTotals.Accumulate(methods_[slot], &scan);
  }
  for (size_t cls = 0; cls < kNumClasses; ++cls) {
    std::lock_guard<std::mutex> lock(classes_[cls].mu);
    kClassCells.Read(classes_[cls], {kClassNames[cls]}, read);
  }
  {
    std::lock_guard<std::mutex> lock(shard_mu_);
    for (size_t s = 0; s < shard_rows_.size(); ++s) {
      read->Add(kShardRows, {std::to_string(s)}).Set(shard_rows_[s]);
    }
    if (!shard_rows_.empty()) {
      read->Add(kShardSkew, {}).Set(obs::ShardSkew(shard_rows_));
    }
  }
  kScanTotals.Read(scan, {}, read);
}

std::string MetricsTable(const obs::MetricsRead& read) {
  std::string out =
      "method              requests   hits  errors    p50(ms)    p95(ms)"
      "    p99(ms)\n";
  MethodCell total;
  ServiceMetrics::kMethodCells.ForEachRow(
      read, [&](const obs::MetricSample& head, const MethodCell& c) {
        out += StrFormat("%-18s %9llu %6llu %7llu %10.3f %10.3f %10.3f\n",
                         head.labels[0].c_str(), Ull(c.requests),
                         Ull(c.cache_hits), Ull(c.errors),
                         c.latency.Quantile(0.50) * 1e3,
                         c.latency.Quantile(0.95) * 1e3,
                         c.latency.Quantile(0.99) * 1e3);
        ServiceMetrics::kMethodCells.Accumulate(c, &total);
      });
  ClassCell class_total;
  ServiceMetrics::kClassCells.ForEachRow(
      read, [&](const obs::MetricSample& head, const ClassCell& c) {
        ServiceMetrics::kClassCells.Accumulate(c, &class_total);
        if (c.admitted == 0 && c.rejected == 0 && c.deadline_shed == 0 &&
            c.cancelled == 0) {
          return;
        }
        out += StrFormat(
            "class %-12s %9llu admitted %6llu rejected %5llu shed %5llu "
            "cancelled  p95 %8.3fms  p99 %8.3fms\n",
            head.labels[0].c_str(), Ull(c.admitted), Ull(c.rejected),
            Ull(c.deadline_shed), Ull(c.cancelled),
            c.latency.Quantile(0.95) * 1e3, c.latency.Quantile(0.99) * 1e3);
      });
  const std::vector<const obs::MetricSample*> shard_rows =
      read.All(kShardRows.name);
  if (!shard_rows.empty()) {
    out += "shard rows:";
    for (size_t i = 0; i < shard_rows.size(); ++i) {
      out += StrFormat(" s%zu=%llu", i, Ull(shard_rows[i]->count));
    }
    out += StrFormat("  skew(max/mean)=%.2f\n",
                     read.Find(kShardSkew.name)->value);
  }
  ServiceMetrics::kScanTotals.ForEachRow(
      read, [&](const obs::MetricSample&, const MethodCell& c) {
        if (c.rows_scanned == 0 && c.blocks_total == 0) return;
        const double skip_pct =
            c.blocks_total == 0
                ? 0.0
                : 100.0 * static_cast<double>(c.blocks_skipped) /
                      static_cast<double>(c.blocks_total);
        out += StrFormat("scan: %llu rows, %llu blocks, %llu skipped "
                         "(%.1f%%)\n",
                         Ull(c.rows_scanned), Ull(c.blocks_total),
                         Ull(c.blocks_skipped), skip_pct);
      });
  out += StrFormat(
      "total: %llu requests, %llu cache hits, %llu errors, %llu rejected\n",
      Ull(total.requests), Ull(total.cache_hits), Ull(total.errors),
      Ull(class_total.rejected));
  return out;
}

// --- TransportMetrics -------------------------------------------------------

TransportMetrics::TransportMetrics(size_t num_shards)
    : num_shards_(num_shards),
      shards_(std::make_unique<ShardCell[]>(num_shards)) {}

void TransportMetrics::RecordRoundTrip(size_t shard, uint64_t bytes_sent,
                                       uint64_t bytes_received,
                                       double rtt_seconds, bool ok) {
  TSB_CHECK_LT(shard, num_shards_);
  ShardCell& c = shards_[shard];
  std::lock_guard<std::mutex> lock(c.mu);
  ++c.requests;
  if (!ok) ++c.failures;
  c.bytes_sent += bytes_sent;
  c.bytes_received += bytes_received;
  c.rtt.Record(rtt_seconds);
}

void TransportMetrics::RecordReconnect(size_t shard) {
  TSB_CHECK_LT(shard, num_shards_);
  ShardCell& c = shards_[shard];
  std::lock_guard<std::mutex> lock(c.mu);
  ++c.reconnects;
}

void TransportMetrics::Collect(obs::MetricsRead* read) const {
  for (size_t i = 0; i < num_shards_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    kShardCells.Read(shards_[i], {std::to_string(i)}, read);
  }
}

std::string TransportTable(const obs::MetricsRead& read) {
  std::string out =
      "shard   requests  failed  reconn      sent B      recv B  "
      "rtt p50(ms)  rtt p95(ms)  rtt p99(ms)\n";
  TransportCell total;
  TransportMetrics::kShardCells.ForEachRow(
      read, [&](const obs::MetricSample& head, const TransportCell& c) {
        out += StrFormat(
            "s%-5s %9llu %7llu %7llu %11llu %11llu %12.3f %12.3f %12.3f\n",
            head.labels[0].c_str(), Ull(c.requests), Ull(c.failures),
            Ull(c.reconnects), Ull(c.bytes_sent), Ull(c.bytes_received),
            c.rtt.Quantile(0.50) * 1e3, c.rtt.Quantile(0.95) * 1e3,
            c.rtt.Quantile(0.99) * 1e3);
        TransportMetrics::kShardCells.Accumulate(c, &total);
      });
  out += StrFormat(
      "total: %llu round-trips, %llu failed, %llu reconnects, %llu B out, "
      "%llu B in\n",
      Ull(total.requests), Ull(total.failures), Ull(total.reconnects),
      Ull(total.bytes_sent), Ull(total.bytes_received));
  return out;
}

// --- ReplicaMetrics ---------------------------------------------------------

ReplicaMetrics::ReplicaMetrics(std::vector<size_t> replicas_per_shard)
    : shards_(replicas_per_shard.size()) {
  for (size_t s = 0; s < replicas_per_shard.size(); ++s) {
    TSB_CHECK_GE(replicas_per_shard[s], 1u);
    shards_[s].replicas.reserve(replicas_per_shard[s]);
    for (size_t r = 0; r < replicas_per_shard[s]; ++r) {
      shards_[s].replicas.push_back(std::make_unique<ReplicaCell>());
    }
  }
}

ReplicaCell& ReplicaMetrics::Replica(size_t shard, size_t replica) const {
  TSB_CHECK_LT(shard, shards_.size());
  TSB_CHECK_LT(replica, shards_[shard].replicas.size());
  return *shards_[shard].replicas[replica];
}

void ReplicaMetrics::Bump(size_t shard, size_t replica,
                          uint64_t ReplicaCell::*counter) {
  ReplicaCell& r = Replica(shard, replica);
  std::lock_guard<std::mutex> lock(r.mu);
  ++(r.*counter);
}

void ReplicaMetrics::Bump(size_t shard, uint64_t ShardCell::*counter) {
  TSB_CHECK_LT(shard, shards_.size());
  std::lock_guard<std::mutex> lock(shards_[shard].mu);
  ++(shards_[shard].*counter);
}

void ReplicaMetrics::RecordAttempt(size_t shard, size_t replica,
                                   bool is_probe, bool is_hedge) {
  ReplicaCell& r = Replica(shard, replica);
  r.outstanding.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(r.mu);
  ++r.attempts;
  if (is_probe) ++r.probes;
  if (is_hedge) ++r.hedge_attempts;
}

void ReplicaMetrics::RecordOutcome(size_t shard, size_t replica,
                                   double rtt_seconds, bool ok) {
  ReplicaCell& r = Replica(shard, replica);
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
  ShardCell& s = shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  ++s.shard_attempts;
  if (ok) s.shard_rtt.Record(rtt_seconds);
}

uint64_t ReplicaMetrics::Outstanding(size_t shard, size_t replica) const {
  return Replica(shard, replica).outstanding.load(std::memory_order_relaxed);
}

double ReplicaMetrics::RttEwma(size_t shard, size_t replica) const {
  const ReplicaCell& r = Replica(shard, replica);
  std::lock_guard<std::mutex> lock(r.mu);
  return r.rtt_ewma;
}

double ReplicaMetrics::ShardRttP95(size_t shard,
                                   uint64_t min_samples) const {
  TSB_CHECK_LT(shard, shards_.size());
  const ShardCell& s = shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.shard_attempts < min_samples) return 0.0;
  return s.shard_rtt.Quantile(0.95);
}

void ReplicaMetrics::Collect(obs::MetricsRead* read) const {
  for (size_t s = 0; s < shards_.size(); ++s) {
    const std::string shard = std::to_string(s);
    for (size_t r = 0; r < shards_[s].replicas.size(); ++r) {
      const ReplicaCell& cell = *shards_[s].replicas[r];
      std::lock_guard<std::mutex> lock(cell.mu);
      kReplicaCells.Read(cell, {shard, std::to_string(r)}, read);
    }
    std::lock_guard<std::mutex> lock(shards_[s].mu);
    kShardCells.Read(shards_[s], {shard}, read);
  }
}

ReplicaMetricsSnapshot ReplicaMetrics::Snapshot() const {
  ReplicaMetricsSnapshot snap;
  snap.shards.resize(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    snap.shards[s].replicas.resize(shards_[s].replicas.size());
  }
  const obs::MetricsRead read = Read();
  ReplicaCell r;
  ShardCell sc;
  for (size_t i = 0; i < read.samples().size(); ++i) {
    const auto& labels = read.samples()[i].labels;
    if (kReplicaCells.RowAt(read, i, &r)) {
      ReplicaSnapshot& row = snap.shards[std::stoul(labels[0])]
                                 .replicas[std::stoul(labels[1])];
      row = {r.attempts,       r.failures,   r.probes,
             r.hedge_attempts, r.hedge_wins, r.ejections,
             r.reinstatements, r.quarantines, r.outstanding.load(),
             r.rtt_ewma,       r.rtt};
    } else if (kShardCells.RowAt(read, i, &sc)) {
      ReplicaShardSnapshot& row = snap.shards[std::stoul(labels[0])];
      row.hedges_launched = sc.hedges_launched;
      row.failovers = sc.failovers;
      row.exhausted = sc.exhausted;
    }
  }
  return snap;
}

std::string ReplicaTable(const obs::MetricsRead& read) {
  std::string out =
      "shard rep  attempts  failed  probes  hedged  h-wins  eject  "
      "outst  ewma(ms)  rtt p95(ms)  rtt p99(ms)\n";
  // In read order: each shard's replica rows, then its shard line.
  ReplicaCell r;
  ReplicaShardCell sc;
  for (size_t i = 0; i < read.samples().size(); ++i) {
    const std::vector<std::string>& labels = read.samples()[i].labels;
    if (ReplicaMetrics::kReplicaCells.RowAt(read, i, &r)) {
      out += StrFormat(
          "s%-4s r%-3s %8llu %7llu %7llu %7llu %7llu %6llu %6llu %9.3f "
          "%12.3f %12.3f\n",
          labels[0].c_str(), labels[1].c_str(), Ull(r.attempts),
          Ull(r.failures), Ull(r.probes), Ull(r.hedge_attempts),
          Ull(r.hedge_wins), Ull(r.ejections), Ull(r.outstanding.load()),
          r.rtt_ewma * 1e3, r.rtt.Quantile(0.95) * 1e3,
          r.rtt.Quantile(0.99) * 1e3);
    } else if (ReplicaMetrics::kShardCells.RowAt(read, i, &sc)) {
      out += StrFormat("s%-4s hedges=%llu failovers=%llu exhausted=%llu\n",
                       labels[0].c_str(), Ull(sc.hedges_launched),
                       Ull(sc.failovers), Ull(sc.exhausted));
    }
  }
  return out;
}

// --- The fleet cost snapshot ------------------------------------------------

obs::FleetSnapshot FleetSnapshotOf(const obs::MetricsRead& read,
                                   const obs::SlowQueryLog* slow_log) {
  obs::FleetSnapshot snap;
  ServiceMetrics::kMethodCells.ForEachRow(
      read, [&](const obs::MetricSample& head, const MethodCell& c) {
        snap.methods.push_back(
            {head.labels[0], c.requests, c.cache_hits, c.errors,
             c.latency,
             obs::CostCounters{c.cpu_ns, c.bytes_deserialized,
                               c.catalog_interns, c.heap_bytes}});
        snap.total_requests += c.requests;
        snap.total_cache_hits += c.cache_hits;
        snap.total_errors += c.errors;
      });
  ServiceMetrics::kClassCells.ForEachRow(
      read, [&](const obs::MetricSample&, const ClassCell& c) {
        snap.total_rejected += c.rejected;
      });
  ServiceMetrics::kScanTotals.ForEachRow(
      read, [&](const obs::MetricSample&, const MethodCell& c) {
        snap.scan_rows += c.rows_scanned;
        snap.scan_blocks_total += c.blocks_total;
        snap.scan_blocks_skipped += c.blocks_skipped;
      });
  for (const obs::MetricSample* row : read.All(kShardRows.name)) {
    snap.shard_rows.push_back(row->count);
  }
  ReplicaMetrics::kShardCells.ForEachRow(
      read, [&](const obs::MetricSample&, const ReplicaShardCell& c) {
        snap.hedges_launched += c.hedges_launched;
        snap.failovers += c.failovers;
        snap.exhausted += c.exhausted;
      });
  using mutation::MutationEngine;
  snap.mutation_batches = read.Sum(MutationEngine::kBatchesApplied.name);
  snap.mutation_ops = read.Sum(MutationEngine::kOpsApplied.name);
  snap.overlay_generations =
      read.Sum(MutationEngine::kUncompactedGenerations.name);
  snap.compaction_folds = read.Sum(MutationEngine::kCompactionRounds.name);
  snap.wal_records = read.Sum(MutationEngine::kWalRecords.name);
  snap.wal_bytes = read.Sum(MutationEngine::kWalBytes.name);
  if (slow_log != nullptr) {
    for (const obs::SlowQueryRecord& record : slow_log->Recent()) {
      const uint64_t bytes = record.bytes_deserialized + record.heap_bytes;
      if (record.cpu_ns == 0 && bytes == 0) continue;
      snap.top_queries.push_back({record.request, record.method,
                                  record.service_seconds, record.cpu_ns,
                                  bytes});
    }
  }
  snap.Normalize();
  return snap;
}

}  // namespace service
}  // namespace tsb
