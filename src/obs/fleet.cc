#include "obs/fleet.h"

#include <algorithm>
#include <cstdio>

#include "common/binary_io.h"

namespace tsb {
namespace obs {

namespace {

std::string HumanBytes(uint64_t bytes) {
  char buf[32];
  if (bytes >= 1ull << 30) {
    std::snprintf(buf, sizeof(buf), "%.1fGiB",
                  static_cast<double>(bytes) / (1ull << 30));
  } else if (bytes >= 1ull << 20) {
    std::snprintf(buf, sizeof(buf), "%.1fMiB",
                  static_cast<double>(bytes) / (1ull << 20));
  } else if (bytes >= 1ull << 10) {
    std::snprintf(buf, sizeof(buf), "%.1fKiB",
                  static_cast<double>(bytes) / (1ull << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%lluB",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

std::string Millis(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3fms", seconds * 1e3);
  return buf;
}

void EncodeTopQuery(const FleetTopQuery& q, std::string* out) {
  PutString(out, q.request);
  PutString(out, q.method);
  PutF64(out, q.service_seconds);
  PutU64(out, q.cpu_ns);
  PutU64(out, q.bytes);
}

void EncodeCost(const CostCounters& cost, std::string* out) {
  PutU64(out, cost.cpu_ns);
  PutU64(out, cost.bytes_deserialized);
  PutU64(out, cost.catalog_interns);
  PutU64(out, cost.heap_bytes);
}

CostCounters DecodeCost(BinaryReader* in) {
  CostCounters cost;
  cost.cpu_ns = in->U64();
  cost.bytes_deserialized = in->U64();
  cost.catalog_interns = in->U64();
  cost.heap_bytes = in->U64();
  return cost;
}

}  // namespace

void FleetSnapshot::Normalize() {
  std::sort(methods.begin(), methods.end(),
            [](const FleetMethodStats& a, const FleetMethodStats& b) {
              return a.method < b.method;
            });
  std::sort(top_queries.begin(), top_queries.end(),
            [](const FleetTopQuery& a, const FleetTopQuery& b) {
              if (a.Score() != b.Score()) return a.Score() > b.Score();
              if (a.request != b.request) return a.request < b.request;
              return a.method < b.method;
            });
  if (top_queries.size() > kMaxTopQueries) {
    top_queries.resize(kMaxTopQueries);
  }
}

void FleetSnapshot::Merge(const FleetSnapshot& other) {
  processes += other.processes;

  for (const FleetMethodStats& theirs : other.methods) {
    FleetMethodStats* mine = nullptr;
    for (FleetMethodStats& m : methods) {
      if (m.method == theirs.method) {
        mine = &m;
        break;
      }
    }
    if (mine == nullptr) {
      methods.push_back(theirs);
      continue;
    }
    mine->requests += theirs.requests;
    mine->cache_hits += theirs.cache_hits;
    mine->errors += theirs.errors;
    mine->latency.Merge(theirs.latency);
    mine->cost += theirs.cost;
  }

  total_requests += other.total_requests;
  total_cache_hits += other.total_cache_hits;
  total_errors += other.total_errors;
  total_rejected += other.total_rejected;
  scan_rows += other.scan_rows;
  scan_blocks_total += other.scan_blocks_total;
  scan_blocks_skipped += other.scan_blocks_skipped;

  // Replicas of the same shard serve the same store: max, not sum.
  if (other.shard_rows.size() > shard_rows.size()) {
    shard_rows.resize(other.shard_rows.size(), 0);
  }
  for (size_t i = 0; i < other.shard_rows.size(); ++i) {
    shard_rows[i] = std::max(shard_rows[i], other.shard_rows[i]);
  }

  hedges_launched += other.hedges_launched;
  failovers += other.failovers;
  exhausted += other.exhausted;

  mutation_batches += other.mutation_batches;
  mutation_ops += other.mutation_ops;
  overlay_generations += other.overlay_generations;
  compaction_folds += other.compaction_folds;
  wal_records += other.wal_records;
  wal_bytes += other.wal_bytes;

  top_queries.insert(top_queries.end(), other.top_queries.begin(),
                     other.top_queries.end());
  Normalize();
}

double ShardSkew(const std::vector<uint64_t>& rows) {
  if (rows.empty()) return 0.0;
  uint64_t total = 0;
  uint64_t max_rows = 0;
  for (uint64_t r : rows) {
    total += r;
    max_rows = std::max(max_rows, r);
  }
  if (total == 0) return 0.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(rows.size());
  return static_cast<double>(max_rows) / mean;
}

std::string FleetSnapshot::Render() const {
  std::string out;
  char line[256];

  std::snprintf(line, sizeof(line),
                "== fleet cost snapshot (%llu process%s) ==\n",
                static_cast<unsigned long long>(processes),
                processes == 1 ? "" : "es");
  out += line;

  const double hit_pct =
      total_requests > 0
          ? 100.0 * static_cast<double>(total_cache_hits) /
                static_cast<double>(total_requests)
          : 0.0;
  std::snprintf(line, sizeof(line),
                "requests %llu  cache-hits %llu (%.1f%%)  errors %llu  "
                "rejected %llu\n",
                static_cast<unsigned long long>(total_requests),
                static_cast<unsigned long long>(total_cache_hits), hit_pct,
                static_cast<unsigned long long>(total_errors),
                static_cast<unsigned long long>(total_rejected));
  out += line;

  const double skip_pct =
      scan_blocks_total > 0
          ? 100.0 * static_cast<double>(scan_blocks_skipped) /
                static_cast<double>(scan_blocks_total)
          : 0.0;
  std::snprintf(line, sizeof(line),
                "scan: rows %llu  blocks %llu (%.1f%% zone-skipped)\n",
                static_cast<unsigned long long>(scan_rows),
                static_cast<unsigned long long>(scan_blocks_total),
                skip_pct);
  out += line;

  if (!shard_rows.empty()) {
    out += "shards:";
    for (size_t i = 0; i < shard_rows.size(); ++i) {
      std::snprintf(line, sizeof(line), " s%zu=%llu", i,
                    static_cast<unsigned long long>(shard_rows[i]));
      out += line;
    }
    std::snprintf(line, sizeof(line), "  skew %.2f\n",
                  ShardSkew(shard_rows));
    out += line;
  }
  if (hedges_launched + failovers + exhausted > 0) {
    std::snprintf(line, sizeof(line),
                  "replicas: hedges %llu  failovers %llu  exhausted %llu\n",
                  static_cast<unsigned long long>(hedges_launched),
                  static_cast<unsigned long long>(failovers),
                  static_cast<unsigned long long>(exhausted));
    out += line;
  }
  if (mutation_batches + wal_records + compaction_folds > 0) {
    std::snprintf(
        line, sizeof(line),
        "mutation: batches %llu  ops %llu  overlay-gens %llu  folds %llu  "
        "wal %llu recs / %s\n",
        static_cast<unsigned long long>(mutation_batches),
        static_cast<unsigned long long>(mutation_ops),
        static_cast<unsigned long long>(overlay_generations),
        static_cast<unsigned long long>(compaction_folds),
        static_cast<unsigned long long>(wal_records),
        HumanBytes(wal_bytes).c_str());
    out += line;
  }

  if (!methods.empty()) {
    out += "\nmethod          requests    hits  errors      p50      p95"
           "      p99   cpu(ms)    deser    interns     heap\n";
    for (const FleetMethodStats& m : methods) {
      std::snprintf(
          line, sizeof(line),
          "%-14s %9llu %7llu %7llu %8s %8s %8s %9.1f %8s %10llu %8s\n",
          m.method.c_str(), static_cast<unsigned long long>(m.requests),
          static_cast<unsigned long long>(m.cache_hits),
          static_cast<unsigned long long>(m.errors),
          Millis(m.latency.Quantile(0.50)).c_str(),
          Millis(m.latency.Quantile(0.95)).c_str(),
          Millis(m.latency.Quantile(0.99)).c_str(),
          static_cast<double>(m.cost.cpu_ns) / 1e6,
          HumanBytes(m.cost.bytes_deserialized).c_str(),
          static_cast<unsigned long long>(m.cost.catalog_interns),
          HumanBytes(m.cost.heap_bytes).c_str());
      out += line;
    }
  }

  if (!top_queries.empty()) {
    out += "\ntop-cost queries (cpu x bytes):\n";
    size_t shown = 0;
    for (const FleetTopQuery& q : top_queries) {
      if (++shown > 5) break;
      std::snprintf(line, sizeof(line),
                    "  %5.1fms cpu  %8s  %-12s %s\n",
                    static_cast<double>(q.cpu_ns) / 1e6,
                    HumanBytes(q.bytes).c_str(), q.method.c_str(),
                    q.request.size() > 96
                        ? (q.request.substr(0, 93) + "...").c_str()
                        : q.request.c_str());
      out += line;
    }
  }
  return out;
}

void EncodeFleetSnapshot(const FleetSnapshot& snapshot, std::string* out) {
  FleetSnapshot canonical = snapshot;
  canonical.Normalize();

  PutU64(out, canonical.processes);
  PutU32(out, static_cast<uint32_t>(canonical.methods.size()));
  for (const FleetMethodStats& m : canonical.methods) {
    PutString(out, m.method);
    PutU64(out, m.requests);
    PutU64(out, m.cache_hits);
    PutU64(out, m.errors);
    m.latency.EncodeTo(out);
    EncodeCost(m.cost, out);
  }
  PutU64(out, canonical.total_requests);
  PutU64(out, canonical.total_cache_hits);
  PutU64(out, canonical.total_errors);
  PutU64(out, canonical.total_rejected);
  PutU64(out, canonical.scan_rows);
  PutU64(out, canonical.scan_blocks_total);
  PutU64(out, canonical.scan_blocks_skipped);
  PutU32(out, static_cast<uint32_t>(canonical.shard_rows.size()));
  for (uint64_t rows : canonical.shard_rows) PutU64(out, rows);
  PutU64(out, canonical.hedges_launched);
  PutU64(out, canonical.failovers);
  PutU64(out, canonical.exhausted);
  PutU64(out, canonical.mutation_batches);
  PutU64(out, canonical.mutation_ops);
  PutU64(out, canonical.overlay_generations);
  PutU64(out, canonical.compaction_folds);
  PutU64(out, canonical.wal_records);
  PutU64(out, canonical.wal_bytes);
  PutU32(out, static_cast<uint32_t>(canonical.top_queries.size()));
  for (const FleetTopQuery& q : canonical.top_queries) {
    EncodeTopQuery(q, out);
  }
}

Result<FleetSnapshot> DecodeFleetSnapshot(std::string_view payload) {
  BinaryReader in(payload);
  FleetSnapshot snapshot;
  snapshot.processes = in.U64();
  const uint32_t num_methods = in.U32();
  if (!in.ok()) return in.status("fleet snapshot header");
  // A method row costs ≥ 4 string-length/u64 fields; bound the reserve.
  if (num_methods > 256) {
    return Status::InvalidArgument("fleet snapshot method count too large");
  }
  snapshot.methods.clear();
  snapshot.methods.reserve(num_methods);
  for (uint32_t i = 0; i < num_methods; ++i) {
    FleetMethodStats m;
    m.method = in.String();
    m.requests = in.U64();
    m.cache_hits = in.U64();
    m.errors = in.U64();
    if (!in.ok()) return in.status("fleet method row");
    TSB_ASSIGN_OR_RETURN(m.latency, LatencyHistogram::DecodeFrom(&in));
    m.cost = DecodeCost(&in);
    if (!in.ok()) return in.status("fleet method cost");
    snapshot.methods.push_back(std::move(m));
  }
  snapshot.total_requests = in.U64();
  snapshot.total_cache_hits = in.U64();
  snapshot.total_errors = in.U64();
  snapshot.total_rejected = in.U64();
  snapshot.scan_rows = in.U64();
  snapshot.scan_blocks_total = in.U64();
  snapshot.scan_blocks_skipped = in.U64();
  const uint32_t num_shards = in.U32();
  if (!in.ok()) return in.status("fleet totals");
  if (num_shards > 65536) {
    return Status::InvalidArgument("fleet snapshot shard count too large");
  }
  snapshot.shard_rows.resize(num_shards);
  for (uint32_t i = 0; i < num_shards; ++i) snapshot.shard_rows[i] = in.U64();
  snapshot.hedges_launched = in.U64();
  snapshot.failovers = in.U64();
  snapshot.exhausted = in.U64();
  snapshot.mutation_batches = in.U64();
  snapshot.mutation_ops = in.U64();
  snapshot.overlay_generations = in.U64();
  snapshot.compaction_folds = in.U64();
  snapshot.wal_records = in.U64();
  snapshot.wal_bytes = in.U64();
  const uint32_t num_top = in.U32();
  if (!in.ok()) return in.status("fleet counters");
  if (num_top > FleetSnapshot::kMaxTopQueries) {
    return Status::InvalidArgument("fleet snapshot top-query count too "
                                   "large");
  }
  snapshot.top_queries.resize(num_top);
  for (uint32_t i = 0; i < num_top; ++i) {
    FleetTopQuery& q = snapshot.top_queries[i];
    q.request = in.String();
    q.method = in.String();
    q.service_seconds = in.F64();
    q.cpu_ns = in.U64();
    q.bytes = in.U64();
  }
  if (!in.AtEnd()) {
    in.Fail();
    return in.status("fleet snapshot trailing bytes");
  }
  return snapshot;
}

}  // namespace obs
}  // namespace tsb
