// The concurrent query service (src/service/): thread pool, canonical
// fingerprints, the sharded LRU result cache, the text request parser,
// metrics, and the TopologyService frontend — including the contract that
// N concurrent clients observe results identical to sequential
// Engine::Execute.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "biozon/domain.h"
#include "biozon/fig3.h"
#include "common/hash.h"
#include "core/builder.h"
#include "core/pruner.h"
#include "engine/engine.h"
#include "engine/nquery.h"
#include "obs/fleet.h"
#include "obs/registry.h"
#include "obs/slow_log.h"
#include "service/metrics.h"
#include "service/query_cache.h"
#include "service/request_parser.h"
#include "service/service.h"
#include "service/thread_pool.h"
#include "service_test_util.h"
#include "wire/message.h"

namespace tsb {
namespace {

using engine::MethodKind;
using service_test::Serve;
using service_test::ServeStream;

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsTasksAndDeliversResults) {
  service::ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.Submit([i]() { return i * i; }));
  }
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(futures[i].valid());
    EXPECT_EQ(futures[i].get(), i * i);
  }
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasks) {
  std::atomic<int> executed{0};
  {
    service::ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      pool.Submit([&executed]() { ++executed; });
    }
    pool.Shutdown();
  }
  EXPECT_EQ(executed.load(), 32);
}

TEST(ThreadPoolTest, SubmitAfterShutdownReturnsInvalidFuture) {
  service::ThreadPool pool(1);
  pool.Shutdown();
  std::future<int> future = pool.Submit([]() { return 1; });
  EXPECT_FALSE(future.valid());
}

TEST(ThreadPoolTest, TasksRunConcurrently) {
  service::ThreadPool pool(2);
  // Two tasks that can only finish if both run at once.
  std::promise<void> gate1, gate2;
  auto f1 = pool.Submit([&]() {
    gate1.set_value();
    gate2.get_future().wait();
  });
  auto f2 = pool.Submit([&]() {
    gate1.get_future().wait();
    gate2.set_value();
  });
  f1.get();
  f2.get();
}

// ---------------------------------------------------------------------------
// Latency metrics: one LatencyHistogram per row
// ---------------------------------------------------------------------------

/// Whitespace-split tokens of one rendered table line.
std::vector<std::string> Tokens(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  for (std::string token; in >> token;) out.push_back(token);
  return out;
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

/// A histogram quantile rendered the way the tables print it (ms, %.3f).
std::string Ms(const obs::LatencyHistogram& hist, double q) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", hist.Quantile(q) * 1e3);
  return buffer;
}

/// Log-uniform latencies in [50µs, 50ms] from a fixed seed: spread over
/// many buckets, so a bucket-resolution quantile and an exact sample
/// quantile print differently.
class LatencyStream {
 public:
  double Next() { return 50e-6 * std::pow(1000.0, unit_(rng_)); }

 private:
  std::mt19937 rng_{20070415};
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

TEST(LatencyMetricsTest, TablesPrintTheRowHistogramQuantiles) {
  LatencyStream stream;
  service::ServiceMetrics service;
  const size_t slots[] = {0, 3, 4, service::ServiceMetrics::kTripleSlot};
  for (size_t i = 0; i < 400; ++i) {
    const size_t slot = slots[i % 4];
    service.RecordRequest(slot, stream.Next(), /*cache_hit=*/i % 5 == 0,
                          /*ok=*/i % 17 != 0);
    service.RecordAdmitted(i % 2);
    service.RecordClassLatency(i % 2, stream.Next());
  }
  service.RecordRejected(1);

  const obs::MetricsRead read = service.Read();
  ASSERT_EQ(read.All("tsb_service_requests_total").size(), 4u);
  size_t method_lines = 0;
  size_t class_lines = 0;
  for (const std::string& line : Lines(service::MetricsTable(read))) {
    const std::vector<std::string> tokens = Tokens(line);
    for (const obs::MetricSample* row :
         read.All("tsb_service_latency_hist_seconds")) {
      const std::string& method = row->labels[0];
      if (tokens.size() != 7 || tokens[0] != method) continue;
      EXPECT_EQ(tokens[4], Ms(row->histogram, 0.50)) << line;
      EXPECT_EQ(tokens[5], Ms(row->histogram, 0.95)) << line;
      EXPECT_EQ(tokens[6], Ms(row->histogram, 0.99)) << line;
      EXPECT_EQ(row->histogram.count(),
                read.Count("tsb_service_requests_total", {method}));
      ++method_lines;
    }
    for (const obs::MetricSample* row :
         read.All("tsb_service_class_latency_hist_seconds")) {
      if (tokens.size() < 2 || tokens[0] != "class" ||
          tokens[1] != row->labels[0]) {
        continue;
      }
      ASSERT_GE(tokens.size(), 4u);
      EXPECT_EQ(tokens[tokens.size() - 3], Ms(row->histogram, 0.95) + "ms")
          << line;
      EXPECT_EQ(tokens[tokens.size() - 1], Ms(row->histogram, 0.99) + "ms")
          << line;
      ++class_lines;
    }
  }
  EXPECT_EQ(method_lines, 4u);
  EXPECT_EQ(class_lines, 2u);

  service::TransportMetrics transport(2);
  for (size_t i = 0; i < 200; ++i) {
    transport.RecordRoundTrip(i % 2, 100, 400, stream.Next(), true);
  }
  const obs::MetricsRead transport_read = transport.Read();
  size_t shard_lines = 0;
  for (const std::string& line :
       Lines(service::TransportTable(transport_read))) {
    const std::vector<std::string> tokens = Tokens(line);
    if (tokens.size() != 9 || tokens[0][0] != 's') continue;
    const obs::MetricSample* rtt = transport_read.Find(
        "tsb_transport_rtt_hist_seconds", {tokens[0].substr(1)});
    ASSERT_NE(rtt, nullptr) << line;
    EXPECT_EQ(tokens[6], Ms(rtt->histogram, 0.50)) << line;
    EXPECT_EQ(tokens[7], Ms(rtt->histogram, 0.95)) << line;
    EXPECT_EQ(tokens[8], Ms(rtt->histogram, 0.99)) << line;
    ++shard_lines;
  }
  EXPECT_EQ(shard_lines, 2u);

  service::ReplicaMetrics replicas({2});
  for (size_t i = 0; i < 200; ++i) {
    replicas.RecordAttempt(0, i % 2, false, false);
    replicas.RecordOutcome(0, i % 2, stream.Next(), true);
  }
  const obs::MetricsRead replica_read = replicas.Read();
  size_t replica_lines = 0;
  for (const std::string& line : Lines(service::ReplicaTable(replica_read))) {
    const std::vector<std::string> tokens = Tokens(line);
    if (tokens.size() != 12 || tokens[1][0] != 'r') continue;
    const obs::MetricSample* rtt = replica_read.Find(
        "tsb_replica_rtt_hist_seconds", {"0", tokens[1].substr(1)});
    ASSERT_NE(rtt, nullptr) << line;
    EXPECT_EQ(tokens[10], Ms(rtt->histogram, 0.95)) << line;
    EXPECT_EQ(tokens[11], Ms(rtt->histogram, 0.99)) << line;
    ++replica_lines;
  }
  EXPECT_EQ(replica_lines, 2u);
}

TEST(LatencyMetricsTest, RegistryExportsHistogramsAndNoSummaries) {
  LatencyStream stream;
  service::ServiceMetrics service;
  service.RecordRequest(1, stream.Next(), false, true);
  service.RecordAdmitted(0);
  service.RecordClassLatency(0, stream.Next());
  service::TransportMetrics transport(1);
  transport.RecordRoundTrip(0, 10, 20, stream.Next(), true);
  service::ReplicaMetrics replicas({1});
  replicas.RecordAttempt(0, 0, false, false);
  replicas.RecordOutcome(0, 0, stream.Next(), true);

  obs::MetricsRegistry registry;
  registry.Register(&service);
  registry.Register(&transport);
  registry.Register(&replicas);
  const std::string prometheus = registry.RenderPrometheus();
  const std::string json = registry.RenderJson();
  for (const std::string* text : {&prometheus, &json}) {
    EXPECT_EQ(text->find("summary"), std::string::npos) << *text;
    EXPECT_EQ(text->find("quantile"), std::string::npos) << *text;
    for (const char* gone :
         {"tsb_service_latency_seconds", "tsb_service_class_latency_seconds",
          "tsb_transport_rtt_seconds", "tsb_replica_rtt_seconds"}) {
      EXPECT_EQ(text->find(gone), std::string::npos) << gone;
    }
  }
  for (const char* family :
       {"tsb_service_latency_hist_seconds",
        "tsb_service_class_latency_hist_seconds",
        "tsb_transport_rtt_hist_seconds", "tsb_replica_rtt_hist_seconds"}) {
    EXPECT_NE(prometheus.find(std::string("# TYPE ") + family + " histogram"),
              std::string::npos)
        << family;
    EXPECT_NE(json.find(std::string("{\"name\":\"") + family +
                        "\",\"type\":\"histogram\""),
              std::string::npos)
        << family;
  }
  registry.Unregister(&service);
  registry.Unregister(&transport);
  registry.Unregister(&replicas);
}

// ---------------------------------------------------------------------------
// Every metric view pinned on one seeded record sequence
// ---------------------------------------------------------------------------

std::string DigestHex(std::string_view bytes) {
  const Hash128 h = StableHasher().Add(bytes).Digest();
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%016llx%016llx",
                static_cast<unsigned long long>(h.hi),
                static_cast<unsigned long long>(h.lo));
  return buffer;
}

/// A fixed record sequence through all three recording classes that hits
/// every export elision rule: slot 5 has no traffic (not exported), the
/// batch class has none (exported anyway), transport shard 1 only
/// reconnects (exported), replica (0, 1) has a quarantine but no attempt
/// (not exported), replica shard 1 has no hedge/failover/exhaustion (no
/// shard row), shard 1 of shard_rows is 0 (exported), and no scan work is
/// recorded (scan counters exported at 0).
void RecordPinnedScenario(service::ServiceMetrics* svc,
                          service::TransportMetrics* transport,
                          service::ReplicaMetrics* replicas,
                          obs::SlowQueryLog* slow_log) {
  LatencyStream stream;
  const size_t slots[] = {0, 3, service::ServiceMetrics::kTripleSlot};
  for (size_t i = 0; i < 90; ++i) {
    const size_t slot = slots[i % 3];
    engine::ExecStats executed;
    executed.cpu_ns = 1000003 * (i + 1);
    executed.bytes_deserialized = 4096 + 17 * i;
    executed.catalog_interns = i % 5;
    executed.heap_bytes = 65536 + 129 * i;
    svc->RecordRequest(slot, stream.Next(), /*cache_hit=*/i % 4 == 0,
                       /*ok=*/i % 11 != 0, i % 4 != 0 ? &executed : nullptr);
    svc->RecordAdmitted(0);
    svc->RecordClassLatency(0, stream.Next());
  }
  svc->RecordRejected(0);
  svc->RecordRejected(0);
  svc->RecordDeadlineShed(0);
  svc->RecordCancelled(0);
  svc->SetShardRows({1200, 0, 800});

  for (size_t i = 0; i < 40; ++i) {
    transport->RecordRoundTrip(0, 100 + i, 400 + 3 * i, stream.Next(),
                               /*ok=*/i % 9 != 0);
  }
  transport->RecordReconnect(1);

  for (size_t i = 0; i < 30; ++i) {
    replicas->RecordAttempt(0, 0, /*is_probe=*/i % 10 == 0,
                            /*is_hedge=*/i % 6 == 0);
    replicas->RecordOutcome(0, 0, stream.Next(), /*ok=*/i % 7 != 0);
    replicas->RecordAttempt(1, 0, false, false);
    replicas->RecordOutcome(1, 0, stream.Next(), true);
  }
  replicas->RecordAttempt(0, 0, false, false);  // Left outstanding.
  replicas->RecordHedgeWin(0, 0);
  replicas->RecordHedgeLaunched(0);
  replicas->RecordFailover(0);
  replicas->RecordFailover(0);
  replicas->RecordEjection(0, 0);
  replicas->RecordReinstatement(0, 0);
  replicas->RecordQuarantine(0, 1);

  for (int i = 0; i < 3; ++i) {
    obs::SlowQueryRecord record;
    record.request = "TOPK set1=Protein set2=DNA k=" + std::to_string(i);
    record.method = service::ServiceMetrics::SlotName(3);
    record.service_seconds = 0.002 * (i + 1);
    record.cpu_ns = 700000 * (i + 1);
    record.bytes_deserialized = 1000 * (3 - i);
    record.heap_bytes = 256;
    slow_log->Record(std::move(record));
  }
}

TEST(MetricViewsTest, EveryViewOfOneRecordSequenceIsPinned) {
  service::ServiceMetrics svc;
  service::TransportMetrics transport(2);
  service::ReplicaMetrics replicas({2, 1});
  obs::SlowQueryLog slow_log(obs::SlowQueryConfig{1e-9, 16});
  RecordPinnedScenario(&svc, &transport, &replicas, &slow_log);

  obs::MetricsRegistry registry;
  registry.Register(&svc);
  registry.Register(&transport);
  registry.Register(&replicas);
  const std::string prometheus = registry.RenderPrometheus();
  const std::string json = registry.RenderJson();
  const obs::MetricsRead read = registry.Read();
  const std::string text = service::MetricsTable(read);
  const std::string transport_table = service::TransportTable(read);
  const std::string replica_table = service::ReplicaTable(read);
  const obs::FleetSnapshot fleet = service::FleetSnapshotOf(read, &slow_log);
  std::string fleet_bytes;
  obs::EncodeFleetSnapshot(fleet, &fleet_bytes);
  const std::string fleet_render = fleet.Render();

  // The elision rules, spelled out before the digests pin the bytes.
  EXPECT_EQ(prometheus.find("method=\"" +
                            service::ServiceMetrics::SlotName(5) + "\""),
            std::string::npos);
  EXPECT_NE(prometheus.find("tsb_service_admitted_total{class=\"batch\"} 0"),
            std::string::npos);
  EXPECT_NE(prometheus.find("tsb_transport_reconnects_total{shard=\"1\"} 1"),
            std::string::npos);
  EXPECT_EQ(prometheus.find("shard=\"0\",replica=\"1\""), std::string::npos);
  EXPECT_EQ(prometheus.find("tsb_replica_failovers_total{shard=\"1\"}"),
            std::string::npos);
  EXPECT_NE(prometheus.find("tsb_service_shard_rows{shard=\"1\"} 0"),
            std::string::npos);
  EXPECT_NE(prometheus.find("tsb_service_scan_rows_total 0"),
            std::string::npos);
  EXPECT_NE(prometheus.find("tsb_replica_outstanding{shard=\"0\","
                            "replica=\"0\"} 1"),
            std::string::npos);

  EXPECT_EQ(DigestHex(prometheus), "cbea8fe3239747325da820f25656fef3")
      << prometheus;
  EXPECT_EQ(DigestHex(json), "c79623ba0be7b4f719f027924f5b7b8c") << json;
  EXPECT_EQ(DigestHex(text), "1383334cb34b71628c6bf7026a72fb91") << text;
  EXPECT_EQ(DigestHex(transport_table), "a1e39577a8a7dd10625266b5115df890")
      << transport_table;
  EXPECT_EQ(DigestHex(replica_table), "165a351f653560e964dbb5ae19786f53")
      << replica_table;
  EXPECT_EQ(DigestHex(fleet_bytes), "5f62f928d87eb9408629236185aa6dd8");
  EXPECT_EQ(DigestHex(fleet_render), "2585d1034e1caa2a32d283fae9fdac05")
      << fleet_render;
  registry.Unregister(&svc);
  registry.Unregister(&transport);
  registry.Unregister(&replicas);
}

// ---------------------------------------------------------------------------
// Fingerprints + cache (no database needed)
// ---------------------------------------------------------------------------

engine::QueryResult MakeResult(size_t num_entries, const std::string& plan) {
  engine::QueryResult result;
  for (size_t i = 0; i < num_entries; ++i) {
    result.entries.push_back(
        {static_cast<core::Tid>(i), static_cast<double>(i)});
  }
  result.stats.plan = plan;
  return result;
}

size_t EntryCost(const std::string& key, const engine::QueryResult& value) {
  return key.size() + service::CachedCost(value) +
         service::QueryCache::kEntryOverhead;
}

TEST(StableHasherTest, DeterministicAndLengthPrefixed) {
  Hash128 a = StableHasher().Add("ab").Add("c").Digest();
  Hash128 b = StableHasher().Add("ab").Add("c").Digest();
  EXPECT_EQ(a, b);
  // Length prefixing: ("ab","c") must differ from ("a","bc") and ("abc").
  EXPECT_NE(a, StableHasher().Add("a").Add("bc").Digest());
  EXPECT_NE(a, StableHasher().Add("abc").Digest());
  EXPECT_NE(StableHasher().AddU64(1).Digest(),
            StableHasher().AddU64(2).Digest());
  // Both lanes carry entropy (the digest is not lane-duplicated).
  EXPECT_NE(a.lo, a.hi);
}

TEST(StableHasherTest, DigestSpreadsAcrossShardCounts) {
  // Low bits must not collapse (regression for an even hi multiplier):
  // 256 distinct keys over 8 buckets should touch every bucket.
  std::set<uint64_t> buckets;
  for (int i = 0; i < 256; ++i) {
    buckets.insert(
        service::FingerprintDigest("key" + std::to_string(i)).lo % 8);
  }
  EXPECT_EQ(buckets.size(), 8u);
}

TEST(FingerprintTest, SideOrderIsNormalized) {
  engine::TopologyQuery q1;
  q1.entity_set1 = "Protein";
  q1.entity_set2 = "DNA";
  engine::TopologyQuery q2;
  q2.entity_set1 = "DNA";
  q2.entity_set2 = "Protein";
  engine::ExecOptions opts;
  EXPECT_EQ(service::FingerprintQuery(q1, MethodKind::kFullTop, opts),
            service::FingerprintQuery(q2, MethodKind::kFullTop, opts));
}

TEST(FingerprintTest, MethodSchemeAndKParticipate) {
  engine::TopologyQuery q;
  q.entity_set1 = "Protein";
  q.entity_set2 = "DNA";
  engine::ExecOptions opts;
  std::string base = service::FingerprintQuery(q, MethodKind::kFullTopK, opts);
  EXPECT_NE(base, service::FingerprintQuery(q, MethodKind::kFastTopK, opts));

  engine::TopologyQuery k5 = q;
  k5.k = 5;
  EXPECT_NE(base, service::FingerprintQuery(k5, MethodKind::kFullTopK, opts));
  // Non-top-k methods ignore k entirely: normalized to the same key.
  EXPECT_EQ(service::FingerprintQuery(q, MethodKind::kFullTop, opts),
            service::FingerprintQuery(k5, MethodKind::kFullTop, opts));

  engine::TopologyQuery rare = q;
  rare.scheme = core::RankScheme::kRare;
  EXPECT_NE(base,
            service::FingerprintQuery(rare, MethodKind::kFullTopK, opts));

  // The row path runs a different plan than the columnar default.
  engine::ExecOptions row = opts;
  row.use_columnar = false;
  EXPECT_NE(base, service::FingerprintQuery(q, MethodKind::kFullTopK, row));
}

TEST(FingerprintTest, PredicateValuesKeyExactly) {
  // Values that print alike still key apart: doubles that differ after the
  // sixth significant digit, and an INT64 value against a string value.
  const storage::TableSchema schema({{"ID", storage::ColumnType::kInt64},
                                     {"SCORE", storage::ColumnType::kDouble}});
  auto key = [&schema](const std::string& column, storage::Value value) {
    engine::TopologyQuery q;
    q.entity_set1 = "Protein";
    q.pred1 = storage::MakeEquals(schema, column, std::move(value));
    q.entity_set2 = "DNA";
    return service::FingerprintQuery(q, MethodKind::kFullTop, {});
  };
  EXPECT_NE(key("SCORE", storage::Value(0.1234561)),
            key("SCORE", storage::Value(0.1234562)));
  EXPECT_NE(key("ID", storage::Value(int64_t{5})),
            key("ID", storage::Value("5")));
  EXPECT_EQ(key("ID", storage::Value(int64_t{5})),
            key("ID", storage::Value(int64_t{5})));
}

TEST(FingerprintTest, TripleSidePermutationsCollide) {
  engine::TripleQuery a;
  a.entity_set1 = "Protein";
  a.entity_set2 = "Unigene";
  a.entity_set3 = "DNA";
  engine::TripleQuery b;
  b.entity_set1 = "DNA";
  b.entity_set2 = "Protein";
  b.entity_set3 = "Unigene";
  EXPECT_EQ(service::FingerprintTripleQuery(a),
            service::FingerprintTripleQuery(b));
  b.max_triples = 7;
  EXPECT_NE(service::FingerprintTripleQuery(a),
            service::FingerprintTripleQuery(b));
}

TEST(QueryCacheTest, LookupHitRefreshesRecencyAndEvictionIsLru) {
  engine::QueryResult value = MakeResult(4, "plan");
  const size_t cost = EntryCost("A", value);
  service::QueryCacheConfig config;
  config.num_shards = 1;
  config.max_bytes = 2 * cost;  // Fits exactly two (equal-cost) entries.
  service::QueryCache cache(config);

  auto insert = [&cache, &value](const std::string& key) {
    return cache.Insert(key,
                        std::make_shared<engine::QueryResult>(value));
  };
  EXPECT_TRUE(insert("A"));
  EXPECT_TRUE(insert("B"));
  EXPECT_EQ(cache.GetStats().entries, 2u);

  // Touch A so B becomes least-recently-used, then insert C.
  EXPECT_NE(cache.Lookup("A"), nullptr);
  EXPECT_TRUE(insert("C"));

  EXPECT_NE(cache.Lookup("A"), nullptr);
  EXPECT_EQ(cache.Lookup("B"), nullptr);  // Evicted.
  EXPECT_NE(cache.Lookup("C"), nullptr);

  auto stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, config.max_bytes);
}

TEST(QueryCacheTest, ByteBudgetIsRespected) {
  service::QueryCacheConfig config;
  config.num_shards = 1;
  config.max_bytes = 4096;
  service::QueryCache cache(config);
  for (int i = 0; i < 100; ++i) {
    cache.Insert("key" + std::to_string(i),
                 std::make_shared<engine::QueryResult>(MakeResult(8, "p")));
    EXPECT_LE(cache.GetStats().bytes, config.max_bytes);
  }
  EXPECT_GT(cache.GetStats().evictions, 0u);
}

TEST(QueryCacheTest, OversizedValueIsNotAdmitted) {
  service::QueryCacheConfig config;
  config.num_shards = 1;
  config.max_bytes = 256;
  service::QueryCache cache(config);
  EXPECT_FALSE(cache.Insert(
      "big", std::make_shared<engine::QueryResult>(MakeResult(1000, "p"))));
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

TEST(QueryCacheTest, ClearDropsEverything) {
  service::QueryCache cache;
  cache.Insert("A", std::make_shared<engine::QueryResult>(MakeResult(2, "")));
  ASSERT_NE(cache.Lookup("A"), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.Lookup("A"), nullptr);
  auto stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.clears, 1u);
}

TEST(QueryCacheTest, EvictionNeverInvalidatesHeldResults) {
  service::QueryCacheConfig config;
  config.num_shards = 1;
  config.max_bytes = 2048;
  service::QueryCache cache(config);
  cache.Insert("A", std::make_shared<engine::QueryResult>(MakeResult(4, "x")));
  std::shared_ptr<const engine::QueryResult> held = cache.Lookup("A");
  ASSERT_NE(held, nullptr);
  for (int i = 0; i < 50; ++i) {  // Force A out.
    cache.Insert("k" + std::to_string(i),
                 std::make_shared<engine::QueryResult>(MakeResult(4, "x")));
  }
  EXPECT_EQ(cache.Lookup("A"), nullptr);
  EXPECT_EQ(held->entries.size(), 4u);  // Still alive and intact.
  EXPECT_EQ(held->stats.plan, "x");
}

// ---------------------------------------------------------------------------
// Service on the Figure-3 fixture
// ---------------------------------------------------------------------------

class ServiceFig3Test : public ::testing::Test {
 protected:
  void SetUp() override {
    ids_ = biozon::BuildFigure3Database(&db_);
    view_ = std::make_unique<graph::DataGraphView>(db_);
    schema_ = std::make_unique<graph::SchemaGraph>(db_);
    core::TopologyBuilder builder(&db_, schema_.get(), view_.get());
    core::BuildConfig config;
    config.max_path_length = 3;
    ASSERT_TRUE(
        builder.BuildPair(ids_.protein, ids_.dna, config, &store_).ok());
    ASSERT_TRUE(builder.BuildPair(ids_.protein, ids_.unigene, config, &store_)
                    .ok());
    ASSERT_TRUE(
        builder.BuildPair(ids_.unigene, ids_.dna, config, &store_).ok());
    core::PruneConfig prune;
    prune.frequency_threshold = 0;
    ASSERT_TRUE(core::PruneFrequentTopologies(&db_, &store_, ids_.protein,
                                              ids_.dna, prune)
                    .ok());
    engine_ = std::make_unique<engine::Engine>(
        &db_, &store_, schema_.get(), view_.get(),
        core::ScoreModel(&store_.catalog(),
                         biozon::MakeBiozonDomainKnowledge(ids_)));
    engine_->PrepareIndexes("Protein", "DNA");
  }

  engine::TopologyQuery ExampleQuery(core::RankScheme scheme,
                                     size_t k = 10) const {
    engine::TopologyQuery q;
    q.entity_set1 = "Protein";
    q.pred1 = storage::MakeContainsKeyword(db_.GetTable("Protein")->schema(),
                                           "DESC", "enzyme");
    q.entity_set2 = "DNA";
    q.pred2 = storage::MakeEquals(db_.GetTable("DNA")->schema(), "TYPE",
                                  storage::Value("mRNA"));
    q.scheme = scheme;
    q.k = k;
    return q;
  }

  storage::Catalog db_;
  biozon::BiozonSchema ids_;
  std::unique_ptr<graph::DataGraphView> view_;
  std::unique_ptr<graph::SchemaGraph> schema_;
  core::TopologyStore store_;
  std::unique_ptr<engine::Engine> engine_;
};

TEST_F(ServiceFig3Test, ConcurrentClientsMatchSequentialExecution) {
  // The tentpole contract: N threads × M repeated queries through the
  // service produce results identical to sequential Engine::Execute.
  const std::vector<MethodKind> methods = {
      MethodKind::kFullTop,    MethodKind::kFastTop,
      MethodKind::kFullTopK,   MethodKind::kFastTopK,
      MethodKind::kFullTopKEt, MethodKind::kFastTopKEt,
  };
  const std::vector<core::RankScheme> schemes = {
      core::RankScheme::kFreq, core::RankScheme::kRare,
      core::RankScheme::kDomain};

  // Sequential ground truth, one per (method, scheme).
  std::vector<std::vector<engine::ResultEntry>> expected;
  for (MethodKind method : methods) {
    for (core::RankScheme scheme : schemes) {
      auto result = engine_->Execute(ExampleQuery(scheme), method);
      ASSERT_TRUE(result.ok());
      expected.push_back(result->entries);
    }
  }

  service::ServiceConfig config;
  config.num_threads = 8;
  service::TopologyService svc(engine_.get(), &db_, config);

  const size_t kThreads = 8;
  const size_t kRepeats = 6;
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t]() {
      for (size_t rep = 0; rep < kRepeats; ++rep) {
        size_t case_index = 0;
        for (MethodKind method : methods) {
          for (core::RankScheme scheme : schemes) {
            auto response = Serve(svc, ExampleQuery(scheme), method);
            if (!response.error.ok()) {
              ++failures;
            } else if (response.result.entries !=
                       expected[case_index]) {
              ++mismatches;
            }
            ++case_index;
            (void)t;
          }
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);

  const obs::MetricsRead metrics = svc.Metrics();
  EXPECT_EQ(metrics.Sum("tsb_service_requests_total"),
            kThreads * kRepeats * methods.size() * schemes.size());
  EXPECT_EQ(metrics.Sum("tsb_service_errors_total"), 0u);
  // Every (method, scheme) repeats 48×; almost all must be cache hits.
  EXPECT_GT(metrics.Sum("tsb_service_cache_hits_total"),
            metrics.Sum("tsb_service_requests_total") / 2);
}

TEST_F(ServiceFig3Test, CachedResultsAreIdenticalToUncached) {
  service::TopologyService svc(engine_.get(), &db_, service::ServiceConfig{});
  auto cold = Serve(svc, ExampleQuery(core::RankScheme::kDomain),
                    MethodKind::kFastTopKEt);
  ASSERT_TRUE(cold.error.ok());
  EXPECT_FALSE(cold.from_cache);

  auto warm = Serve(svc, ExampleQuery(core::RankScheme::kDomain),
                    MethodKind::kFastTopKEt);
  ASSERT_TRUE(warm.error.ok());
  EXPECT_TRUE(warm.from_cache);
  EXPECT_EQ(warm.result.entries, cold.result.entries);
  EXPECT_EQ(warm.result.stats.plan, cold.result.stats.plan);

  auto stats = svc.CacheStats();
  EXPECT_GE(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST_F(ServiceFig3Test, SwappedQueryOrderHitsTheSameCacheEntry) {
  service::TopologyService svc(engine_.get(), &db_, service::ServiceConfig{});
  auto cold = Serve(svc, ExampleQuery(core::RankScheme::kFreq),
                    MethodKind::kFullTop);
  ASSERT_TRUE(cold.error.ok());

  engine::TopologyQuery swapped;
  swapped.entity_set1 = "DNA";
  swapped.pred1 = storage::MakeEquals(db_.GetTable("DNA")->schema(), "TYPE",
                                      storage::Value("mRNA"));
  swapped.entity_set2 = "Protein";
  swapped.pred2 = storage::MakeContainsKeyword(
      db_.GetTable("Protein")->schema(), "DESC", "enzyme");
  swapped.scheme = core::RankScheme::kFreq;
  auto warm = Serve(svc, swapped, MethodKind::kFullTop);
  ASSERT_TRUE(warm.error.ok());
  EXPECT_TRUE(warm.from_cache);
  EXPECT_EQ(warm.result.entries, cold.result.entries);
}

TEST_F(ServiceFig3Test, QueriesThatPrintAlikeKeepTheirOwnAnswers) {
  // Two OR trees whose string values, spliced with quotes, read alike as
  // text. Each matches one protein, so each has its own answer; the second
  // must not be served the first one's cached result.
  const storage::TableSchema& schema = db_.GetTable("Protein")->schema();
  const std::string x = "Ubiquitin-conjugating enzyme UBCi";
  const std::string y = "no such protein";
  const std::string z = "vitamin D inducible protein [Homo sapiens]";
  auto desc = [&schema](const std::string& value) {
    return storage::MakeEquals(schema, "DESC", storage::Value(value));
  };
  engine::TopologyQuery first;
  first.entity_set1 = "Protein";
  first.pred1 = storage::MakeOr(desc(x + "' OR DESC = '" + y), desc(z));
  first.entity_set2 = "DNA";
  engine::TopologyQuery second = first;
  second.pred1 = storage::MakeOr(desc(x), desc(y + "' OR DESC = '" + z));

  service::TopologyService svc(engine_.get(), &db_, service::ServiceConfig{});
  const std::vector<std::pair<engine::TopologyQuery, core::Tid>> cases = {
      {first, 4}, {second, 1}};
  for (const auto& [query, tid] : cases) {
    auto response = Serve(svc, query, MethodKind::kFullTop);
    ASSERT_TRUE(response.error.ok());
    EXPECT_FALSE(response.from_cache);
    ASSERT_EQ(response.result.entries.size(), 1u);
    EXPECT_EQ(response.result.entries[0].tid, tid);
  }
}

TEST_F(ServiceFig3Test, InvalidationOnRebuildClearsTheCache) {
  service::TopologyService svc(engine_.get(), &db_, service::ServiceConfig{});
  auto first = Serve(svc, ExampleQuery(core::RankScheme::kFreq),
                     MethodKind::kFullTop);
  ASSERT_TRUE(first.error.ok());
  EXPECT_EQ(svc.CacheStats().entries, 1u);

  // A store rebuild must be followed by InvalidateCache(); afterwards the
  // same request is served cold (and correct) again.
  svc.InvalidateCache();
  EXPECT_EQ(svc.CacheStats().entries, 0u);
  auto second = Serve(svc, ExampleQuery(core::RankScheme::kFreq),
                      MethodKind::kFullTop);
  ASSERT_TRUE(second.error.ok());
  EXPECT_FALSE(second.from_cache);
  EXPECT_EQ(second.result.entries, first.result.entries);
}

TEST_F(ServiceFig3Test, AdmissionControlRejectsOverload) {
  service::ServiceConfig config;
  config.num_threads = 1;
  config.max_in_flight = 0;  // Everything cold is over the bound.
  config.enable_cache = false;
  service::TopologyService svc(engine_.get(), &db_, config);
  auto response = Serve(svc, ExampleQuery(core::RankScheme::kFreq),
                        MethodKind::kFullTop);
  EXPECT_FALSE(response.error.ok());
  EXPECT_EQ(response.error.code, wire::WireErrorCode::kOverloaded);
  EXPECT_EQ(svc.Metrics().Sum("tsb_service_rejected_total"), 1u);
}

TEST_F(ServiceFig3Test, SubmitAfterShutdownFailsCleanly) {
  service::TopologyService svc(engine_.get(), &db_, service::ServiceConfig{});
  svc.Shutdown();
  auto response = Serve(svc, ExampleQuery(core::RankScheme::kFreq),
                        MethodKind::kFullTop);
  EXPECT_FALSE(response.error.ok());
  EXPECT_EQ(response.error.code, wire::WireErrorCode::kShuttingDown);
}

TEST_F(ServiceFig3Test, EngineErrorsSurfaceThroughTheService) {
  service::TopologyService svc(engine_.get(), &db_, service::ServiceConfig{});
  engine::TopologyQuery bad;
  bad.entity_set1 = "Nope";
  bad.entity_set2 = "DNA";
  auto response = Serve(svc, bad, MethodKind::kFullTop);
  EXPECT_FALSE(response.error.ok());
  EXPECT_EQ(response.error.code, wire::WireErrorCode::kNotFound);
  EXPECT_EQ(svc.Metrics().Sum("tsb_service_errors_total"), 1u);
  // Errors are not cached.
  EXPECT_EQ(svc.CacheStats().entries, 0u);
}

TEST_F(ServiceFig3Test, BatchAccumulatesStatsWithOperatorPlusEquals) {
  service::ServiceConfig config;
  config.enable_cache = false;
  service::TopologyService svc(engine_.get(), &db_, config);

  std::vector<wire::WireRequest> batch(3);
  batch[0].query = ExampleQuery(core::RankScheme::kFreq);
  batch[0].method = MethodKind::kFullTop;
  batch[1].query = ExampleQuery(core::RankScheme::kRare);
  batch[1].method = MethodKind::kFullTopK;
  batch[2].query = ExampleQuery(core::RankScheme::kDomain);
  batch[2].method = MethodKind::kFastTop;
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].id = i;
    batch[i].priority = wire::Priority::kBatch;
  }

  std::vector<wire::WireResponse> responses = ServeStream(svc, batch);
  ASSERT_EQ(responses.size(), 3u);

  // The stream's totals, summed with ExecStats::operator+=, equal the
  // per-query stats of the engine run one query at a time.
  engine::ExecStats total;
  engine::ExecStats expected;
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(responses[i].error.ok()) << responses[i].error.message;
    total += responses[i].result.stats;
    auto direct = engine_->Execute(batch[i].query, batch[i].method);
    ASSERT_TRUE(direct.ok());
    expected += direct->stats;
  }
  EXPECT_GT(total.rows_scanned, 0u);
  EXPECT_EQ(total.rows_scanned, expected.rows_scanned);
  EXPECT_EQ(total.probes, expected.probes);
  EXPECT_EQ(total.subqueries, expected.subqueries);
  EXPECT_EQ(total.rows_out, expected.rows_out);
}

TEST_F(ServiceFig3Test, RepeatedBatchIsServedFromCache) {
  service::TopologyService svc(engine_.get(), &db_, service::ServiceConfig{});
  std::vector<wire::WireRequest> batch(2);
  batch[0].query = ExampleQuery(core::RankScheme::kFreq);
  batch[0].method = MethodKind::kFullTop;
  batch[1].query = ExampleQuery(core::RankScheme::kDomain);
  batch[1].method = MethodKind::kFastTopKEt;
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].id = i;
    batch[i].priority = wire::Priority::kBatch;
  }

  std::vector<wire::WireResponse> cold = ServeStream(svc, batch);
  std::vector<wire::WireResponse> warm = ServeStream(svc, batch);
  ASSERT_EQ(cold.size(), 2u);
  ASSERT_EQ(warm.size(), 2u);
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(cold[i].error.ok()) << cold[i].error.message;
    ASSERT_TRUE(warm[i].error.ok()) << warm[i].error.message;
    EXPECT_FALSE(cold[i].from_cache);
    EXPECT_TRUE(warm[i].from_cache);
    EXPECT_EQ(warm[i].result.entries, cold[i].result.entries);
  }
}

TEST_F(ServiceFig3Test, TextFrontendMatchesHandBuiltQuery) {
  service::TopologyService svc(engine_.get(), &db_, service::ServiceConfig{});
  service::RequestParser parser(&db_);
  auto parsed = parser.Parse(
      "TOPK k=10 method=fast-topk-et scheme=domain "
      "set1=Protein pred1=DESC.ct('enzyme') "
      "set2=DNA pred2=TYPE='mRNA'");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto served = Serve(svc, parsed->query, parsed->method, parsed->options);
  ASSERT_TRUE(served.error.ok()) << served.error.message;

  auto direct = engine_->Execute(ExampleQuery(core::RankScheme::kDomain),
                                 MethodKind::kFastTopKEt);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(served.result.entries, direct->entries);
}

TEST_F(ServiceFig3Test, TripleQueriesAreServedAndCached) {
  service::TopologyService svc(engine_.get(), &db_, service::ServiceConfig{});

  engine::TripleQuery q;
  q.entity_set1 = "Protein";
  q.entity_set2 = "Unigene";
  q.entity_set3 = "DNA";
  auto cold = svc.SubmitTriple(q).get();
  ASSERT_TRUE(cold.result.ok()) << cold.result.status();
  EXPECT_FALSE(cold.from_cache);
  EXPECT_FALSE(cold.result->entries.empty());

  auto warm = svc.SubmitTriple(q).get();
  ASSERT_TRUE(warm.result.ok());
  EXPECT_TRUE(warm.from_cache);
  ASSERT_EQ(warm.result->entries.size(), cold.result->entries.size());
  for (size_t i = 0; i < warm.result->entries.size(); ++i) {
    EXPECT_EQ(warm.result->entries[i].tid, cold.result->entries[i].tid);
    EXPECT_EQ(warm.result->entries[i].frequency,
              cold.result->entries[i].frequency);
  }
}

TEST_F(ServiceFig3Test, TriplesAndTwoQueriesRunConcurrently) {
  // 3-queries intern into the shared catalog that 2-queries read; with
  // thread-safe interning they run fully concurrently — no writer lock
  // serializes them (this is the TSAN target for that path). Cache off so
  // everything executes.
  service::ServiceConfig config;
  config.num_threads = 4;
  config.enable_cache = false;
  service::TopologyService svc(engine_.get(), &db_, config);

  std::atomic<size_t> failures{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < 4; ++t) {
    clients.emplace_back([&]() {
      for (int i = 0; i < 8; ++i) {
        auto r = Serve(svc, ExampleQuery(core::RankScheme::kDomain),
                       MethodKind::kFullTop);
        if (!r.error.ok()) ++failures;
      }
    });
  }
  for (size_t t = 0; t < 2; ++t) {
    clients.emplace_back([&]() {
      engine::TripleQuery q;
      q.entity_set1 = "Protein";
      q.entity_set2 = "Unigene";
      q.entity_set3 = "DNA";
      for (int i = 0; i < 4; ++i) {
        auto r = svc.SubmitTriple(q).get();
        if (!r.result.ok()) ++failures;
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0u);
}

TEST_F(ServiceFig3Test, AttachLiveStoreRejectsLegacyEngines) {
  // The raw-pointer Engine constructor wraps a caller-owned store; a live
  // rebuild could never retire it safely, so attaching must fail (and
  // Rebuild stays unavailable).
  service::TopologyService svc(engine_.get(), &db_, service::ServiceConfig{});
  Status attached = svc.AttachLiveStore(schema_.get(), view_.get());
  EXPECT_EQ(attached.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(svc.Rebuild(service::RebuildOptions{}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ServiceFig3Test, RawStoreEngineServesTriplesButRefusesStoreWriters) {
  // No enable call: every service answers 3-queries, here straight off
  // the caller-owned store the raw-pointer engine wraps.
  service::TopologyService svc(engine_.get(), &db_, service::ServiceConfig{});
  engine::TripleQuery q;
  q.entity_set1 = "Protein";
  q.entity_set2 = "Unigene";
  q.entity_set3 = "DNA";
  auto expected =
      engine::ExecuteTripleQuery(&db_, &store_, *schema_, *view_, q);
  ASSERT_TRUE(expected.ok()) << expected.status();
  auto response = svc.SubmitTriple(q).get();
  ASSERT_TRUE(response.result.ok()) << response.result.status();
  ASSERT_EQ(response.result->entries.size(), expected->entries.size());
  for (size_t i = 0; i < expected->entries.size(); ++i) {
    EXPECT_EQ(response.result->entries[i].tid, expected->entries[i].tid);
    EXPECT_EQ(response.result->entries[i].frequency,
              expected->entries[i].frequency);
  }

  // That store can never be retired, so both store writers refuse it.
  EXPECT_EQ(svc.Rebuild(service::RebuildOptions{}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(svc.EnableMutations(mutation::MutationEngine::Options{}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(svc.mutation_engine(), nullptr);
}

// ---------------------------------------------------------------------------
// Live store rebuild (epoch swap behind traffic)
// ---------------------------------------------------------------------------

class LiveRebuildTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ids_ = biozon::BuildFigure3Database(&db_);
    view_ = std::make_unique<graph::DataGraphView>(db_);
    schema_ = std::make_unique<graph::SchemaGraph>(db_);
    // The initial store lives only in the handle: once a rebuild retires
    // it and the last snapshot drops, its destructor cleans its tables up.
    auto store = std::make_shared<core::TopologyStore>();
    core::TopologyBuilder builder(&db_, schema_.get(), view_.get());
    core::BuildConfig config;
    config.max_path_length = 2;
    ASSERT_TRUE(builder.BuildAllPairs(config, store.get()).ok());
    core::PruneConfig prune;
    prune.frequency_threshold = 0;
    for (const auto& [key, pair] : store->pairs()) {
      ASSERT_TRUE(core::PruneFrequentTopologies(&db_, store.get(),
                                                key.first, key.second, prune)
                      .ok());
    }
    handle_ = std::make_shared<core::StoreHandle>(store);
    engine_ = std::make_unique<engine::Engine>(
        &db_, handle_, schema_.get(), view_.get(),
        core::ScoreModel(&store->catalog(),
                         biozon::MakeBiozonDomainKnowledge(ids_)));
  }

  engine::TopologyQuery ProteinDnaQuery() const {
    engine::TopologyQuery q;
    q.entity_set1 = "Protein";
    q.pred1 = storage::MakeContainsKeyword(db_.GetTable("Protein")->schema(),
                                           "DESC", "enzyme");
    q.entity_set2 = "DNA";
    q.scheme = core::RankScheme::kFreq;
    q.k = 20;
    return q;
  }

  /// Ground truth for max_path_length = l on an identical fresh database.
  std::vector<engine::ResultEntry> GroundTruth(size_t l,
                                               MethodKind method) const {
    storage::Catalog db;
    biozon::BiozonSchema ids = biozon::BuildFigure3Database(&db);
    graph::DataGraphView view(db);
    graph::SchemaGraph schema(db);
    core::TopologyStore store;
    core::TopologyBuilder builder(&db, &schema, &view);
    core::BuildConfig config;
    config.max_path_length = l;
    TSB_CHECK(builder.BuildAllPairs(config, &store).ok());
    core::PruneConfig prune;
    prune.frequency_threshold = 0;
    std::vector<std::pair<storage::EntityTypeId, storage::EntityTypeId>>
        keys;
    for (const auto& [key, pair] : store.pairs()) keys.push_back(key);
    for (const auto& [t1, t2] : keys) {
      TSB_CHECK(
          core::PruneFrequentTopologies(&db, &store, t1, t2, prune).ok());
    }
    engine::Engine engine(&db, &store, &schema, &view,
                          core::ScoreModel(
                              &store.catalog(),
                              biozon::MakeBiozonDomainKnowledge(ids)));
    engine::TopologyQuery q;
    q.entity_set1 = "Protein";
    q.pred1 = storage::MakeContainsKeyword(db.GetTable("Protein")->schema(),
                                           "DESC", "enzyme");
    q.entity_set2 = "DNA";
    q.scheme = core::RankScheme::kFreq;
    q.k = 20;
    auto result = engine.Execute(q, method);
    TSB_CHECK(result.ok()) << result.status();
    return result->entries;
  }

  // Declaration order matters for teardown: retired stores drop their
  // tables from db_ when destroyed, so db_ must outlive engine_ (which
  // holds the last snapshot) — members are destroyed in reverse order.
  storage::Catalog db_;
  biozon::BiozonSchema ids_;
  std::unique_ptr<graph::DataGraphView> view_;
  std::unique_ptr<graph::SchemaGraph> schema_;
  std::shared_ptr<core::StoreHandle> handle_;
  std::unique_ptr<engine::Engine> engine_;
};

TEST_F(LiveRebuildTest, AttachLiveStoreOnlyChecksTheEnginesGraph) {
  // A handle-backed engine's service rebuilds with no attach call.
  service::TopologyService svc(engine_.get(), &db_, service::ServiceConfig{});
  service::RebuildOptions options;
  options.build.max_path_length = 2;
  auto stats = svc.Rebuild(options);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->epoch, 1u);
  EXPECT_EQ(stats->shards_swapped, 1u);
  EXPECT_EQ(handle_->epoch(), 1u);

  // AttachLiveStore accepts the engine's own schema and view, and names
  // any other graph a caller error.
  EXPECT_TRUE(svc.AttachLiveStore(schema_.get(), view_.get()).ok());
  graph::SchemaGraph other_schema(db_);
  graph::DataGraphView other_view(db_);
  EXPECT_EQ(svc.AttachLiveStore(&other_schema, view_.get()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(svc.AttachLiveStore(schema_.get(), &other_view).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(LiveRebuildTest, RebuildSwapsEpochBehindLiveTrafficZeroFailures) {
  const std::vector<engine::ResultEntry> pre =
      GroundTruth(2, MethodKind::kFullTop);
  const std::vector<engine::ResultEntry> post =
      GroundTruth(3, MethodKind::kFullTop);
  ASSERT_NE(pre, post) << "the rebuild must be observable";

  service::ServiceConfig config;
  config.num_threads = 4;
  service::TopologyService svc(engine_.get(), &db_, config);
  ASSERT_TRUE(svc.AttachLiveStore(schema_.get(), view_.get()).ok());

  // Sustained concurrent load across the swap: every response must be
  // pre- or post-epoch consistent, never an error, never a mixture.
  std::atomic<bool> stop{false};
  std::atomic<size_t> failures{0};
  std::atomic<size_t> inconsistent{0};
  std::atomic<size_t> served{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < 4; ++t) {
    clients.emplace_back([&]() {
      while (!stop.load(std::memory_order_acquire)) {
        auto response = Serve(svc, ProteinDnaQuery(), MethodKind::kFullTop);
        if (!response.error.ok()) {
          ++failures;
        } else if (response.result.entries != pre &&
                   response.result.entries != post) {
          ++inconsistent;
        }
        ++served;
      }
    });
  }

  // Ensure the swap really happens behind traffic: clients must be
  // serving before the rebuild starts and keep serving after the swap.
  while (served.load() < 8) std::this_thread::yield();

  service::RebuildOptions options;
  options.build.max_path_length = 3;
  options.prune_threshold = 0;
  options.export_topinfo = true;
  auto stats = svc.Rebuild(options);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->epoch, 1u);
  EXPECT_EQ(stats->table_namespace, "e1.");
  EXPECT_GT(stats->pairs_built, 3u);

  const size_t at_swap = served.load();
  while (served.load() < at_swap + 8) std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(inconsistent.load(), 0u);

  // Post-swap requests serve the new epoch (cache was folded into the
  // swap, so no stale entry survives).
  auto after = Serve(svc, ProteinDnaQuery(), MethodKind::kFullTop);
  ASSERT_TRUE(after.error.ok());
  EXPECT_EQ(after.result.entries, post);

  // Fast-Top paths work on the rebuilt epoch (it was pruned).
  auto fast = Serve(svc, ProteinDnaQuery(), MethodKind::kFastTopKEt);
  ASSERT_TRUE(fast.error.ok()) << fast.error.message;

  // New-epoch tables are namespaced; the retired epoch's tables were
  // dropped once its last snapshot was released.
  EXPECT_NE(db_.FindTable("e1.AllTops_Protein_DNA"), nullptr);
  EXPECT_EQ(db_.FindTable("AllTops_Protein_DNA"), nullptr);
  EXPECT_NE(db_.FindTable("TopInfo"), nullptr);
  EXPECT_EQ(svc.Metrics().Sum("tsb_service_errors_total"), 0u);
}

TEST_F(LiveRebuildTest, TriplesFollowTheLiveEpoch) {
  service::ServiceConfig config;
  config.num_threads = 2;
  service::TopologyService svc(engine_.get(), &db_, config);
  ASSERT_TRUE(svc.AttachLiveStore(schema_.get(), view_.get()).ok());

  engine::TripleQuery q;
  q.entity_set1 = "Protein";
  q.entity_set2 = "Unigene";
  q.entity_set3 = "DNA";
  auto before = svc.SubmitTriple(q).get();
  ASSERT_TRUE(before.result.ok()) << before.result.status();

  service::RebuildOptions options;
  options.build.max_path_length = 3;
  auto stats = svc.Rebuild(options);
  ASSERT_TRUE(stats.ok()) << stats.status();

  // The triple cache was invalidated with the swap; the re-run executes
  // against the new epoch and interns into the new catalog.
  auto after = svc.SubmitTriple(q).get();
  ASSERT_TRUE(after.result.ok()) << after.result.status();
  EXPECT_FALSE(after.from_cache);
  for (const auto& entry : after.result->entries) {
    EXPECT_LE(entry.tid,
              static_cast<core::Tid>(
                  handle_->Snapshot()->catalog().size()));
  }
}

TEST_F(LiveRebuildTest, BackToBackRebuildsAdvanceEpochsAndDropOldTables) {
  service::TopologyService svc(engine_.get(), &db_, service::ServiceConfig{});
  ASSERT_TRUE(svc.AttachLiveStore(schema_.get(), view_.get()).ok());

  for (uint64_t round = 1; round <= 3; ++round) {
    service::RebuildOptions options;
    options.build.max_path_length = 2 + (round % 2);
    auto stats = svc.Rebuild(options);
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_EQ(stats->epoch, round);
    // A query both validates the epoch and releases the previous snapshot.
    auto response = Serve(svc, ProteinDnaQuery(), MethodKind::kFullTop);
    ASSERT_TRUE(response.error.ok());
  }
  // Only the newest epoch's tables remain.
  EXPECT_EQ(db_.FindTable("AllTops_Protein_DNA"), nullptr);
  EXPECT_EQ(db_.FindTable("e1.AllTops_Protein_DNA"), nullptr);
  EXPECT_EQ(db_.FindTable("e2.AllTops_Protein_DNA"), nullptr);
  EXPECT_NE(db_.FindTable("e3.AllTops_Protein_DNA"), nullptr);
}

// ---------------------------------------------------------------------------
// Request parser
// ---------------------------------------------------------------------------

class ParserFig3Test : public ServiceFig3Test {};

TEST_F(ParserFig3Test, ParsesMethodsSchemesAndPredicates) {
  service::RequestParser parser(&db_);
  auto req = parser.Parse(
      "TOPK k=3 method=full-topk-opt scheme=rare set1=Protein "
      "pred1=DESC.ct('enzyme')&&ID.between(30,40) set2=DNA "
      "pred2=TYPE='mRNA' exclude_weak=1");
  ASSERT_TRUE(req.ok()) << req.status();
  EXPECT_EQ(req->method, MethodKind::kFullTopKOpt);
  EXPECT_EQ(req->query.scheme, core::RankScheme::kRare);
  EXPECT_EQ(req->query.k, 3u);
  EXPECT_TRUE(req->query.exclude_weak);
  EXPECT_EQ(req->query.entity_set1, "Protein");
  EXPECT_EQ(req->query.entity_set2, "DNA");
  ASSERT_NE(req->query.pred1, nullptr);
  ASSERT_NE(req->query.pred2, nullptr);

  // The conjunction really is AND: it must filter like the hand-built one.
  auto hand = storage::MakeAnd(
      storage::MakeContainsKeyword(db_.GetTable("Protein")->schema(), "DESC",
                                   "enzyme"),
      storage::MakeInt64Between(db_.GetTable("Protein")->schema(), "ID", 30,
                                40));
  EXPECT_EQ(storage::FilterRows(*db_.GetTable("Protein"), *req->query.pred1),
            storage::FilterRows(*db_.GetTable("Protein"), *hand));
}

TEST_F(ParserFig3Test, TopVerbDefaultsToFullResultMethod) {
  service::RequestParser parser(&db_);
  auto req = parser.Parse("TOP set1=Protein set2=DNA");
  ASSERT_TRUE(req.ok());
  EXPECT_FALSE(engine::MethodIsTopK(req->method));
  EXPECT_EQ(req->query.pred1, nullptr);
  EXPECT_EQ(req->query.pred2, nullptr);
}

TEST_F(ParserFig3Test, QuotedValuesMayContainSpaces) {
  service::RequestParser parser(&db_);
  auto req = parser.Parse(
      "TOPK set1=Protein pred1=DESC.ct('binding protein') set2=DNA");
  ASSERT_TRUE(req.ok()) << req.status();
  ASSERT_NE(req->query.pred1, nullptr);
}

TEST_F(ParserFig3Test, RejectsMalformedRequests) {
  service::RequestParser parser(&db_);
  EXPECT_FALSE(parser.Parse("").ok());
  EXPECT_FALSE(parser.Parse("FROBNICATE set1=Protein set2=DNA").ok());
  EXPECT_FALSE(parser.Parse("TOPK set1=Protein").ok());  // Missing set2.
  EXPECT_FALSE(parser.Parse("TOPK set1=Protein set2=DNA bogus_key=1").ok());
  EXPECT_FALSE(
      parser.Parse("TOPK set1=Protein set2=DNA method=warp-speed").ok());
  EXPECT_FALSE(
      parser.Parse("TOPK set1=Protein pred1=NOCOL.ct('x') set2=DNA").ok());
  EXPECT_FALSE(
      parser.Parse("TOPK set1=Martian set2=DNA pred1=DESC.ct('x')").ok());
  // Verb/method mismatches.
  EXPECT_FALSE(
      parser.Parse("TOP method=fast-topk set1=Protein set2=DNA").ok());
  EXPECT_FALSE(
      parser.Parse("TOPK method=full-top set1=Protein set2=DNA").ok());
  // A '==' typo must error, not silently match the literal "='...'".
  EXPECT_FALSE(
      parser.Parse("TOPK set1=Protein set2=DNA pred2=TYPE=='mRNA'").ok());
  // Integers outside int64 are errors, not clamped to its limits; ct()
  // and between() on a column of another type are errors, not aborts.
  for (const char* line :
       {"TOPK k=99999999999999999999 set1=Protein set2=DNA",
        "TOPK set1=Protein pred1=ID.between(1,99999999999999999999) "
        "set2=DNA",
        "TOPK set1=Protein pred1=ID=99999999999999999999 set2=DNA",
        "TOPK set1=Protein pred1=ID.ct('x') set2=DNA",
        "TOPK set1=Protein pred1=DESC.between(1,2) set2=DNA"}) {
    auto req = parser.Parse(line);
    EXPECT_FALSE(req.ok()) << line;
    EXPECT_EQ(req.status().code(), StatusCode::kInvalidArgument) << line;
    EXPECT_NE(req.status().message().find("at byte"), std::string::npos)
        << req.status().message();
  }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST_F(ServiceFig3Test, MetricsTrackPerMethodTraffic) {
  service::TopologyService svc(engine_.get(), &db_, service::ServiceConfig{});
  for (int i = 0; i < 3; ++i) {
    auto r = Serve(svc, ExampleQuery(core::RankScheme::kFreq),
                   MethodKind::kFullTop);
    ASSERT_TRUE(r.error.ok());
  }
  auto r = Serve(svc, ExampleQuery(core::RankScheme::kFreq),
                 MethodKind::kFastTop);
  ASSERT_TRUE(r.error.ok());

  const obs::MetricsRead read = svc.Metrics();
  EXPECT_EQ(read.Sum("tsb_service_requests_total"), 4u);
  // Runs 2 and 3 of Full-Top.
  EXPECT_EQ(read.Sum("tsb_service_cache_hits_total"), 2u);
  ASSERT_EQ(read.All("tsb_service_requests_total").size(), 2u);
  for (const obs::MetricSample* row : read.All("tsb_service_requests_total")) {
    const std::string& method = row->labels[0];
    if (method == "Full-Top") {
      EXPECT_EQ(row->count, 3u);
      EXPECT_EQ(read.Count("tsb_service_cache_hits_total", {method}), 2u);
    } else {
      EXPECT_EQ(method, "Fast-Top");
      EXPECT_EQ(row->count, 1u);
    }
    const obs::LatencyHistogram& latency =
        read.Find("tsb_service_latency_hist_seconds", {method})->histogram;
    EXPECT_GE(latency.Quantile(0.95), latency.Quantile(0.50));
  }
  EXPECT_FALSE(service::MetricsTable(read).empty());
}

}  // namespace
}  // namespace tsb
