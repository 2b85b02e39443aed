// Distributed-trace assembly across router, shards, and replicas: a
// sampled query over a 2-shard × 2-replica loopback grid produces ONE
// trace whose span tree covers the admission queue, the cache lookup, the
// scatter fan-out, every physical replica attempt (failovers and hedges
// tagged), the shard-side executions piggybacked across the wire, and the
// k-way merge — with consistent parent/child span ids throughout. Plus
// the acceptance identity: all nine methods stay byte-identical through
// the traced wire path at N ∈ {1, 4}, and the slow-query log captures the
// structured record.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "biozon/domain.h"
#include "biozon/fig3.h"
#include "core/builder.h"
#include "core/pruner.h"
#include "engine/engine.h"
#include "obs/trace.h"
#include "replica/replica_set.h"
#include "service/service.h"
#include "service_test_util.h"
#include "shard/replica_loopback.h"
#include "shard/scatter_gather.h"
#include "shard/sharded_store.h"
#include "wire/message.h"

namespace tsb {
namespace {

using engine::MethodKind;
using service_test::Serve;

const std::vector<MethodKind> kAllMethods = {
    MethodKind::kSql,         MethodKind::kFullTop,
    MethodKind::kFastTop,     MethodKind::kFullTopK,
    MethodKind::kFastTopK,    MethodKind::kFullTopKEt,
    MethodKind::kFastTopKEt,  MethodKind::kFullTopKOpt,
    MethodKind::kFastTopKOpt,
};

size_t CountByName(const std::vector<obs::Span>& spans,
                   const std::string& name) {
  size_t count = 0;
  for (const obs::Span& span : spans) {
    if (span.name == name) ++count;
  }
  return count;
}

bool HasSpanWithTag(const std::vector<obs::Span>& spans,
                    const std::string& name, const std::string& tag) {
  for (const obs::Span& span : spans) {
    if (span.name == name && span.tags.find(tag) != std::string::npos) {
      return true;
    }
  }
  return false;
}

/// Every span's parent must be resolvable within the one trace: zero (a
/// root) or the id of another span in the list — the property that makes
/// the assembled tree render without orphans.
void ExpectParentIdsConsistent(const std::vector<obs::Span>& spans) {
  std::set<uint64_t> ids;
  for (const obs::Span& span : spans) {
    EXPECT_NE(span.span_id, 0u) << span.name;
    ids.insert(span.span_id);
  }
  EXPECT_EQ(ids.size(), spans.size()) << "duplicate span ids";
  for (const obs::Span& span : spans) {
    EXPECT_TRUE(span.parent_span_id == 0 || ids.count(span.parent_span_id))
        << span.name << " parents unknown span "
        << span.parent_span_id;
  }
}

class TraceFig3Test : public ::testing::Test {
 protected:
  void SetUp() override {
    ids_ = biozon::BuildFigure3Database(&db_);
    view_ = std::make_unique<graph::DataGraphView>(db_);
    schema_ = std::make_unique<graph::SchemaGraph>(db_);
    core::TopologyBuilder builder(&db_, schema_.get(), view_.get());
    core::BuildConfig config;
    config.max_path_length = 3;
    ASSERT_TRUE(builder.BuildAllPairs(config, &store_).ok());
    core::PruneConfig prune;
    prune.frequency_threshold = 0;
    std::vector<std::pair<storage::EntityTypeId, storage::EntityTypeId>>
        keys;
    for (const auto& [key, pair] : store_.pairs()) keys.push_back(key);
    for (const auto& [t1, t2] : keys) {
      ASSERT_TRUE(
          core::PruneFrequentTopologies(&db_, &store_, t1, t2, prune).ok());
    }
    engine_ = std::make_unique<engine::Engine>(
        &db_, &store_, schema_.get(), view_.get(),
        core::ScoreModel(&store_.catalog(),
                         biozon::MakeBiozonDomainKnowledge(ids_)));
  }

  std::unique_ptr<shard::ScatterGatherExecutor> MakeSharded(
      size_t n, const std::string& tag) {
    auto sharded = std::make_shared<shard::ShardedTopologyStore>(n);
    core::TopologyBuilder builder(&db_, schema_.get(), view_.get());
    core::BuildConfig build;
    build.max_path_length = 3;
    build.table_namespace = tag + std::to_string(n) + ".";
    EXPECT_TRUE(sharded->Build(&builder, build).ok());
    core::PruneConfig prune;
    prune.frequency_threshold = 0;
    for (size_t i = 0; i < n; ++i) {
      auto snapshot = sharded->Snapshot(i);
      std::vector<std::pair<storage::EntityTypeId, storage::EntityTypeId>>
          keys;
      for (const auto& [key, pair] : snapshot->pairs()) keys.push_back(key);
      for (const auto& [t1, t2] : keys) {
        EXPECT_TRUE(core::PruneFrequentTopologies(&db_, snapshot.get(), t1,
                                                  t2, prune)
                        .ok());
      }
    }
    return std::make_unique<shard::ScatterGatherExecutor>(
        &db_, sharded, schema_.get(), view_.get(),
        biozon::MakeBiozonDomainKnowledge(ids_),
        engine::SqlBaselineOptions{}, shard::ScatterGatherConfig{});
  }

  /// Executor wired through a ReplicaSetTransport over an N×R loopback
  /// grid (fault injectors kept reachable in `raw`).
  struct ReplicaRig {
    std::unique_ptr<shard::ScatterGatherExecutor> executor;
    std::vector<std::vector<shard::LoopbackReplicaChannel*>> raw;
    std::unique_ptr<replica::ReplicaSetTransport> transport;

    ReplicaRig() = default;
    ReplicaRig(ReplicaRig&&) = default;
    ReplicaRig& operator=(ReplicaRig&&) = default;
    ~ReplicaRig() {
      if (executor != nullptr) executor->set_transport(nullptr);
    }
  };

  ReplicaRig MakeRig(size_t n, size_t r, const std::string& tag,
                     replica::ReplicaSetConfig config =
                         replica::ReplicaSetConfig{}) {
    ReplicaRig rig;
    rig.executor = MakeSharded(n, tag);
    std::vector<const engine::Engine*> engines;
    for (size_t i = 0; i < n; ++i) {
      engines.push_back(&rig.executor->shard_engine(i));
    }
    shard::LoopbackReplicaGrid grid = shard::MakeLoopbackReplicaGrid(
        &db_, &rig.executor->store(), engines, r);
    rig.raw = std::move(grid.raw);
    rig.transport = std::make_unique<replica::ReplicaSetTransport>(
        std::move(grid.channels), config,
        rig.executor->transport_metrics());
    rig.executor->set_transport(rig.transport.get());
    return rig;
  }

  engine::TopologyQuery ScatteringQuery() const {
    engine::TopologyQuery q;
    q.entity_set1 = "Protein";
    q.entity_set2 = "DNA";
    q.scheme = core::RankScheme::kFreq;
    q.k = 10;
    return q;
  }

  storage::Catalog db_;
  biozon::BiozonSchema ids_;
  std::unique_ptr<graph::DataGraphView> view_;
  std::unique_ptr<graph::SchemaGraph> schema_;
  core::TopologyStore store_;
  std::unique_ptr<engine::Engine> engine_;
};

TEST_F(TraceFig3Test, FailoverQueryAssemblesOneCrossProcessTrace) {
  // Hedging off so the only second attempt is the injected failover. On a
  // fresh rig the router deterministically picks replica 0 primary (all
  // ranking inputs tie); one injected transient failure there forces a
  // failover to replica 1. The designated shard never crosses the
  // transport, so injecting on both shards' replica 0 arms exactly the
  // remote one.
  replica::ReplicaSetConfig transport_config;
  transport_config.hedge_enabled = false;
  ReplicaRig rig = MakeRig(2, 2, "tfo", transport_config);
  for (size_t shard = 0; shard < 2; ++shard) {
    rig.raw[shard][0]->InjectFailures(1);
  }

  service::ServiceConfig svc_config;
  svc_config.num_threads = 2;
  svc_config.trace.sample_every = 1;  // Trace everything.
  service::TopologyService svc(rig.executor.get(), &db_, svc_config);

  auto expected = engine_->Execute(ScatteringQuery(), MethodKind::kFullTop);
  ASSERT_TRUE(expected.ok());
  auto response = Serve(svc, ScatteringQuery(), MethodKind::kFullTop);
  ASSERT_TRUE(response.error.ok()) << response.error.message;
  // The failover is invisible in results: byte-identical, not partial.
  EXPECT_EQ(response.result.entries, expected->entries);
  EXPECT_FALSE(response.result.partial);

  // Exactly one trace was assembled for the one sampled query.
  auto recent = svc.tracer().Recent();
  ASSERT_EQ(recent.size(), 1u);
  const auto& trace = recent.front();
  const std::vector<obs::Span> spans = trace->Spans();
  ExpectParentIdsConsistent(spans);

  // The tree covers every stage of the query's journey.
  EXPECT_EQ(spans[0].name, "service.query");
  EXPECT_EQ(spans[0].span_id, trace->root_span_id());
  EXPECT_EQ(CountByName(spans, "queue.wait"), 1u);
  EXPECT_EQ(CountByName(spans, "cache.lookup"), 1u);
  EXPECT_EQ(CountByName(spans, "execute"), 1u);
  EXPECT_EQ(CountByName(spans, "scatter"), 1u);
  EXPECT_EQ(CountByName(spans, "designated.exec"), 1u);
  EXPECT_EQ(CountByName(spans, "merge"), 1u);
  ASSERT_GE(CountByName(spans, "rpc"), 1u);
  // The shard-side execution span crossed the wire (piggybacked on the
  // response and absorbed at gather).
  EXPECT_GE(CountByName(spans, "shard.exec"), 1u);

  // Both physical attempts are named: the failed primary and the
  // failover that served the answer.
  EXPECT_EQ(CountByName(spans, "replica.attempt"), 2u);
  EXPECT_TRUE(HasSpanWithTag(spans, "replica.attempt", "ok=0"));
  EXPECT_TRUE(HasSpanWithTag(spans, "replica.attempt", "failover=1"));
  EXPECT_TRUE(HasSpanWithTag(spans, "replica.attempt", "replica=1"));
  // The shard.exec that answered names the serving replica's stamp.
  EXPECT_TRUE(HasSpanWithTag(spans, "shard.exec", "stamp=r1"));

  svc.Shutdown();
}

TEST_F(TraceFig3Test, HedgedQueryTracesBothAttempts) {
  // Replica 0 of every shard stalls well past the hedge delay: the
  // primary attempt dawdles, the hedge fires at replica 1 and wins. The
  // loser still completes (cancellation-safe tracing), so its span lands
  // in the same — already recorded — trace shortly after.
  replica::ReplicaSetConfig transport_config;
  transport_config.hedge_delay_default_seconds = 0.01;
  ReplicaRig rig = MakeRig(2, 2, "thg", transport_config);
  const double stall_seconds = 0.15;
  for (size_t shard = 0; shard < 2; ++shard) {
    rig.raw[shard][0]->SetDelay(stall_seconds);
  }

  service::ServiceConfig svc_config;
  svc_config.num_threads = 2;
  svc_config.trace.sample_every = 1;
  service::TopologyService svc(rig.executor.get(), &db_, svc_config);

  auto expected = engine_->Execute(ScatteringQuery(), MethodKind::kFullTop);
  ASSERT_TRUE(expected.ok());
  auto response = Serve(svc, ScatteringQuery(), MethodKind::kFullTop);
  ASSERT_TRUE(response.error.ok()) << response.error.message;
  EXPECT_EQ(response.result.entries, expected->entries);

  auto recent = svc.tracer().Recent();
  ASSERT_EQ(recent.size(), 1u);
  const auto& trace = recent.front();

  // Wait for the stalled loser to finish and record its span.
  std::vector<obs::Span> spans;
  for (int i = 0; i < 200; ++i) {
    spans = trace->Spans();
    if (CountByName(spans, "replica.attempt") >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ExpectParentIdsConsistent(spans);
  ASSERT_EQ(CountByName(spans, "replica.attempt"), 2u);
  EXPECT_TRUE(HasSpanWithTag(spans, "replica.attempt", "hedge=1"));
  // Both the winner and the (slow but successful) loser report ok=1.
  EXPECT_FALSE(HasSpanWithTag(spans, "replica.attempt", "ok=0"));

  svc.Shutdown();
}

TEST_F(TraceFig3Test,
       TracedWirePathStaysByteIdenticalForEveryMethodAtOneAndFourShards) {
  // The acceptance identity: with every query sampled, tracing must not
  // perturb a single byte of any method's results, with and without
  // fan-out.
  for (size_t n : {1u, 4u}) {
    ReplicaRig rig = MakeRig(n, 2, "tid");
    service::ServiceConfig svc_config;
    svc_config.num_threads = 2;
    svc_config.trace.sample_every = 1;
    svc_config.trace.max_recent = 64;
    service::TopologyService svc(rig.executor.get(), &db_, svc_config);

    for (MethodKind method : kAllMethods) {
      auto expected = engine_->Execute(ScatteringQuery(), method);
      auto response = Serve(svc, ScatteringQuery(), method);
      ASSERT_EQ(expected.ok(), response.error.ok())
          << engine::MethodKindToString(method) << " @" << n;
      if (!expected.ok()) continue;
      EXPECT_EQ(expected->entries, response.result.entries)
          << engine::MethodKindToString(method) << " @" << n << " shards";
      EXPECT_FALSE(response.result.partial);
    }
    // Every executed query yielded a recorded trace with a consistent
    // tree.
    auto recent = svc.tracer().Recent();
    EXPECT_GE(recent.size(), kAllMethods.size() - 1)
        << n;  // kSql may fail on fixtures without a SQL baseline.
    for (const auto& trace : recent) {
      ExpectParentIdsConsistent(trace->Spans());
    }
    svc.Shutdown();
  }
}

TEST_F(TraceFig3Test, SlowQueryLogCapturesStructuredRecordWithSpanTree) {
  ReplicaRig rig = MakeRig(2, 2, "tsl");
  service::ServiceConfig svc_config;
  svc_config.num_threads = 2;
  svc_config.trace.sample_every = 1;
  svc_config.slow_query.threshold_seconds = 1e-9;  // Everything is slow.
  service::TopologyService svc(rig.executor.get(), &db_, svc_config);

  auto response = Serve(svc, ScatteringQuery(), MethodKind::kFullTopK);
  ASSERT_TRUE(response.error.ok());

  auto records = svc.slow_query_log().Recent();
  ASSERT_EQ(records.size(), 1u);
  const obs::SlowQueryRecord& record = records.front();
  EXPECT_TRUE(record.ok);
  EXPECT_GT(record.service_seconds, 0.0);
  // The canonical request line and the method are reconstructible.
  EXPECT_NE(record.request.find("set1=Protein"), std::string::npos)
      << record.request;
  EXPECT_NE(record.request.find("set2=DNA"), std::string::npos);
  EXPECT_EQ(record.method, "Full-Top-k");
  EXPECT_FALSE(record.plan.empty());
  // Sampled query: the record carries the trace id and the rendered tree.
  EXPECT_NE(record.trace_id, 0u);
  EXPECT_NE(record.span_tree.find("service.query"), std::string::npos);
  EXPECT_NE(record.span_tree.find("scatter"), std::string::npos);

  // A cache hit is also recorded (threshold is epsilon) and flagged so.
  auto hit = Serve(svc, ScatteringQuery(), MethodKind::kFullTopK);
  ASSERT_TRUE(hit.error.ok());
  EXPECT_TRUE(hit.from_cache);
  records = svc.slow_query_log().Recent();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_TRUE(records.back().from_cache);

  svc.Shutdown();
}

}  // namespace
}  // namespace tsb
