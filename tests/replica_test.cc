// The replica-set subsystem (src/replica/): serving-stamp codec, the
// health tracker's failure ladder and epoch quarantine, replica-dimension
// metrics, and the ReplicaSetTransport contract — N×R scatter stays
// byte-identical to a single-store engine, a killed replica fails over to
// a sibling with zero partial answers, dead replicas are probed back in
// by live traffic, hedged reads cut the tail, and a live sharded rebuild
// rolls epochs under replica failover without losing a query.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "biozon/domain.h"
#include "biozon/fig3.h"
#include "core/builder.h"
#include "core/pruner.h"
#include "engine/engine.h"
#include "net/shard_server.h"
#include "replica/health.h"
#include "replica/replica_set.h"
#include "service/service.h"
#include "service_test_util.h"
#include "shard/frame_handler.h"
#include "shard/replica_loopback.h"
#include "shard/scatter_gather.h"
#include "shard/sharded_store.h"
#include "wire/codec.h"
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

std::string UdsPath(const std::string& tag, size_t i) {
  return "/tmp/tsb_replica_test_" + std::to_string(::getpid()) + "_" + tag +
         "_" + std::to_string(i) + ".sock";
}

// ---------------------------------------------------------------------------
// Serving stamp codec
// ---------------------------------------------------------------------------

TEST(ServingStampTest, RoundTripsAndRejectsGarbage) {
  const std::string stamp = wire::MakeServingStamp(3, 17);
  EXPECT_EQ(stamp, "r3:e17");
  uint64_t replica = 0;
  uint64_t epoch = 0;
  ASSERT_TRUE(wire::ParseServingStamp(stamp, &replica, &epoch));
  EXPECT_EQ(replica, 3u);
  EXPECT_EQ(epoch, 17u);

  for (const std::string& bad :
       {"", "r", "r3", "r3:e", "3:e17", "r3e17", "r3:e17x", "rx:e17"}) {
    EXPECT_FALSE(wire::ParseServingStamp(bad, &replica, &epoch)) << bad;
  }
}

TEST(ServingStampTest, ResponsesCarryAPeekableStamp) {
  wire::WireResponse response;
  response.request_id = 42;
  response.serving_stamp = wire::MakeServingStamp(1, 9);
  response.result.entries.push_back({7, 3.5});
  std::string frame;
  wire::EncodeQueryResponse(response, &frame);

  // The cheap prefix peek — no payload decode.
  auto stamp = wire::PeekResponseStamp(frame);
  ASSERT_TRUE(stamp.ok());
  EXPECT_EQ(*stamp, "r1:e9");

  // And the full decode preserves it.
  auto decoded = wire::DecodeQueryResponse(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->serving_stamp, "r1:e9");
  EXPECT_EQ(decoded->result.entries, response.result.entries);
}

// ---------------------------------------------------------------------------
// Health tracker
// ---------------------------------------------------------------------------

TEST(ReplicaHealthTest, WalksTheFailureLadderAndReinstates) {
  replica::HealthConfig config;
  config.failures_to_eject = 3;
  config.probe_interval_seconds = 10.0;  // Manual clock below.
  replica::ReplicaHealthTracker tracker({2}, config);
  const auto t0 = std::chrono::steady_clock::now();

  EXPECT_EQ(tracker.state(0, 0), replica::ReplicaHealth::kHealthy);
  tracker.OnFailure(0, 0, t0);
  EXPECT_EQ(tracker.state(0, 0), replica::ReplicaHealth::kSuspect);
  EXPECT_EQ(tracker.Rank(0, 0, t0), replica::kTierSuspect);
  // A success clears the ladder.
  tracker.OnSuccess(0, 0, 0, t0);
  EXPECT_EQ(tracker.state(0, 0), replica::ReplicaHealth::kHealthy);
  EXPECT_EQ(tracker.consecutive_failures(0, 0), 0u);

  // Three consecutive failures eject.
  for (int i = 0; i < 3; ++i) tracker.OnFailure(0, 0, t0);
  EXPECT_EQ(tracker.state(0, 0), replica::ReplicaHealth::kEjected);
  // Not probe-due until the interval passes; siblings rank better.
  EXPECT_EQ(tracker.Rank(0, 0, t0), replica::kTierEjected);
  EXPECT_EQ(tracker.Rank(0, 1, t0), replica::kTierHealthy);
  EXPECT_FALSE(tracker.StartProbe(0, 0, t0));

  // Past the interval the probe is claimable exactly once.
  const auto t1 = t0 + std::chrono::seconds(11);
  EXPECT_EQ(tracker.Rank(0, 0, t1), replica::kTierEjectedProbeDue);
  EXPECT_TRUE(tracker.StartProbe(0, 0, t1));
  EXPECT_FALSE(tracker.StartProbe(0, 0, t1));  // Claimed; next interval.

  // The probe answering reinstates.
  tracker.OnSuccess(0, 0, 0, t1);
  EXPECT_EQ(tracker.state(0, 0), replica::ReplicaHealth::kHealthy);
}

TEST(ReplicaHealthTest, QuarantinesStaleEpochsUntilTheyCatchUp) {
  replica::ReplicaHealthTracker tracker({2});
  const auto now = std::chrono::steady_clock::now();

  // Replica 0 serves epoch 2: the shard's high-water mark.
  tracker.OnSuccess(0, 0, 2, now);
  EXPECT_EQ(tracker.shard_epoch(0), 2u);
  EXPECT_EQ(tracker.state(0, 0), replica::ReplicaHealth::kHealthy);

  // Replica 1 still serves epoch 1: stale → quarantined, ranked after
  // healthy and suspect but before a not-probe-due ejection.
  tracker.OnSuccess(0, 1, 1, now);
  EXPECT_EQ(tracker.state(0, 1), replica::ReplicaHealth::kQuarantined);
  EXPECT_EQ(tracker.Rank(0, 1, now), replica::kTierQuarantined);
  EXPECT_EQ(tracker.replica_epoch(0, 1), 1u);

  // Catching up self-heals.
  tracker.OnSuccess(0, 1, 2, now);
  EXPECT_EQ(tracker.state(0, 1), replica::ReplicaHealth::kHealthy);

  // And a replica rolling *forward* moves the mark, quarantining laggards
  // on their next answer.
  tracker.OnSuccess(0, 1, 3, now);
  EXPECT_EQ(tracker.shard_epoch(0), 3u);
  tracker.OnSuccess(0, 0, 2, now);
  EXPECT_EQ(tracker.state(0, 0), replica::ReplicaHealth::kQuarantined);
}

// ---------------------------------------------------------------------------
// Replica metrics
// ---------------------------------------------------------------------------

TEST(ReplicaMetricsTest, TracksOutstandingAndGatesTheP95Warmup) {
  service::ReplicaMetrics metrics({2, 3});
  EXPECT_EQ(metrics.num_shards(), 2u);
  EXPECT_EQ(metrics.num_replicas(1), 3u);

  metrics.RecordAttempt(0, 1, /*is_probe=*/false, /*is_hedge=*/true);
  EXPECT_EQ(metrics.Outstanding(0, 1), 1u);
  metrics.RecordOutcome(0, 1, 0.010, /*ok=*/true);
  EXPECT_EQ(metrics.Outstanding(0, 1), 0u);
  EXPECT_GT(metrics.RttEwma(0, 1), 0.0);

  // The hedge base stays 0 until min_samples attempts completed.
  EXPECT_EQ(metrics.ShardRttP95(0, /*min_samples=*/32), 0.0);
  for (int i = 0; i < 40; ++i) {
    metrics.RecordAttempt(0, 0, false, false);
    metrics.RecordOutcome(0, 0, 0.005, true);
  }
  // Past the gate the base is the pooled histogram's bucket-resolution
  // p95 over both replicas' successful outcomes.
  obs::LatencyHistogram pooled;
  pooled.Record(0.010);
  for (int i = 0; i < 40; ++i) pooled.Record(0.005);
  EXPECT_EQ(metrics.ShardRttP95(0, 32), pooled.Quantile(0.95));

  auto snap = metrics.Snapshot();
  EXPECT_EQ(snap.shards[0].replicas[1].hedge_attempts, 1u);
  EXPECT_EQ(snap.shards[0].replicas[0].attempts, 40u);
  EXPECT_EQ(snap.shards[0].replicas[0].rtt.count(), 40u);
  EXPECT_FALSE(service::ReplicaTable(metrics.Read()).empty());

  // The transport's hedge delay: the default below hedge_min_samples,
  // then max(floor, factor × pooled p95), and the default again on a
  // fresh transport. The channels are never dialled — outcomes are recorded
  // directly into the transport's metrics.
  replica::ReplicaSetConfig config;
  config.hedge_min_samples = 8;
  config.attempt_threads = 1;
  config.coordinator_threads = 1;
  const net::ShardEndpoint nowhere =
      net::ShardEndpoint::Unix("/nonexistent/hedge-delay.sock");
  replica::ReplicaSetTransport transport(
      replica::MakeSocketReplicaGrid({{nowhere, nowhere}}), config);
  service::ReplicaMetrics& live = transport.replica_metrics();
  obs::LatencyHistogram shard_rtt;
  auto record = [&](size_t replica, double rtt, bool ok) {
    live.RecordAttempt(0, replica, false, false);
    live.RecordOutcome(0, replica, rtt, ok);
    if (ok) shard_rtt.Record(rtt);
  };
  auto expected_delay = [&] {
    return std::max(config.hedge_delay_floor_seconds,
                    config.hedge_delay_factor * shard_rtt.Quantile(0.95));
  };
  // A failed attempt counts toward the warm-up but not the histogram.
  record(1, 5.0, /*ok=*/false);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(transport.HedgeDelaySeconds(0),
              config.hedge_delay_default_seconds)
        << i;
    record(i % 2, 0.0003, true);
  }
  EXPECT_EQ(transport.HedgeDelaySeconds(0),
            config.hedge_delay_default_seconds);
  record(0, 0.0003, true);
  // Sub-millisecond p95: the floor wins.
  EXPECT_EQ(transport.HedgeDelaySeconds(0), config.hedge_delay_floor_seconds);
  EXPECT_EQ(transport.HedgeDelaySeconds(0), expected_delay());
  // A slow tail (2 of 9 samples) moves the p95, not the p50, past
  // floor / factor.
  for (int i = 0; i < 2; ++i) record(i % 2, 0.030, true);
  ASSERT_LT(config.hedge_delay_factor * shard_rtt.Quantile(0.50),
            config.hedge_delay_floor_seconds);
  EXPECT_GT(transport.HedgeDelaySeconds(0), config.hedge_delay_floor_seconds);
  EXPECT_EQ(transport.HedgeDelaySeconds(0), expected_delay());
  replica::ReplicaSetTransport fresh(
      replica::MakeSocketReplicaGrid({{nowhere, nowhere}}), config);
  EXPECT_EQ(fresh.HedgeDelaySeconds(0), config.hedge_delay_default_seconds);
}

// ---------------------------------------------------------------------------
// ReplicaSetTransport over the loopback grid
// ---------------------------------------------------------------------------

/// The Figure-3 world plus a single-store reference engine (ground truth
/// for every identity check), mirroring the net_test fixture.
class ReplicaFig3Test : public ::testing::Test {
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

  /// An executor wired through a ReplicaSetTransport over an N×R loopback
  /// grid, with the per-channel fault injectors kept reachable.
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

TEST_F(ReplicaFig3Test, ReplicaScatterIsByteIdenticalToDirect) {
  // The identity contract across grid shapes: replication must be
  // invisible in results, for every method.
  struct Shape {
    size_t shards;
    size_t replicas;
  };
  for (const Shape shape : {Shape{2, 2}, Shape{4, 3}}) {
    ReplicaRig rig = MakeRig(shape.shards, shape.replicas, "ri");
    for (MethodKind method : kAllMethods) {
      auto direct = engine_->Execute(ScatteringQuery(), method);
      auto replicated = rig.executor->Execute(ScatteringQuery(), method);
      ASSERT_EQ(direct.ok(), replicated.ok())
          << engine::MethodKindToString(method);
      if (!direct.ok()) continue;
      EXPECT_EQ(replicated->entries, direct->entries)
          << engine::MethodKindToString(method) << " @" << shape.shards
          << "x" << shape.replicas;
      EXPECT_FALSE(replicated->partial);
    }
    // The transport actually carried traffic, and stamps flowed back
    // (every attempt lands a health verdict keyed by the stamp's epoch).
    auto snap = rig.transport->replica_metrics().Snapshot();
    uint64_t attempts = 0;
    for (const auto& shard : snap.shards) {
      for (const auto& rep : shard.replicas) attempts += rep.attempts;
    }
    EXPECT_GT(attempts, 0u);
  }
}

TEST_F(ReplicaFig3Test, KilledReplicaFailsOverWithZeroPartials) {
  replica::ReplicaSetConfig config;
  config.health.failures_to_eject = 3;
  config.health.probe_interval_seconds = 0.001;
  ReplicaRig rig = MakeRig(4, 2, "rk", config);
  auto expected = engine_->Execute(ScatteringQuery(), MethodKind::kFullTop);
  ASSERT_TRUE(expected.ok());

  // Kill replica 0 of every shard (SIGKILL analogue): every sub-query's
  // likely primary dies, and every one must fail over to replica 1
  // without a single partial answer. The pacing lets probe intervals
  // elapse, so the dead replica walks suspect → ejected under the flood.
  for (auto& shard : rig.raw) shard[0]->SetDown(true);
  for (int i = 0; i < 30; ++i) {
    auto result = rig.executor->Execute(ScatteringQuery(),
                                        MethodKind::kFullTop);
    ASSERT_TRUE(result.ok()) << i;
    EXPECT_FALSE(result->partial) << i;
    EXPECT_EQ(result->entries, expected->entries) << i;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  auto snap = rig.transport->replica_metrics().Snapshot();
  uint64_t failovers = 0;
  uint64_t ejections = 0;
  uint64_t exhausted = 0;
  uint64_t surviving_attempts = 0;
  for (const auto& shard : snap.shards) {
    failovers += shard.failovers;
    exhausted += shard.exhausted;
    ejections += shard.replicas[0].ejections;
    surviving_attempts += shard.replicas[1].attempts;
  }
  EXPECT_GT(failovers, 0u);
  EXPECT_GT(ejections, 0u);
  EXPECT_GT(surviving_attempts, 0u);
  EXPECT_EQ(exhausted, 0u);
}

TEST_F(ReplicaFig3Test, DeadReplicaIsProbedBackInByLiveTraffic) {
  replica::ReplicaSetConfig config;
  config.health.failures_to_eject = 2;
  config.health.probe_interval_seconds = 0.002;
  ReplicaRig rig = MakeRig(2, 2, "rp", config);

  // Eject replica 0 everywhere under traffic (paced so probe intervals
  // elapse and the suspect replica keeps getting probed toward ejection).
  for (auto& shard : rig.raw) shard[0]->SetDown(true);
  for (int i = 0; i < 20; ++i) {
    auto result = rig.executor->Execute(ScatteringQuery(),
                                        MethodKind::kFullTop);
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result->partial);
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  // Some shard actually carried transport traffic and ejected its r0.
  size_t victim = SIZE_MAX;
  for (size_t s = 0; s < 2; ++s) {
    if (rig.transport->health().state(s, 0) ==
        replica::ReplicaHealth::kEjected) {
      victim = s;
    }
  }
  ASSERT_NE(victim, SIZE_MAX) << "no shard ejected its dead replica";

  // Revive it. Live traffic carries the probes: within the probe
  // interval the tracker reinstates the replica — no oob machinery.
  for (auto& shard : rig.raw) shard[0]->SetDown(false);
  bool reinstated = false;
  for (int i = 0; i < 200 && !reinstated; ++i) {
    auto result = rig.executor->Execute(ScatteringQuery(),
                                        MethodKind::kFullTop);
    ASSERT_TRUE(result.ok());
    reinstated = rig.transport->health().state(victim, 0) ==
                 replica::ReplicaHealth::kHealthy;
    if (!reinstated) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_TRUE(reinstated) << "ejected replica never probed back in";
  auto snap = rig.transport->replica_metrics().Snapshot();
  uint64_t probes = 0;
  uint64_t reinstatements = 0;
  for (const auto& shard : snap.shards) {
    for (const auto& rep : shard.replicas) {
      probes += rep.probes;
      reinstatements += rep.reinstatements;
    }
  }
  EXPECT_GT(probes, 0u);
  EXPECT_GT(reinstatements, 0u);
}

TEST_F(ReplicaFig3Test, AllReplicasDeadDegradesToPartialNotFailure) {
  ReplicaRig rig = MakeRig(4, 2, "ra");
  // The whole replica set of every shard down: now (and only now) the
  // executor's partial degradation kicks in, exactly as with R=1.
  for (auto& shard : rig.raw) {
    for (auto* channel : shard) channel->SetDown(true);
  }
  auto result =
      rig.executor->Execute(ScatteringQuery(), MethodKind::kFullTop);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->partial);
  EXPECT_NE(result->stats.plan.find("PARTIAL"), std::string::npos);

  auto snap = rig.transport->replica_metrics().Snapshot();
  uint64_t exhausted = 0;
  for (const auto& shard : snap.shards) exhausted += shard.exhausted;
  EXPECT_GT(exhausted, 0u);
}

TEST_F(ReplicaFig3Test, HedgedReadsCutTheTailOfASlowReplica) {
  auto expected = engine_->Execute(ScatteringQuery(), MethodKind::kFullTop);
  ASSERT_TRUE(expected.ok());

  // Replica 0 of every shard stalls 300ms; the hedge fires at ~30ms and
  // replica 1 answers. The loser completes late and is discarded.
  replica::ReplicaSetConfig hedged;
  hedged.hedge_delay_default_seconds = 0.03;
  {
    ReplicaRig rig = MakeRig(2, 2, "rhon", hedged);
    for (auto& shard : rig.raw) shard[0]->SetDelay(0.3);
    const auto start = std::chrono::steady_clock::now();
    auto result =
        rig.executor->Execute(ScatteringQuery(), MethodKind::kFullTop);
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result->partial);
    EXPECT_EQ(result->entries, expected->entries);
    auto snap = rig.transport->replica_metrics().Snapshot();
    uint64_t launched = 0;
    uint64_t wins = 0;
    uint64_t attempts = 0;
    for (const auto& shard : snap.shards) {
      launched += shard.hedges_launched;
      for (const auto& rep : shard.replicas) {
        wins += rep.hedge_wins;
        attempts += rep.attempts;
      }
    }
    ASSERT_GT(attempts, 0u) << "query never crossed the transport";
    EXPECT_GT(launched, 0u);
    EXPECT_GT(wins, 0u);
    EXPECT_LT(elapsed, 0.25) << "hedge did not rescue the query";
  }

  // Hedging off, same stall: the scatter waits out the full 300ms.
  replica::ReplicaSetConfig unhedged;
  unhedged.hedge_enabled = false;
  {
    ReplicaRig rig = MakeRig(2, 2, "rhoff", unhedged);
    for (auto& shard : rig.raw) shard[0]->SetDelay(0.3);
    const auto start = std::chrono::steady_clock::now();
    auto result =
        rig.executor->Execute(ScatteringQuery(), MethodKind::kFullTop);
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result->partial);
    EXPECT_GE(elapsed, 0.25);
    auto snap = rig.transport->replica_metrics().Snapshot();
    for (const auto& shard : snap.shards) {
      EXPECT_EQ(shard.hedges_launched, 0u);
    }
  }
}

TEST_F(ReplicaFig3Test, ReplicaSetDeadlineBindsWhenEveryReplicaStalls) {
  replica::ReplicaSetConfig config;
  config.request_timeout_seconds = 0.05;
  config.hedge_delay_default_seconds = 0.01;
  ReplicaRig rig = MakeRig(2, 2, "rd", config);
  for (auto& shard : rig.raw) {
    for (auto* channel : shard) channel->SetDelay(1.0);
  }
  const auto start = std::chrono::steady_clock::now();
  auto result =
      rig.executor->Execute(ScatteringQuery(), MethodKind::kFullTop);
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->partial);
  EXPECT_LT(elapsed, 0.8) << "deadline did not bind";
}

TEST_F(ReplicaFig3Test, QuarantinedReplicaStillServesAsLastResort) {
  // Hand-built channels so the two replicas can disagree on epoch: r0
  // serves epoch 1, r1 lags at epoch 0 (a daemon mid-rebuild).
  auto executor = MakeSharded(2, "rq");
  const shard::ShardedTopologyStore* store = &executor->store();
  std::vector<std::shared_ptr<std::atomic<uint64_t>>> epochs;
  std::vector<std::vector<shard::LoopbackReplicaChannel*>> raw(2);
  std::vector<std::vector<std::unique_ptr<replica::ReplicaChannel>>>
      channels(2);
  for (size_t s = 0; s < 2; ++s) {
    for (size_t r = 0; r < 2; ++r) {
      auto epoch = std::make_shared<std::atomic<uint64_t>>(r == 0 ? 1 : 0);
      epochs.push_back(epoch);
      shard::ShardFrameHandler handler(
          &db_, &executor->shard_engine(s),
          [store, s]() { return store->Snapshot(s); },
          [epoch, r]() {
            return wire::MakeServingStamp(r, epoch->load());
          });
      auto channel = std::make_unique<shard::LoopbackReplicaChannel>(
          std::move(handler),
          "s" + std::to_string(s) + "r" + std::to_string(r));
      raw[s].push_back(channel.get());
      channels[s].push_back(std::move(channel));
    }
  }
  replica::ReplicaSetTransport transport(std::move(channels));
  executor->set_transport(&transport);
  auto expected = engine_->Execute(ScatteringQuery(), MethodKind::kFullTop);
  ASSERT_TRUE(expected.ok());

  // Warm: r0 serves everywhere, the mark moves to epoch 1.
  for (int i = 0; i < 3; ++i) {
    auto result =
        executor->Execute(ScatteringQuery(), MethodKind::kFullTop);
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result->partial);
  }

  // Kill r0: the only sibling lags an epoch. It must still serve —
  // quarantine orders it last, it never makes a shard unreachable.
  for (auto& shard : raw) shard[0]->SetDown(true);
  size_t quarantined_shard = SIZE_MAX;
  for (int i = 0; i < 10; ++i) {
    auto result =
        executor->Execute(ScatteringQuery(), MethodKind::kFullTop);
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result->partial) << "quarantined replica was not routed";
    EXPECT_EQ(result->entries, expected->entries);
    for (size_t s = 0; s < 2; ++s) {
      if (transport.health().state(s, 1) ==
          replica::ReplicaHealth::kQuarantined) {
        quarantined_shard = s;
      }
    }
  }
  ASSERT_NE(quarantined_shard, SIZE_MAX)
      << "stale sibling never entered quarantine";

  // The laggard finishes its rebuild (stamps epoch 1): self-heals.
  for (auto& epoch : epochs) epoch->store(1);
  bool healed = false;
  for (int i = 0; i < 20 && !healed; ++i) {
    auto result =
        executor->Execute(ScatteringQuery(), MethodKind::kFullTop);
    ASSERT_TRUE(result.ok());
    healed = transport.health().state(quarantined_shard, 1) ==
             replica::ReplicaHealth::kHealthy;
  }
  EXPECT_TRUE(healed);
  executor->set_transport(nullptr);
}

// ---------------------------------------------------------------------------
// Failover × live rebuild (the satellite): kill a replica during the
// epoch roll — zero failures, zero partials, byte-identical afterwards.
// ---------------------------------------------------------------------------

TEST_F(ReplicaFig3Test, RebuildRollsEpochsUnderReplicaFailover) {
  replica::ReplicaSetConfig config;
  config.health.failures_to_eject = 2;
  config.health.probe_interval_seconds = 0.02;
  ReplicaRig rig = MakeRig(4, 2, "rr", config);

  service::ServiceConfig svc_config;
  svc_config.num_threads = 4;
  service::TopologyService svc(rig.executor.get(), &db_, svc_config);

  engine::TopologyQuery q = ScatteringQuery();
  auto expected = engine_->Execute(q, MethodKind::kFullTop);
  ASSERT_TRUE(expected.ok());

  std::atomic<bool> stop{false};
  std::atomic<size_t> failures{0};
  std::atomic<size_t> partials{0};
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> served{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&]() {
      while (!stop.load(std::memory_order_acquire)) {
        auto response = Serve(svc, q, MethodKind::kFullTop);
        if (!response.error.ok()) {
          ++failures;
        } else {
          if (response.result.partial) ++partials;
          if (response.result.entries != expected->entries) ++mismatches;
        }
        ++served;
      }
    });
  }

  // Kill one replica, then roll every shard's epoch behind the flood —
  // the rebuild's per-shard swaps and the replica failover must compose:
  // nothing fails, nothing degrades, stamps follow the new epochs.
  rig.raw[1][0]->SetDown(true);
  service::RebuildOptions rebuild;
  rebuild.build.max_path_length = 3;
  rebuild.prune_threshold = 0;
  const std::string stamp_before = rig.executor->store().EpochStamp();
  for (int round = 0; round < 2; ++round) {
    auto stats = svc.Rebuild(rebuild);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->shards_swapped, 4u);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(partials.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(served.load(), 0u);
  EXPECT_NE(rig.executor->store().EpochStamp(), stamp_before);

  // Post-roll, post-revive: byte-identical and eventually fully healthy.
  rig.raw[1][0]->SetDown(false);
  svc.InvalidateCache();
  auto after = Serve(svc, q, MethodKind::kFullTop);
  ASSERT_TRUE(after.error.ok());
  EXPECT_FALSE(after.result.partial);
  EXPECT_EQ(after.result.entries, expected->entries);
  // The tracker's epoch high-water mark followed the swaps.
  uint64_t mark = 0;
  for (size_t s = 0; s < 4; ++s) {
    mark = std::max(mark, rig.transport->health().shard_epoch(s));
  }
  EXPECT_GE(mark, 2u);
  svc.Shutdown();
}

// ---------------------------------------------------------------------------
// Socket-backed replica grid: kill -9 a server process's stand-in
// ---------------------------------------------------------------------------

TEST_F(ReplicaFig3Test, SocketReplicaGridSurvivesServerStopAndRestart) {
  auto executor = MakeSharded(2, "rs");
  const shard::ShardedTopologyStore* store = &executor->store();

  // 2 shards × 2 replicas: four servers, each with its own serving stamp
  // (same epoch source — identical replicas of the same shard).
  std::vector<std::unique_ptr<shard::ShardFrameHandler>> handlers;
  std::vector<std::unique_ptr<net::ShardServer>> servers;
  std::vector<net::ShardServerConfig> configs;
  std::vector<std::vector<net::ShardEndpoint>> endpoints(2);
  for (size_t s = 0; s < 2; ++s) {
    for (size_t r = 0; r < 2; ++r) {
      auto handle = store->handle(s);
      handlers.push_back(std::make_unique<shard::ShardFrameHandler>(
          &db_, &executor->shard_engine(s),
          [store, s]() { return store->Snapshot(s); },
          [handle, r]() {
            return wire::MakeServingStamp(r, handle->epoch());
          }));
      net::ShardServerConfig server_config;
      server_config.uds_path = UdsPath("grid", s * 2 + r);
      configs.push_back(server_config);
      servers.push_back(std::make_unique<net::ShardServer>(
          handlers.back().get(), server_config));
      ASSERT_TRUE(servers.back()->Start().ok());
      endpoints[s].push_back(
          net::ShardEndpoint::Unix(server_config.uds_path));
    }
  }
  net::EndpointClientConfig client_config;
  client_config.backoff_initial_seconds = 0.002;
  client_config.backoff_max_seconds = 0.02;
  replica::ReplicaSetConfig config;
  config.health.failures_to_eject = 2;
  config.health.probe_interval_seconds = 0.01;
  replica::ReplicaSetTransport transport(
      replica::MakeSocketReplicaGrid(endpoints, client_config), config,
      executor->transport_metrics());
  executor->set_transport(&transport);
  auto expected = engine_->Execute(ScatteringQuery(), MethodKind::kFullTop);
  ASSERT_TRUE(expected.ok());

  auto warm = executor->Execute(ScatteringQuery(), MethodKind::kFullTop);
  ASSERT_TRUE(warm.ok());
  EXPECT_FALSE(warm->partial);
  EXPECT_EQ(warm->entries, expected->entries);

  // Stop replica 0 of every shard: the answer must stay full and
  // byte-identical through failover, query after query.
  servers[0]->Stop();
  servers[2]->Stop();
  for (int i = 0; i < 20; ++i) {
    auto result =
        executor->Execute(ScatteringQuery(), MethodKind::kFullTop);
    ASSERT_TRUE(result.ok()) << i;
    EXPECT_FALSE(result->partial) << i;
    EXPECT_EQ(result->entries, expected->entries) << i;
  }

  // Restart both on their original endpoints; live traffic probes them
  // back to healthy.
  servers[0] = std::make_unique<net::ShardServer>(handlers[0].get(),
                                                  configs[0]);
  servers[2] = std::make_unique<net::ShardServer>(handlers[2].get(),
                                                  configs[2]);
  ASSERT_TRUE(servers[0]->Start().ok());
  ASSERT_TRUE(servers[2]->Start().ok());
  bool healed = false;
  for (int i = 0; i < 300 && !healed; ++i) {
    auto result =
        executor->Execute(ScatteringQuery(), MethodKind::kFullTop);
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result->partial);
    healed = true;
    for (size_t s = 0; s < 2; ++s) {
      if (transport.health().state(s, 0) !=
          replica::ReplicaHealth::kHealthy) {
        healed = false;
      }
    }
    if (!healed) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(healed) << "stopped servers never reinstated";

  executor->set_transport(nullptr);
  for (auto& server : servers) server->Stop();
}

}  // namespace
}  // namespace tsb
