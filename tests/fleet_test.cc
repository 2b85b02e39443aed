// Fleet-wide cost accounting over a live grid (the PR's acceptance
// surface): four in-process net::ShardServer "processes" over UDS, each
// with its own ServiceMetrics / SlowQueryLog / admin channel, driven with
// real query frames and scraped with real kAdminRequest cost-snapshot
// frames — the exact decode+merge path `topctl top` runs. Asserts that
// the wire-scraped histograms carry exact bucket counts (requests in ==
// bucket counts out), that merging the per-process snapshots is
// independent of polling order down to the canonical encoding bytes, and
// that the merged per-method quantiles equal the quantiles of the union
// histogram (merging per-process buckets IS recording the union stream —
// the elementwise-sum property LatencyHistogramTest proves in isolation,
// exercised here end to end through servers, codecs, and sockets).

#include <gtest/gtest.h>

#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "biozon/domain.h"
#include "biozon/fig3.h"
#include "core/builder.h"
#include "core/pruner.h"
#include "engine/engine.h"
#include "net/endpoint_client.h"
#include "net/shard_server.h"
#include "obs/admin.h"
#include "obs/cost.h"
#include "obs/fleet.h"
#include "obs/slow_log.h"
#include "service/metrics.h"
#include "shard/frame_handler.h"
#include "wire/codec.h"
#include "wire/message.h"

namespace tsb {
namespace {

using engine::MethodKind;

std::string UdsPath(size_t i) {
  return "/tmp/tsb_fleet_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(i) + ".sock";
}

/// One "process" of the grid: its own metrics, slow log, admin surface,
/// frame handler, and socket server — sharing only the catalog, store,
/// and engine, exactly as replica processes share a base image on disk.
struct GridProcess {
  service::ServiceMetrics metrics;
  obs::SlowQueryLog slow_log{obs::SlowQueryConfig{1e-9, 16}};
  obs::AdminState admin;
  std::unique_ptr<shard::ShardFrameHandler> handler;
  std::unique_ptr<net::ShardServer> server;
  net::ShardEndpoint endpoint;
  uint64_t requests_driven = 0;
  uint64_t request_bytes_driven = 0;
};

class FleetGridTest : public ::testing::Test {
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

  /// Starts one grid process on its own UDS endpoint, wired the way
  /// tools/shard_server_main.cc wires a real daemon: metrics + slow log
  /// observability, and an admin cost_snapshot built from them.
  void StartProcess(GridProcess* p, size_t index) {
    p->admin.slow_log = &p->slow_log;
    p->admin.cost_snapshot = [p]() {
      return service::FleetSnapshotOf(p->metrics.Read(), &p->slow_log);
    };
    p->handler = std::make_unique<shard::ShardFrameHandler>(
        &db_, engine_.get(),
        [this]() {
          return std::shared_ptr<core::TopologyStore>(
              &store_, [](core::TopologyStore*) {});
        });
    shard::ShardObservability observability;
    observability.metrics = &p->metrics;
    observability.slow_log = &p->slow_log;
    observability.admin = &p->admin;
    p->handler->set_observability(observability);
    net::ShardServerConfig config;
    config.uds_path = UdsPath(index);
    p->server =
        std::make_unique<net::ShardServer>(p->handler.get(), config);
    ASSERT_TRUE(p->server->Start().ok());
    p->endpoint = net::ShardEndpoint::Unix(config.uds_path);
  }

  /// One live query round-trip against an endpoint; returns the encoded
  /// request frame size (what the shard bills as deserialized wire bytes).
  void DriveQuery(GridProcess* p, MethodKind method, uint32_t k) {
    wire::WireRequest request;
    request.id = ++next_request_id_;
    request.query.entity_set1 = "Protein";
    request.query.entity_set2 = "DNA";
    request.query.k = k;
    request.query.scheme = core::RankScheme::kFreq;
    request.method = method;
    request.options.skip_pruned_checks = true;
    std::string frame;
    wire::EncodeQueryRequest(request, &frame);

    net::EndpointClient client(p->endpoint);
    Result<std::string> response =
        client.RoundTrip(frame, net::DeadlineAfter(10.0));
    ASSERT_TRUE(response.ok()) << response.status();
    auto decoded = wire::DecodeQueryResponse(*response);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    ASSERT_TRUE(decoded->error.ok()) << decoded->error.message;
    p->requests_driven++;
    p->request_bytes_driven += frame.size();
  }

  /// The topctl scrape: one kAdminRequest(cost-snapshot) round trip,
  /// decoded into a FleetSnapshot.
  obs::FleetSnapshot Scrape(const GridProcess& p) {
    wire::AdminRequest request;
    request.command = wire::AdminCommand::kCostSnapshot;
    std::string frame;
    wire::EncodeAdminRequest(request, &frame);
    net::EndpointClient client(p.endpoint);
    Result<std::string> raw =
        client.RoundTrip(frame, net::DeadlineAfter(10.0));
    EXPECT_TRUE(raw.ok()) << raw.status();
    auto response = wire::DecodeAdminResponse(*raw);
    EXPECT_TRUE(response.ok());
    EXPECT_TRUE(response->error.ok()) << response->error.message;
    auto snapshot = obs::DecodeFleetSnapshot(response->body);
    EXPECT_TRUE(snapshot.ok()) << snapshot.status();
    return *snapshot;
  }

  storage::Catalog db_;
  biozon::BiozonSchema ids_;
  std::unique_ptr<graph::DataGraphView> view_;
  std::unique_ptr<graph::SchemaGraph> schema_;
  core::TopologyStore store_;
  std::unique_ptr<engine::Engine> engine_;
  uint64_t next_request_id_ = 0;
};

TEST_F(FleetGridTest, MergedScrapeOfALiveGridIsExactAndOrderIndependent) {
  constexpr size_t kGrid = 4;  // 2 shards × 2 replicas' worth of processes.
  std::vector<std::unique_ptr<GridProcess>> grid;
  for (size_t i = 0; i < kGrid; ++i) {
    grid.push_back(std::make_unique<GridProcess>());
    StartProcess(grid[i].get(), i);
  }

  // Uneven, deterministic traffic: process i serves i+1 full-top and
  // 2*(i+1) fast-topk queries — 30 requests total across the grid.
  for (size_t i = 0; i < kGrid; ++i) {
    for (size_t r = 0; r < i + 1; ++r) {
      DriveQuery(grid[i].get(), MethodKind::kFullTop, 5);
    }
    for (size_t r = 0; r < 2 * (i + 1); ++r) {
      DriveQuery(grid[i].get(), MethodKind::kFastTopK, 3);
    }
  }

  // Scrape every process over the wire. Each per-process snapshot must
  // account for exactly the traffic that process served: the histograms
  // are exact counters, not samples.
  std::vector<obs::FleetSnapshot> scrapes;
  uint64_t total_driven = 0;
  for (size_t i = 0; i < kGrid; ++i) {
    obs::FleetSnapshot snap = Scrape(*grid[i]);
    EXPECT_EQ(snap.processes, 1u) << i;
    EXPECT_EQ(snap.total_requests, grid[i]->requests_driven) << i;
    uint64_t hist_total = 0;
    for (const obs::FleetMethodStats& m : snap.methods) {
      EXPECT_EQ(m.latency.count(), m.requests) << i << " " << m.method;
      hist_total += m.latency.count();
      // Every executed query carried a real bill: CPU was measured and
      // the request frame itself was charged as deserialized bytes.
      EXPECT_GT(m.cost.cpu_ns, 0u) << i << " " << m.method;
    }
    EXPECT_EQ(hist_total, grid[i]->requests_driven) << i;
    uint64_t deserialized = 0;
    for (const obs::FleetMethodStats& m : snap.methods) {
      deserialized += m.cost.bytes_deserialized;
    }
    EXPECT_GE(deserialized, grid[i]->request_bytes_driven) << i;
    // The slow-log threshold is ~0, so the scrape carries top-cost rows.
    EXPECT_FALSE(snap.top_queries.empty()) << i;
    total_driven += grid[i]->requests_driven;
    scrapes.push_back(std::move(snap));
  }
  EXPECT_EQ(total_driven, 30u);

  // The union view: per-method histograms merged across the whole grid in
  // index order. Merging buckets is exactly recording the union stream,
  // so these are the single-scrape histograms a lone process serving all
  // 30 requests would have produced.
  obs::LatencyHistogram union_full, union_fast;
  uint64_t union_full_requests = 0;
  for (const obs::FleetSnapshot& snap : scrapes) {
    for (const obs::FleetMethodStats& m : snap.methods) {
      if (m.method == "Full-Top") {
        union_full.Merge(m.latency);
        union_full_requests += m.requests;
      } else if (m.method == "Fast-Top-k") {
        union_fast.Merge(m.latency);
      }
    }
  }
  EXPECT_EQ(union_full_requests, 1u + 2u + 3u + 4u);
  EXPECT_EQ(union_full.count(), union_full_requests);
  EXPECT_EQ(union_fast.count(), 2u * (1u + 2u + 3u + 4u));

  // Merge the snapshots the way topctl does, in three different polling
  // orders. Everything integer — bucket counts, request totals, cost
  // bills — must be identical whatever the order (only the f64 latency
  // sums may differ in the last bit, floating addition not being
  // associative), so the merged per-method histograms equal the union
  // histograms bucket for bucket, the percentiles match exactly, and the
  // rendered dashboard comes out character-identical.
  const std::vector<std::vector<size_t>> orders = {
      {0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}};
  std::string first_rendering;
  for (const std::vector<size_t>& order : orders) {
    obs::FleetSnapshot merged = scrapes[order[0]];
    for (size_t i = 1; i < order.size(); ++i) {
      merged.Merge(scrapes[order[i]]);
    }
    EXPECT_EQ(merged.processes, kGrid);
    EXPECT_EQ(merged.total_requests, total_driven);

    if (first_rendering.empty()) {
      first_rendering = merged.Render();
    } else {
      EXPECT_EQ(merged.Render(), first_rendering);
    }

    for (const obs::FleetMethodStats& m : merged.methods) {
      const obs::LatencyHistogram& union_hist =
          m.method == "Full-Top" ? union_full : union_fast;
      EXPECT_TRUE(m.latency == union_hist) << m.method;
      for (const double q : {0.5, 0.95, 0.99, 1.0}) {
        EXPECT_EQ(m.latency.Quantile(q), union_hist.Quantile(q))
            << m.method << " q=" << q;
      }
    }

    // The dashboard renders the merged truth.
    const std::string text = merged.Render();
    EXPECT_NE(text.find("fleet cost snapshot (4 processes)"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("Full-Top"), std::string::npos);
    EXPECT_NE(text.find("Fast-Top-k"), std::string::npos);
    EXPECT_NE(text.find("top-cost queries"), std::string::npos) << text;
  }

  for (auto& p : grid) p->server->Stop();
}

TEST_F(FleetGridTest, ShardServersCountScanWork) {
  // A shard server records an executed frame's scan counters with its
  // cost, so the dashboard's scan line reflects the rows it read.
  auto p = std::make_unique<GridProcess>();
  StartProcess(p.get(), 8);
  DriveQuery(p.get(), MethodKind::kFullTopK, 5);
  const obs::FleetSnapshot snap = Scrape(*p);
  EXPECT_EQ(snap.total_requests, 1u);
  EXPECT_GT(snap.scan_rows, 0u);
  EXPECT_NE(snap.Render().find("scan: rows " + std::to_string(snap.scan_rows)),
            std::string::npos)
      << snap.Render();
}

TEST_F(FleetGridTest, CostAccountingToggleKeepsServedBytesIdentical) {
  // The byte-identity oracle at the wire level: the same query frame
  // served with accounting on and off must differ only in the bill it
  // carries — decoded entries are equal element for element.
  auto p = std::make_unique<GridProcess>();
  StartProcess(p.get(), 9);

  wire::WireRequest request;
  request.id = 1;
  request.query.entity_set1 = "Protein";
  request.query.entity_set2 = "DNA";
  request.query.k = 10;
  request.query.scheme = core::RankScheme::kFreq;
  request.options.skip_pruned_checks = true;

  const std::vector<MethodKind> methods = {
      MethodKind::kSql,         MethodKind::kFullTop,
      MethodKind::kFastTop,     MethodKind::kFullTopK,
      MethodKind::kFastTopK,    MethodKind::kFullTopKEt,
      MethodKind::kFastTopKEt,  MethodKind::kFullTopKOpt,
      MethodKind::kFastTopKOpt,
  };
  net::EndpointClient client(p->endpoint);
  for (MethodKind method : methods) {
    request.method = method;
    std::string frame;
    wire::EncodeQueryRequest(request, &frame);

    ASSERT_TRUE(obs::CostTracker::enabled());
    Result<std::string> on = client.RoundTrip(frame, net::DeadlineAfter(10.0));
    obs::CostTracker::set_enabled(false);
    Result<std::string> off =
        client.RoundTrip(frame, net::DeadlineAfter(10.0));
    obs::CostTracker::set_enabled(true);

    ASSERT_TRUE(on.ok()) << engine::MethodKindToString(method);
    ASSERT_TRUE(off.ok()) << engine::MethodKindToString(method);
    auto on_decoded = wire::DecodeQueryResponse(*on);
    auto off_decoded = wire::DecodeQueryResponse(*off);
    ASSERT_TRUE(on_decoded.ok() && off_decoded.ok());
    ASSERT_EQ(on_decoded->error.ok(), off_decoded->error.ok())
        << engine::MethodKindToString(method);
    if (!on_decoded->error.ok()) continue;
    EXPECT_EQ(on_decoded->result.entries, off_decoded->result.entries)
        << engine::MethodKindToString(method);
    // Accounting off means a zero bill — the counters must never invent
    // work that was not measured.
    EXPECT_EQ(off_decoded->result.stats.cpu_ns, 0u);
    EXPECT_EQ(off_decoded->result.stats.bytes_deserialized, 0u);
    EXPECT_GT(on_decoded->result.stats.cpu_ns, 0u)
        << engine::MethodKindToString(method);
  }

  p->server->Stop();
}

}  // namespace
}  // namespace tsb
