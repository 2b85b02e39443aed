// The streaming, priority-aware service surface (PR 4's API redesign):
// Submit(WireRequest, StreamSink&) / SubmitStream frame delivery —
// completion order, correct request ids, exactly-once kStreamEnd, sinks
// outliving shutdown, mid-batch cancellation — plus per-class admission:
// interactive work drains before batch work, expired-deadline requests are
// shed with the distinct kDeadlineExceeded wire code, and the class
// metrics record it all.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
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
#include "service/service.h"
#include "service_test_util.h"
#include "wire/message.h"

namespace tsb {
namespace {

using engine::MethodKind;
using service_test::Serve;
using wire::FrameKind;
using wire::WireErrorCode;

class StreamFig3Test : public ::testing::Test {
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
    ASSERT_TRUE(
        builder.BuildPair(ids_.protein, ids_.unigene, config, &store_).ok());
    core::PruneConfig prune;
    prune.frequency_threshold = 0;
    ASSERT_TRUE(core::PruneFrequentTopologies(&db_, &store_, ids_.protein,
                                              ids_.dna, prune)
                    .ok());
    engine_ = std::make_unique<engine::Engine>(
        &db_, &store_, schema_.get(), view_.get(),
        core::ScoreModel(&store_.catalog(),
                         biozon::MakeBiozonDomainKnowledge(ids_)));
  }

  wire::WireRequest Request(uint64_t id, core::RankScheme scheme,
                            MethodKind method = MethodKind::kFullTop,
                            wire::Priority priority =
                                wire::Priority::kInteractive) const {
    wire::WireRequest request;
    request.id = id;
    request.priority = priority;
    request.query.entity_set1 = "Protein";
    request.query.entity_set2 = "DNA";
    request.query.scheme = scheme;
    request.method = method;
    return request;
  }

  service::ServiceConfig Config(size_t threads, bool cache = true) const {
    service::ServiceConfig config;
    config.num_threads = threads;
    config.enable_cache = cache;
    return config;
  }

  storage::Catalog db_;
  biozon::BiozonSchema ids_;
  std::unique_ptr<graph::DataGraphView> view_;
  std::unique_ptr<graph::SchemaGraph> schema_;
  core::TopologyStore store_;
  std::unique_ptr<engine::Engine> engine_;
};

TEST_F(StreamFig3Test, SingleSubmitDeliversExactlyOneTerminalFrame) {
  service::TopologyService svc(engine_.get(), &db_, Config(2));
  wire::CollectingSink sink;
  svc.Submit(Request(99, core::RankScheme::kFreq), sink);
  sink.WaitForFrames(1);

  auto frames = sink.Frames();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].kind, FrameKind::kResponse);
  EXPECT_EQ(frames[0].stream_id, 0u);
  EXPECT_EQ(frames[0].response.request_id, 99u);
  ASSERT_TRUE(frames[0].response.error.ok())
      << frames[0].response.error.message;
  EXPECT_FALSE(frames[0].response.result.entries.empty());

  auto direct = engine_->Execute(Request(0, core::RankScheme::kFreq).query,
                                 MethodKind::kFullTop);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(frames[0].response.result.entries, direct->entries);
}

TEST_F(StreamFig3Test, StreamDeliversAllFramesThenExactlyOneEnd) {
  service::TopologyService svc(engine_.get(), &db_, Config(4));
  wire::CollectingSink sink;

  std::vector<wire::WireRequest> requests;
  const std::vector<core::RankScheme> schemes = {core::RankScheme::kFreq,
                                                 core::RankScheme::kRare,
                                                 core::RankScheme::kDomain};
  for (size_t i = 0; i < 9; ++i) {
    requests.push_back(Request(100 + i, schemes[i % 3],
                               i % 2 == 0 ? MethodKind::kFullTop
                                          : MethodKind::kFullTopK));
  }
  uint64_t stream_id = svc.SubmitStream(std::move(requests), sink);
  EXPECT_NE(stream_id, 0u);
  sink.WaitForEnd();

  auto frames = sink.Frames();
  ASSERT_EQ(frames.size(), 10u);  // 9 responses + 1 end.
  std::set<uint64_t> seen_ids;
  for (size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(frames[i].kind, FrameKind::kResponse);
    EXPECT_EQ(frames[i].stream_id, stream_id);
    ASSERT_TRUE(frames[i].response.error.ok());
    seen_ids.insert(frames[i].response.request_id);
  }
  // Completion order may differ from submission order, but every request
  // id arrives exactly once.
  EXPECT_EQ(seen_ids.size(), 9u);
  EXPECT_EQ(*seen_ids.begin(), 100u);
  EXPECT_EQ(*seen_ids.rbegin(), 108u);
  // The end frame is last and unique.
  EXPECT_EQ(frames[9].kind, FrameKind::kStreamEnd);
  EXPECT_EQ(frames[9].stream_id, stream_id);
  EXPECT_EQ(sink.EndCount(), 1u);
}

TEST_F(StreamFig3Test, EmptyStreamDeliversJustTheEndFrame) {
  service::TopologyService svc(engine_.get(), &db_, Config(2));
  wire::CollectingSink sink;
  uint64_t stream_id = svc.SubmitStream({}, sink);
  auto frames = sink.Frames();  // Delivered inline, no wait needed.
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].kind, FrameKind::kStreamEnd);
  EXPECT_EQ(frames[0].stream_id, stream_id);
}

TEST_F(StreamFig3Test, SinkOutlivesShutdownAndGetsEveryFrame) {
  auto sink = std::make_unique<wire::CollectingSink>();
  {
    service::TopologyService svc(engine_.get(), &db_, Config(1, false));
    std::vector<wire::WireRequest> requests;
    for (size_t i = 0; i < 6; ++i) {
      requests.push_back(Request(i, core::RankScheme::kFreq));
    }
    svc.SubmitStream(std::move(requests), *sink);
    svc.Shutdown();  // Drains the queue; every frame must be delivered.
  }
  // The service is gone; the sink holds the complete stream.
  auto frames = sink->Frames();
  ASSERT_EQ(frames.size(), 7u);
  EXPECT_EQ(sink->EndCount(), 1u);
  EXPECT_EQ(frames.back().kind, FrameKind::kStreamEnd);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(frames[i].response.error.ok());
  }
}

TEST_F(StreamFig3Test, SubmitAfterShutdownDeliversShuttingDownFrame) {
  service::TopologyService svc(engine_.get(), &db_, Config(1));
  svc.Shutdown();
  wire::CollectingSink sink;
  svc.Submit(Request(5, core::RankScheme::kFreq), sink);
  auto frames = sink.Frames();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].response.error.code, WireErrorCode::kShuttingDown);

  // Streams still end exactly once even when every slot is bounced.
  wire::CollectingSink stream_sink;
  svc.SubmitStream({Request(1, core::RankScheme::kFreq),
                    Request(2, core::RankScheme::kRare)},
                   stream_sink);
  auto stream_frames = stream_sink.Frames();
  ASSERT_EQ(stream_frames.size(), 3u);
  EXPECT_EQ(stream_frames[2].kind, FrameKind::kStreamEnd);
  EXPECT_EQ(stream_sink.EndCount(), 1u);
}

/// Pins the delivering worker inside OnFrame until released — the
/// deterministic way to keep later submissions queued.
class BlockingSink : public wire::StreamSink {
 public:
  void OnFrame(const wire::WireFrame&) override {
    entered_.store(true, std::memory_order_release);
    gate_.get_future().wait();
  }
  /// Spins until the worker is parked inside OnFrame.
  void AwaitEntered() const {
    while (!entered_.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
  void Release() { gate_.set_value(); }

 private:
  std::promise<void> gate_;
  std::atomic<bool> entered_{false};
};

TEST_F(StreamFig3Test, CancellationShedsQueuedRequestsAndEndsOnce) {
  // One worker, pinned inside the first request's frame delivery, so the
  // whole stream is still queued when we cancel.
  service::TopologyService svc(engine_.get(), &db_, Config(1, false));
  BlockingSink blocker;
  svc.Submit(Request(0, core::RankScheme::kFreq), blocker);
  blocker.AwaitEntered();

  wire::CollectingSink sink;
  std::vector<wire::WireRequest> requests;
  for (size_t i = 1; i <= 5; ++i) {
    requests.push_back(Request(i, core::RankScheme::kRare));
  }
  uint64_t stream_id = svc.SubmitStream(std::move(requests), sink);
  EXPECT_TRUE(svc.CancelStream(stream_id));
  blocker.Release();
  sink.WaitForEnd();

  auto frames = sink.Frames();
  ASSERT_EQ(frames.size(), 6u);
  EXPECT_EQ(sink.EndCount(), 1u);
  // Every request was still queued at cancel time: all shed, none ran.
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(frames[i].response.error.code, WireErrorCode::kCancelled)
        << i;
  }
  EXPECT_EQ(frames[5].kind, FrameKind::kStreamEnd);
  const obs::MetricsRead metrics = svc.Metrics();
  EXPECT_EQ(metrics.Count("tsb_service_cancelled_total", {"interactive"}), 5u);

  // A finished stream can no longer be cancelled.
  EXPECT_FALSE(svc.CancelStream(stream_id));
}

TEST_F(StreamFig3Test, InteractiveDrainsBeforeQueuedBatchWork) {
  // One worker, pinned. Fill the queue with batch requests, then submit an
  // interactive one: strict-priority dequeue must complete it before every
  // queued batch request, regardless of arrival order.
  service::TopologyService svc(engine_.get(), &db_, Config(1, false));

  BlockingSink blocker;
  svc.Submit(Request(0, core::RankScheme::kFreq), blocker);
  blocker.AwaitEntered();

  std::mutex mu;
  std::vector<std::string> completion_order;
  class OrderSink : public wire::StreamSink {
   public:
    OrderSink(std::mutex* mu, std::vector<std::string>* order,
              std::string label)
        : mu_(mu), order_(order), label_(std::move(label)) {}
    void OnFrame(const wire::WireFrame& frame) override {
      if (frame.kind != FrameKind::kResponse) return;
      std::lock_guard<std::mutex> lock(*mu_);
      order_->push_back(label_ + std::to_string(frame.response.request_id));
    }
   private:
    std::mutex* mu_;
    std::vector<std::string>* order_;
    std::string label_;
  };

  OrderSink batch_sink(&mu, &completion_order, "b");
  wire::CollectingSink done;

  // Batch arrives first and owns the queue...
  std::vector<wire::WireRequest> batch;
  for (size_t i = 0; i < 4; ++i) {
    wire::WireRequest r = Request(i, core::RankScheme::kFreq,
                                  MethodKind::kFullTop,
                                  wire::Priority::kBatch);
    r.query.k = 3 + i;
    batch.push_back(std::move(r));
  }
  svc.SubmitStream(std::move(batch), batch_sink);
  // ... then the interactive request jumps it.
  class RecordingSink : public wire::StreamSink {
   public:
    RecordingSink(std::mutex* mu, std::vector<std::string>* order,
                  wire::CollectingSink* inner)
        : mu_(mu), order_(order), inner_(inner) {}
    void OnFrame(const wire::WireFrame& frame) override {
      {
        std::lock_guard<std::mutex> lock(*mu_);
        order_->push_back("i" + std::to_string(frame.response.request_id));
      }
      inner_->OnFrame(frame);
    }
   private:
    std::mutex* mu_;
    std::vector<std::string>* order_;
    wire::CollectingSink* inner_;
  } interactive_sink(&mu, &completion_order, &done);
  svc.Submit(Request(9, core::RankScheme::kDomain, MethodKind::kFullTop,
                     wire::Priority::kInteractive),
             interactive_sink);

  blocker.Release();
  done.WaitForFrames(1);
  svc.Shutdown();

  // With the worker pinned until both classes were queued, the
  // interactive request must complete strictly first.
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_FALSE(completion_order.empty());
  EXPECT_EQ(completion_order[0], "i9")
      << "interactive request did not jump the batch queue";
  EXPECT_EQ(completion_order.size(), 5u);

  const obs::MetricsRead metrics = svc.Metrics();
  // Blocker + interactive.
  EXPECT_EQ(metrics.Count("tsb_service_admitted_total", {"interactive"}), 2u);
  EXPECT_EQ(metrics.Count("tsb_service_admitted_total", {"batch"}), 4u);
}

TEST_F(StreamFig3Test, BatchConcurrencyCapKeepsAWorkerFreeForInteractive) {
  service::ServiceConfig config = Config(2, false);
  config.max_concurrent_batch = 1;
  service::TopologyService svc(engine_.get(), &db_, config);

  // Pin worker A inside a batch request's frame delivery: batch_executing_
  // stays 1, so a second batch request must wait even though worker B is
  // idle...
  BlockingSink batch_blocker;
  svc.Submit(Request(1, core::RankScheme::kFreq, MethodKind::kFullTop,
                     wire::Priority::kBatch),
             batch_blocker);
  batch_blocker.AwaitEntered();

  wire::CollectingSink capped_sink;
  svc.Submit(Request(2, core::RankScheme::kRare, MethodKind::kFullTop,
                     wire::Priority::kBatch),
             capped_sink);
  // ... while an interactive request sails through on worker B.
  wire::CollectingSink interactive_sink;
  svc.Submit(Request(3, core::RankScheme::kDomain, MethodKind::kFullTop,
                     wire::Priority::kInteractive),
             interactive_sink);
  interactive_sink.WaitForFrames(1);
  EXPECT_TRUE(interactive_sink.Frames()[0].response.error.ok());
  EXPECT_TRUE(capped_sink.Frames().empty()) << "batch ran over the cap";

  // The finishing batch request funds the capped one's execution.
  batch_blocker.Release();
  capped_sink.WaitForFrames(1);
  EXPECT_TRUE(capped_sink.Frames()[0].response.error.ok());
  svc.Shutdown();
}

TEST_F(StreamFig3Test, ShutdownFlushesBatchWorkStrandedAtTheCap) {
  service::ServiceConfig config = Config(2, false);
  config.max_concurrent_batch = 1;
  service::TopologyService svc(engine_.get(), &db_, config);

  // Pin worker A with a batch request, then queue more batch work: its
  // tokens run on worker B and all retire at the cap. Shutdown must still
  // deliver every frame (via its flush loop).
  BlockingSink blocker;
  svc.Submit(Request(0, core::RankScheme::kFreq, MethodKind::kFullTop,
                     wire::Priority::kBatch),
             blocker);
  blocker.AwaitEntered();

  wire::CollectingSink sink;
  std::vector<wire::WireRequest> stranded;
  for (size_t i = 1; i <= 3; ++i) {
    stranded.push_back(Request(i, core::RankScheme::kRare,
                               MethodKind::kFullTop,
                               wire::Priority::kBatch));
  }
  svc.SubmitStream(std::move(stranded), sink);

  std::thread releaser([&blocker]() { blocker.Release(); });
  svc.Shutdown();
  releaser.join();

  sink.WaitForEnd();
  auto frames = sink.Frames();
  ASSERT_EQ(frames.size(), 4u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(frames[i].response.error.ok())
        << frames[i].response.error.message;
  }
  EXPECT_EQ(sink.EndCount(), 1u);
}

TEST_F(StreamFig3Test, ExpiredDeadlinesAreShedWithTheDistinctCode) {
  // One worker blocked by a slow-ish first request; the second request's
  // deadline expires while it waits and it must be shed, not executed.
  service::TopologyService svc(engine_.get(), &db_, Config(1, false));

  wire::CollectingSink first_sink;
  svc.Submit(Request(1, core::RankScheme::kFreq), first_sink);

  wire::CollectingSink shed_sink;
  wire::WireRequest doomed = Request(2, core::RankScheme::kRare,
                                     MethodKind::kFullTop,
                                     wire::Priority::kBatch);
  doomed.deadline_seconds = 1e-9;  // Expires effectively immediately.
  svc.Submit(doomed, shed_sink);

  shed_sink.WaitForFrames(1);
  auto frames = shed_sink.Frames();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].response.error.code, WireErrorCode::kDeadlineExceeded);
  EXPECT_NE(frames[0].response.error.message.find("deadline"),
            std::string::npos);

  const obs::MetricsRead metrics = svc.Metrics();
  EXPECT_EQ(metrics.Count("tsb_service_deadline_shed_total", {"batch"}), 1u);
  // Shed ≠ rejected: admission accepted it, the deadline killed it.
  EXPECT_EQ(metrics.Count("tsb_service_rejected_total", {"batch"}), 0u);
}

TEST_F(StreamFig3Test, PerClassBoundsRejectIndependently) {
  service::ServiceConfig config = Config(1, false);
  config.max_in_flight = 0;        // Interactive always over the bound.
  config.batch_max_in_flight = 64; // Batch wide open.
  service::TopologyService svc(engine_.get(), &db_, config);

  wire::CollectingSink interactive_sink;
  svc.Submit(Request(1, core::RankScheme::kFreq), interactive_sink);
  auto interactive_frames = interactive_sink.Frames();
  ASSERT_EQ(interactive_frames.size(), 1u);
  EXPECT_EQ(interactive_frames[0].response.error.code,
            WireErrorCode::kOverloaded);

  wire::CollectingSink batch_sink;
  svc.Submit(Request(2, core::RankScheme::kFreq, MethodKind::kFullTop,
                     wire::Priority::kBatch),
             batch_sink);
  batch_sink.WaitForFrames(1);
  auto batch_frames = batch_sink.Frames();
  ASSERT_EQ(batch_frames.size(), 1u);
  EXPECT_TRUE(batch_frames[0].response.error.ok())
      << batch_frames[0].response.error.message;

  const obs::MetricsRead metrics = svc.Metrics();
  EXPECT_EQ(metrics.Count("tsb_service_rejected_total", {"interactive"}), 1u);
  EXPECT_EQ(metrics.Count("tsb_service_rejected_total", {"batch"}), 0u);
  EXPECT_EQ(metrics.Sum("tsb_service_rejected_total"), 1u);
}

TEST_F(StreamFig3Test, BatchFloodDoesNotRejectTripleQueries) {
  // Triples are interactive-class citizens: their admission checks the
  // interactive counter, so a large admitted batch backlog (here: pinned
  // worker + queued batch items, all within the batch bound) must not
  // push them over max_in_flight.
  service::ServiceConfig config = Config(2, false);
  config.max_in_flight = 4;  // Small interactive bound.
  config.max_concurrent_batch = 1;
  service::TopologyService svc(engine_.get(), &db_, config);

  BlockingSink blocker;
  svc.Submit(Request(0, core::RankScheme::kFreq, MethodKind::kFullTop,
                     wire::Priority::kBatch),
             blocker);
  blocker.AwaitEntered();
  wire::CollectingSink batch_sink;
  std::vector<wire::WireRequest> backlog;
  for (size_t i = 1; i <= 6; ++i) {  // 7 batch in flight > max_in_flight.
    backlog.push_back(Request(i, core::RankScheme::kRare,
                              MethodKind::kFullTop,
                              wire::Priority::kBatch));
  }
  svc.SubmitStream(std::move(backlog), batch_sink);

  engine::TripleQuery triple;
  triple.entity_set1 = "Protein";
  triple.entity_set2 = "Unigene";
  triple.entity_set3 = "DNA";
  std::future<service::TripleResponse> future = svc.SubmitTriple(triple);
  blocker.Release();
  service::TripleResponse response = future.get();
  // Whatever the engine says about this triple, admission let it through.
  EXPECT_NE(response.result.status().code(),
            StatusCode::kResourceExhausted)
      << response.result.status().ToString();
  batch_sink.WaitForEnd();
  svc.Shutdown();
}

TEST_F(StreamFig3Test, CacheHitsAnswerOnTheCallingThreadWithoutAdmission) {
  service::TopologyService svc(engine_.get(), &db_, Config(2));
  wire::CollectingSink warmup;
  svc.Submit(Request(1, core::RankScheme::kFreq), warmup);
  warmup.WaitForFrames(1);

  // The repeat is answered inline from the cache — no pool hop, no
  // admission charge (the class admitted count stays at the warmup's 1).
  wire::CollectingSink sink;
  wire::WireRequest repeat = Request(2, core::RankScheme::kFreq);
  svc.Submit(repeat, sink);
  auto frames = sink.Frames();  // Inline delivery: no wait.
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_TRUE(frames[0].response.from_cache);
  EXPECT_EQ(frames[0].response.request_id, 2u);
}

TEST_F(StreamFig3Test, RowPathRequestMissesTheColumnarCacheEntry) {
  // use_columnar=false runs the row plan, so it must not be answered from
  // the entry the default (columnar) request cached.
  service::TopologyService svc(engine_.get(), &db_, Config(2));
  wire::WireRequest columnar =
      Request(1, core::RankScheme::kFreq, MethodKind::kFullTopK);
  engine::ExecOptions row_options;
  row_options.use_columnar = false;

  auto direct_columnar = engine_->Execute(columnar.query, columnar.method);
  auto direct_row =
      engine_->Execute(columnar.query, columnar.method, row_options);
  ASSERT_TRUE(direct_columnar.ok());
  ASSERT_TRUE(direct_row.ok());
  ASSERT_NE(direct_columnar->stats.plan, direct_row->stats.plan);

  wire::WireResponse first = Serve(svc, columnar.query, columnar.method);
  ASSERT_TRUE(first.error.ok()) << first.error.message;
  EXPECT_EQ(first.result.stats.plan, direct_columnar->stats.plan);

  wire::WireResponse row =
      Serve(svc, columnar.query, columnar.method, row_options);
  ASSERT_TRUE(row.error.ok()) << row.error.message;
  EXPECT_FALSE(row.from_cache);
  EXPECT_EQ(row.result.stats.plan, direct_row->stats.plan);
  EXPECT_EQ(row.result.stats.blocks_total, 0u);
  EXPECT_EQ(row.result.entries, first.result.entries);

  // Each path then hits its own entry.
  EXPECT_TRUE(Serve(svc, columnar.query, columnar.method).from_cache);
  EXPECT_TRUE(
      Serve(svc, columnar.query, columnar.method, row_options).from_cache);
}

TEST_F(StreamFig3Test, ConcurrentStreamsKeepFramesOnTheirOwnSinks) {
  service::TopologyService svc(engine_.get(), &db_, Config(4, false));
  const size_t kStreams = 6;
  std::vector<std::unique_ptr<wire::CollectingSink>> sinks;
  std::vector<uint64_t> ids;
  for (size_t s = 0; s < kStreams; ++s) {
    sinks.push_back(std::make_unique<wire::CollectingSink>());
    std::vector<wire::WireRequest> requests;
    for (size_t i = 0; i < 4; ++i) {
      requests.push_back(
          Request(s * 10 + i,
                  s % 2 == 0 ? core::RankScheme::kFreq
                             : core::RankScheme::kRare,
                  MethodKind::kFullTop,
                  s % 2 == 0 ? wire::Priority::kInteractive
                             : wire::Priority::kBatch));
    }
    ids.push_back(svc.SubmitStream(std::move(requests), *sinks[s]));
  }
  for (size_t s = 0; s < kStreams; ++s) {
    sinks[s]->WaitForEnd();
    auto frames = sinks[s]->Frames();
    ASSERT_EQ(frames.size(), 5u) << s;
    EXPECT_EQ(sinks[s]->EndCount(), 1u);
    for (const wire::WireFrame& frame : frames) {
      EXPECT_EQ(frame.stream_id, ids[s]);
      if (frame.kind == FrameKind::kResponse) {
        EXPECT_EQ(frame.response.request_id / 10, s);
        EXPECT_TRUE(frame.response.error.ok());
      }
    }
  }
}

}  // namespace
}  // namespace tsb
