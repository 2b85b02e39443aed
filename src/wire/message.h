#ifndef TSB_WIRE_MESSAGE_H_
#define TSB_WIRE_MESSAGE_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/nquery.h"
#include "engine/query.h"
#include "mutation/mutation.h"
#include "obs/trace.h"

namespace tsb {
namespace wire {

/// The versioned wire protocol of the topology service: typed request /
/// response messages with two codecs (the RequestParser text grammar for
/// humans, a length-prefixed binary framing for machines — see
/// wire/codec.h), an admission class per request, and a streaming frame
/// model so batch clients pipeline responses as they complete.
///
/// Version history (kWireVersion in every binary frame header):
///   1 — initial: query request/response, triple-collect request/response,
///       stream-end frames; structural predicate trees; Priority +
///       deadline admission fields.
///   2 — query responses carry a serving stamp ("r<replica>:e<epoch>")
///       directly after the request id, so a replica-aware sender can read
///       replica provenance and shard epoch without decoding the result
///       payload (wire::PeekResponseStamp) — the signal the replica health
///       tracker's epoch quarantine runs on.
///   3 — query requests carry ExecOptions::use_columnar (columnar block-scan
///       gate) and ExecStats gained blocks_total/blocks_skipped counters, so
///       zone-map effectiveness is observable across the wire.
///   4 — distributed tracing + admin channel: query requests carry a
///       TraceContext (trace id, parent span id, sampled flag) appended at
///       the payload tail; query responses piggyback the responder's span
///       list after service_seconds, so a frontend assembles one
///       cross-process trace per sampled query. New kAdminRequest /
///       kAdminResponse frames let tools/topctl pull metrics, traces, and
///       slow-query records from a live server.
///   5 — incremental updates: new kMutationRequest / kMutationResponse
///       frames carry a MutationBatch to a serving process and return the
///       apply outcome (TopologyService::ApplyMutations / the shard
///       servers' mutation hook), so the data graph mutates in place
///       without a full rebuild. New AdminCommand::kCompaction pulls the
///       mutation engine's delta/overlay/compaction status. Query frames
///       are unchanged from v4.
///   6 — cost accounting: every encoded span carries its thread-CPU bill
///       (cpu_ns after duration in the span record), and query responses
///       append the result's resource counters (cpu_ns,
///       bytes_deserialized, catalog_interns, heap_bytes — 4×u64) at the
///       payload tail after the span list, so the shard-side bill merges
///       into the router's ExecStats. New AdminCommand::kCostSnapshot
///       streams an obs::FleetSnapshot (mergeable histograms + cost
///       counters + top-cost queries) for `topctl top`. Query requests
///       are unchanged from v4.

inline constexpr uint8_t kWireVersion = 6;

/// Oldest version this build decodes. The build speaks one version:
/// encoders emit kWireVersion and every other header version is
/// FrameError::kUnsupportedVersion.
inline constexpr uint8_t kMinWireVersion = kWireVersion;

/// Admission class of a request. Interactive top-k lookups and batch
/// SQL-baseline scans differ by orders of magnitude in cost (the paper's
/// Table 2); the service keeps one queue per class and always drains
/// interactive work first, so a batch flood adds at most one
/// already-executing batch query of delay to an interactive request.
enum class Priority : uint8_t {
  kInteractive = 0,
  kBatch = 1,
};

inline constexpr size_t kNumPriorities = 2;

const char* PriorityToString(Priority priority);

/// Stable wire-level error codes — coarser than tsb::Status (clients
/// dispatch on these without string matching), with admission outcomes
/// (kOverloaded / kDeadlineExceeded / kCancelled) that Status does not
/// distinguish.
enum class WireErrorCode : uint8_t {
  kOk = 0,
  kInvalidRequest = 1,    // Malformed or unresolvable request.
  kNotFound = 2,          // Unknown entity set / method target.
  kFailedPrecondition = 3,
  kOverloaded = 4,        // Class admission queue full.
  kDeadlineExceeded = 5,  // Shed: deadline expired while queued.
  kCancelled = 6,         // Stream cancelled before execution.
  kShuttingDown = 7,      // Service stopped accepting work.
  kUnavailable = 8,       // Shard transport failure (no degraded answer).
  kInternal = 9,
};

const char* WireErrorCodeToString(WireErrorCode code);

struct WireError {
  WireErrorCode code = WireErrorCode::kOk;
  std::string message;

  bool ok() const { return code == WireErrorCode::kOk; }
};

/// Best-effort mapping for errors that bubble up as Status (engine
/// failures, parse errors). Admission paths construct their WireError
/// directly with the precise code.
WireErrorCode WireErrorCodeFromStatus(const Status& status);
WireError WireErrorFromStatus(const Status& status);

/// Inverse mapping, for callers that fold a wire error back into a Status
/// (the scatter-gather executor does, for a shard's sub-response).
Status StatusFromWireError(const WireError& error);

/// One request on the wire: a 2-query evaluation call plus the envelope
/// fields the serving layer dispatches on. `id` is caller-chosen and
/// echoed verbatim in the response frame, so a client multiplexing many
/// requests over one stream can correlate out-of-order completions.
struct WireRequest {
  uint64_t id = 0;
  Priority priority = Priority::kInteractive;
  /// Admission deadline in seconds, measured from submission; 0 disables.
  /// A request still queued when its deadline expires is shed with
  /// kDeadlineExceeded instead of executing late.
  double deadline_seconds = 0.0;

  engine::TopologyQuery query;
  engine::MethodKind method = engine::MethodKind::kFastTopKEt;
  engine::ExecOptions options;

  /// Distributed-tracing context (v4+). Inactive for untraced traffic and
  /// for every frame decoded from a v3 peer.
  obs::TraceContext trace;
};

/// One response on the wire. `error.ok()` selects between the result
/// payload and the error; `request_id` echoes the request.
struct WireResponse {
  uint64_t request_id = 0;
  /// Who served this response: "r<replica>:e<epoch>" (replica id + the
  /// serving shard's store epoch), or empty when the responder is not
  /// replica-aware. Placed right after the id on the wire so the sender's
  /// replica layer reads it without decoding the result payload.
  std::string serving_stamp;
  WireError error;
  engine::QueryResult result;
  bool from_cache = false;
  double service_seconds = 0.0;

  /// Spans the responder recorded while serving a traced request,
  /// piggybacked so the requesting frontend absorbs them into its own
  /// trace. Empty for untraced traffic.
  std::vector<obs::Span> spans;
};

/// Renders one execution's ExecStats as span tags for the tracing layer:
/// "path=columnar|row" (from the plan's columnar marker), rows scanned /
/// emitted, and block skip counts when the columnar path ran.
std::string ExecStatsTraceTags(const engine::ExecStats& stats);

/// Builds the canonical serving stamp, e.g. "r1:e3".
std::string MakeServingStamp(uint64_t replica_id, uint64_t epoch);

/// Parses a canonical serving stamp; false when `stamp` is empty or not in
/// the "r<replica>:e<epoch>" form.
bool ParseServingStamp(const std::string& stamp, uint64_t* replica_id,
                       uint64_t* epoch);

/// --- Admin channel (v4) ----------------------------------------------------
///
/// The out-of-band observability pull: tools/topctl sends one
/// kAdminRequest frame to a live server and gets the requested snapshot
/// back as an opaque text body (Prometheus exposition, JSON, rendered
/// traces, or the slow-query log).

enum class AdminCommand : uint8_t {
  kPing = 0,               // Body "pong" — liveness probe.
  kMetricsPrometheus = 1,  // Prometheus text exposition.
  kMetricsJson = 2,        // JSON dump of the same samples.
  kMetricsText = 3,        // Human tables (the ToString renderings).
  kTraces = 4,             // Recent sampled traces as span trees.
  kSlowQueries = 5,        // Recent slow-query records.
  kCompaction = 6,         // Mutation engine status (v5+): generation,
                           // pending pairs, last fold, WAL counters.
  kCostSnapshot = 7,       // Binary obs::FleetSnapshot (v6+): mergeable
                           // histograms + cost counters for `topctl top`.
};

inline constexpr uint8_t kMaxAdminCommand =
    static_cast<uint8_t>(AdminCommand::kCostSnapshot);

const char* AdminCommandToString(AdminCommand command);

/// Parses a topctl-style command name ("metrics", "metrics-json",
/// "metrics-text", "traces", "slowlog", "ping"); false on unknown names.
bool ParseAdminCommand(const std::string& name, AdminCommand* command);

struct AdminRequest {
  AdminCommand command = AdminCommand::kPing;
};

struct AdminResponse {
  WireError error;
  std::string body;
};

/// --- Mutation channel (v5) -------------------------------------------------
///
/// The incremental write path on the wire: a client (or the service's
/// scatter layer) sends one batch of graph mutations to a serving process,
/// which applies it through its MutationEngine — WAL append, overlay
/// re-stage of the dirtied pairs, store swap — and answers with the apply
/// outcome. `id` is caller-chosen and echoed like a query request's.

struct MutationWireRequest {
  uint64_t id = 0;
  mutation::MutationBatch batch;
};

struct MutationWireResponse {
  uint64_t request_id = 0;
  WireError error;
  uint64_t applied_ops = 0;   // Ops applied (0 on error).
  uint64_t dirty_pairs = 0;   // structural + cache-only pairs invalidated.
  double apply_seconds = 0.0;
};

enum class FrameKind : uint8_t {
  /// One completed response (terminal for its request).
  kResponse = 0,
  /// Terminal stream frame: every request of the stream has been answered
  /// (or shed). Delivered exactly once per stream, last.
  kStreamEnd = 1,
};

/// The unit a StreamSink receives. Single submissions deliver exactly one
/// kResponse frame with stream_id 0; a stream delivers one kResponse per
/// request in completion order, then one kStreamEnd.
struct WireFrame {
  FrameKind kind = FrameKind::kResponse;
  uint64_t stream_id = 0;
  WireResponse response;  // Valid when kind == kResponse.
};

/// Receiver side of the streaming service API. The service serializes
/// OnFrame calls per sink (never concurrent for one stream) and guarantees
/// the sink sees every admitted request's terminal frame before Shutdown()
/// returns — a sink may therefore outlive the service. OnFrame runs on a
/// worker thread: keep it light and never call blocking service methods
/// from it.
class StreamSink {
 public:
  virtual ~StreamSink() = default;
  virtual void OnFrame(const WireFrame& frame) = 0;
};

/// A sink that buffers frames and lets the caller block until one response
/// (WaitForFrames) or a whole stream (WaitForEnd) arrived — how tests,
/// benches and examples wait on the service's wire surface.
class CollectingSink : public StreamSink {
 public:
  void OnFrame(const WireFrame& frame) override {
    std::lock_guard<std::mutex> lock(mu_);
    frames_.push_back(frame);
    if (frame.kind == FrameKind::kStreamEnd) ++ends_;
    cv_.notify_all();
  }

  /// Blocks until a kStreamEnd frame arrives.
  void WaitForEnd() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this]() { return ends_ > 0; });
  }

  /// Blocks until at least `n` frames (of any kind) arrived.
  void WaitForFrames(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this, n]() { return frames_.size() >= n; });
  }

  std::vector<WireFrame> Frames() const {
    std::lock_guard<std::mutex> lock(mu_);
    return frames_;
  }

  size_t EndCount() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ends_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<WireFrame> frames_;
  size_t ends_ = 0;
};

}  // namespace wire
}  // namespace tsb

#endif  // TSB_WIRE_MESSAGE_H_
