#include "shard/frame_handler.h"

#include <memory>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "engine/nquery.h"
#include "obs/cost.h"
#include "service/metrics.h"
#include "service/request_parser.h"
#include "wire/codec.h"
#include "wire/message.h"

namespace tsb {
namespace shard {

ShardFrameHandler::ShardFrameHandler(storage::Catalog* db,
                                     const engine::Engine* engine,
                                     SnapshotFn snapshot, StampFn stamp)
    : db_(db),
      engine_(engine),
      snapshot_(std::move(snapshot)),
      stamp_(std::move(stamp)) {
  TSB_CHECK(db_ != nullptr);
  TSB_CHECK(engine_ != nullptr);
  TSB_CHECK(snapshot_ != nullptr);
}

Result<std::string> ShardFrameHandler::Handle(
    const std::string& request) const {
  TSB_ASSIGN_OR_RETURN(wire::MessageKind kind,
                       wire::PeekMessageKind(request));
  switch (kind) {
    case wire::MessageKind::kQueryRequest: {
      TSB_ASSIGN_OR_RETURN(wire::WireRequest decoded,
                           wire::DecodeQueryRequest(request, *db_));
      wire::WireResponse response;
      response.request_id = decoded.id;
      if (stamp_ != nullptr) response.serving_stamp = stamp_();
      const double start_unix = obs::UnixSeconds();
      Stopwatch watch;
      Result<engine::QueryResult> result =
          engine_->Execute(decoded.query, decoded.method, decoded.options);
      const double seconds = watch.ElapsedSeconds();
      if (result.ok()) {
        response.result = std::move(*result);
        response.service_seconds = response.result.stats.seconds;
        if (obs::CostTracker::enabled()) {
          // Bill the decoded request frame to this sub-query: the engine
          // section cannot see wire work that happened before it started.
          response.result.stats.bytes_deserialized += request.size();
        }
      } else {
        // Engine-level failures are a *response* (the request reached the
        // shard and was understood); only transport-level problems surface
        // as a Status.
        response.error = wire::WireErrorFromStatus(result.status());
      }
      if (decoded.trace.active()) {
        // One span per shard-side execution, parented under the sender's
        // rpc span and piggybacked on the response so the frontend can
        // absorb it into its assembled trace.
        obs::Span span;
        span.span_id = obs::NewSpanId();
        span.parent_span_id = decoded.trace.parent_span_id;
        span.name = "shard.exec";
        span.start_unix_seconds = start_unix;
        span.duration_seconds = seconds;
        span.cpu_ns =
            response.error.ok() ? response.result.stats.cpu_ns : 0;
        span.tags = "method=";
        span.tags += engine::MethodKindToString(decoded.method);
        if (response.error.ok()) {
          span.tags += "," + wire::ExecStatsTraceTags(response.result.stats);
        } else {
          span.tags += ",error=";
          span.tags += wire::WireErrorCodeToString(response.error.code);
        }
        if (!response.serving_stamp.empty()) {
          span.tags += ",stamp=" + response.serving_stamp;
        }
        if (observability_.tracer != nullptr) {
          // Keep a local copy so this shard's admin channel can show its
          // own fragment of the distributed trace.
          auto fragment = std::make_shared<obs::QueryTrace>(
              decoded.trace.trace_id, "shard.handle",
              decoded.trace.parent_span_id);
          fragment->AddSpanWithId(span);
          fragment->Finish(seconds);
          observability_.tracer->Record(fragment);
        }
        response.spans.push_back(std::move(span));
      }
      if (observability_.metrics != nullptr) {
        const bool ok = response.error.ok();
        observability_.metrics->RecordRequest(
            service::ServiceMetrics::SlotOf(decoded.method), seconds,
            /*cache_hit=*/false, ok, ok ? &response.result.stats : nullptr);
      }
      if (observability_.slow_log != nullptr &&
          observability_.slow_log->enabled() &&
          seconds >= observability_.slow_log->threshold_seconds()) {
        obs::SlowQueryRecord record;
        record.unix_seconds = obs::UnixSeconds();
        record.service_seconds = seconds;
        service::ParsedRequest parsed;
        parsed.query = decoded.query;
        parsed.method = decoded.method;
        parsed.options = decoded.options;
        Result<std::string> line = service::RequestParser::Format(parsed);
        record.request = line.ok()
                             ? std::move(*line)
                             : decoded.query.entity_set1 + " / " +
                                   decoded.query.entity_set2;
        record.method = engine::MethodKindToString(decoded.method);
        record.ok = response.error.ok();
        if (record.ok) {
          record.plan = response.result.stats.plan;
          record.rows_scanned = response.result.stats.rows_scanned;
          record.rows_out = response.result.stats.rows_out;
          record.blocks_total = response.result.stats.blocks_total;
          record.blocks_skipped = response.result.stats.blocks_skipped;
          record.cpu_ns = response.result.stats.cpu_ns;
          record.bytes_deserialized =
              response.result.stats.bytes_deserialized;
          record.heap_bytes = response.result.stats.heap_bytes;
        }
        record.trace_id = decoded.trace.trace_id;
        if (!response.spans.empty()) {
          record.span_tree = obs::FormatSpanTree(response.spans);
        }
        observability_.slow_log->Record(std::move(record));
      }
      std::string encoded;
      wire::EncodeQueryResponse(response, &encoded);
      return encoded;
    }
    case wire::MessageKind::kTripleCollectRequest: {
      TSB_ASSIGN_OR_RETURN(engine::TripleSelection selection,
                           wire::DecodeTripleCollectRequest(request, *db_));
      Stopwatch watch;
      engine::TripleRelatedSets related =
          engine::CollectTripleRelated(*db_, *snapshot_(), selection);
      if (observability_.metrics != nullptr) {
        observability_.metrics->RecordRequest(
            service::ServiceMetrics::kTripleSlot, watch.ElapsedSeconds(),
            /*cache_hit=*/false, /*ok=*/true);
      }
      std::string encoded;
      wire::EncodeTripleCollectResponse(related, &encoded);
      return encoded;
    }
    case wire::MessageKind::kAdminRequest: {
      if (observability_.admin == nullptr) {
        return Status::InvalidArgument(
            "shard frame handler: admin channel not enabled");
      }
      return obs::HandleAdminFrame(*observability_.admin, request);
    }
    case wire::MessageKind::kMutationRequest: {
      TSB_ASSIGN_OR_RETURN(wire::MutationWireRequest decoded,
                           wire::DecodeMutationRequest(request));
      wire::MutationWireResponse response;
      response.request_id = decoded.id;
      if (mutation_apply_ == nullptr) {
        response.error =
            wire::WireError{wire::WireErrorCode::kFailedPrecondition,
                            "this server does not accept mutations"};
      } else {
        Result<mutation::ApplyStats> applied = mutation_apply_(decoded.batch);
        if (applied.ok()) {
          response.applied_ops = applied.value().applied_ops;
          response.dirty_pairs = applied.value().dirty.total();
          response.apply_seconds = applied.value().apply_seconds;
        } else {
          response.error = wire::WireErrorFromStatus(applied.status());
        }
      }
      std::string encoded;
      wire::EncodeMutationResponse(response, &encoded);
      return encoded;
    }
    default:
      return Status::InvalidArgument(
          "shard frame handler: unexpected message kind");
  }
}

std::string ShardFrameHandler::HandleOrEncodeError(
    const std::string& request) const {
  Result<std::string> response = Handle(request);
  if (response.ok()) return std::move(*response);
  wire::WireResponse error;
  if (stamp_ != nullptr) error.serving_stamp = stamp_();
  error.error = wire::WireErrorFromStatus(response.status());
  std::string encoded;
  wire::EncodeQueryResponse(error, &encoded);
  return encoded;
}

}  // namespace shard
}  // namespace tsb
