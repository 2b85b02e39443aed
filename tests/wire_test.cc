// The versioned wire protocol (src/wire/): binary frame round-trips for
// every method's requests and results (byte-identical re-encodings), the
// canonical text Format round-trip, parser error offsets, and the
// ShardTransport seam — including the tentpole contract that
// scatter-gather over the executor's default in-process transport returns
// results identical to the direct per-shard-engine path, and that a
// failed or timed-out shard degrades the answer with partial=true instead
// of failing the query.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "biozon/domain.h"
#include "biozon/fig3.h"
#include "common/binary_io.h"
#include "core/builder.h"
#include "core/pruner.h"
#include "engine/engine.h"
#include "engine/nquery.h"
#include "engine/result_io.h"
#include "service/request_parser.h"
#include "service/service.h"
#include "service_test_util.h"
#include "shard/frame_handler.h"
#include "shard/scatter_gather.h"
#include "shard/sharded_store.h"
#include "wire/codec.h"
#include "wire/message.h"
#include "wire/transport.h"

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

/// A predicate's wire image: equal images mean equal predicates.
std::string WireImage(const storage::PredicateRef& pred) {
  std::string image;
  pred->EncodeWire(&image);
  return image;
}

// ---------------------------------------------------------------------------
// binary_io primitives
// ---------------------------------------------------------------------------

TEST(BinaryIoTest, RoundTripsEveryPrimitive) {
  std::string buf;
  PutU8(&buf, 0xab);
  PutU16(&buf, 0xbeef);
  PutU32(&buf, 0xdeadbeefu);
  PutU64(&buf, 0x0123456789abcdefull);
  PutI64(&buf, -42);
  PutF64(&buf, 3.14159265358979);
  PutBool(&buf, true);
  PutString(&buf, "hello wire");

  BinaryReader in(buf);
  EXPECT_EQ(in.U8(), 0xab);
  EXPECT_EQ(in.U16(), 0xbeef);
  EXPECT_EQ(in.U32(), 0xdeadbeefu);
  EXPECT_EQ(in.U64(), 0x0123456789abcdefull);
  EXPECT_EQ(in.I64(), -42);
  EXPECT_DOUBLE_EQ(in.F64(), 3.14159265358979);
  EXPECT_TRUE(in.Bool());
  EXPECT_EQ(in.String(), "hello wire");
  EXPECT_TRUE(in.AtEnd());
}

TEST(BinaryIoTest, TruncationSticksAndYieldsZeros) {
  std::string buf;
  PutU32(&buf, 7);
  BinaryReader in(buf);
  EXPECT_EQ(in.U32(), 7u);
  EXPECT_EQ(in.U64(), 0u);  // Past the end.
  EXPECT_FALSE(in.ok());
  EXPECT_EQ(in.String(), "");  // Still failed, still harmless.
  EXPECT_FALSE(in.AtEnd());
  EXPECT_FALSE(in.status("test").ok());
}

TEST(BinaryIoTest, StringLengthBeyondBufferFails) {
  std::string buf;
  PutU32(&buf, 1000);  // Claims 1000 bytes; none follow.
  BinaryReader in(buf);
  EXPECT_EQ(in.String(), "");
  EXPECT_FALSE(in.ok());
}

TEST(BinaryIoTest, DoubleBitPatternsSurviveExactly) {
  for (double v : {0.0, -0.0, 1.0 / 3.0, 2.2250738585072014e-308,
                   1.7976931348623157e308}) {
    std::string buf;
    PutF64(&buf, v);
    std::string again;
    BinaryReader in(buf);
    PutF64(&again, in.F64());
    EXPECT_EQ(buf, again);
  }
}

// ---------------------------------------------------------------------------
// Result payload round-trips (no database needed)
// ---------------------------------------------------------------------------

TEST(ResultIoTest, QueryResultRoundTripsByteIdentically) {
  engine::QueryResult result;
  result.entries = {{7, 3.25}, {2, 1.0 / 3.0}, {9, 0.0}};
  result.stats.seconds = 0.001234;
  result.stats.rows_scanned = 111;
  result.stats.probes = 22;
  result.stats.rows_out = 3;
  result.stats.builds = 4;
  result.stats.subqueries = 5;
  result.stats.plan = "scan | probe | merge";
  result.partial = true;

  std::string bytes;
  engine::EncodeQueryResult(result, &bytes);
  BinaryReader in(bytes);
  auto decoded = engine::DecodeQueryResult(&in);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(in.AtEnd());

  EXPECT_EQ(decoded->entries, result.entries);
  EXPECT_EQ(decoded->stats.plan, result.stats.plan);
  EXPECT_EQ(decoded->stats.rows_scanned, result.stats.rows_scanned);
  EXPECT_TRUE(decoded->partial);

  std::string again;
  engine::EncodeQueryResult(*decoded, &again);
  EXPECT_EQ(bytes, again);
}

TEST(ResultIoTest, TripleQueryResultRoundTripsByteIdentically) {
  engine::TripleQueryResult result;
  result.entries = {{12, 5}, {3, 2}};
  result.triples_examined = 77;
  result.truncated = true;
  std::string bytes;
  engine::EncodeTripleQueryResult(result, &bytes);
  BinaryReader in(bytes);
  auto decoded = engine::DecodeTripleQueryResult(&in);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->entries.size(), 2u);
  EXPECT_EQ(decoded->entries[0].tid, 12);
  EXPECT_EQ(decoded->entries[0].frequency, 5u);
  EXPECT_EQ(decoded->triples_examined, 77u);
  EXPECT_TRUE(decoded->truncated);
  EXPECT_FALSE(decoded->partial);
  std::string again;
  engine::EncodeTripleQueryResult(*decoded, &again);
  EXPECT_EQ(bytes, again);
}

// ---------------------------------------------------------------------------
// Codec on the Figure-3 fixture
// ---------------------------------------------------------------------------

class WireFig3Test : public ::testing::Test {
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
    std::vector<std::pair<storage::EntityTypeId, storage::EntityTypeId>> keys;
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

  wire::WireRequest ExampleRequest(MethodKind method) const {
    wire::WireRequest request;
    request.id = 42;
    request.priority = wire::Priority::kBatch;
    request.deadline_seconds = 1.5;
    request.query.entity_set1 = "Protein";
    request.query.pred1 = storage::MakeContainsKeyword(
        db_.GetTable("Protein")->schema(), "DESC", "enzyme");
    request.query.entity_set2 = "DNA";
    request.query.pred2 = storage::MakeEquals(
        db_.GetTable("DNA")->schema(), "TYPE", storage::Value("mRNA"));
    request.query.scheme = core::RankScheme::kDomain;
    request.query.k = 7;
    request.query.exclude_weak = true;
    request.method = method;
    return request;
  }

  storage::Catalog db_;
  biozon::BiozonSchema ids_;
  std::unique_ptr<graph::DataGraphView> view_;
  std::unique_ptr<graph::SchemaGraph> schema_;
  core::TopologyStore store_;
  std::unique_ptr<engine::Engine> engine_;
};

TEST_F(WireFig3Test, QueryRequestRoundTripsForEveryMethod) {
  for (MethodKind method : kAllMethods) {
    wire::WireRequest request = ExampleRequest(method);
    std::string frame;
    wire::EncodeQueryRequest(request, &frame);

    auto kind = wire::PeekMessageKind(frame);
    ASSERT_TRUE(kind.ok());
    EXPECT_EQ(*kind, wire::MessageKind::kQueryRequest);

    auto decoded = wire::DecodeQueryRequest(frame, db_);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->id, 42u);
    EXPECT_EQ(decoded->priority, wire::Priority::kBatch);
    EXPECT_DOUBLE_EQ(decoded->deadline_seconds, 1.5);
    EXPECT_EQ(decoded->method, method);
    EXPECT_EQ(decoded->query.entity_set1, "Protein");
    EXPECT_EQ(decoded->query.k, 7u);
    EXPECT_TRUE(decoded->query.exclude_weak);
    ASSERT_NE(decoded->query.pred1, nullptr);
    EXPECT_EQ(WireImage(decoded->query.pred1),
              WireImage(request.query.pred1));

    // Encode → decode → encode is byte-identical.
    std::string again;
    wire::EncodeQueryRequest(*decoded, &again);
    EXPECT_EQ(frame, again) << engine::MethodKindToString(method);
  }
}

TEST_F(WireFig3Test, RequestsWithExecOptionsAndNoPredicatesRoundTrip) {
  wire::WireRequest request;
  request.query.entity_set1 = "Protein";
  request.query.entity_set2 = "Unigene";
  request.method = MethodKind::kFullTopKEt;
  request.options.dgj_algs = {engine::DgjAlg::kHdgj, engine::DgjAlg::kIdgj};
  request.options.et_side_order = {1, 0};
  request.options.skip_pruned_checks = true;

  std::string frame;
  wire::EncodeQueryRequest(request, &frame);
  auto decoded = wire::DecodeQueryRequest(frame, db_);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->query.pred1, nullptr);
  EXPECT_EQ(decoded->options.dgj_algs, request.options.dgj_algs);
  EXPECT_EQ(decoded->options.et_side_order, request.options.et_side_order);
  EXPECT_TRUE(decoded->options.skip_pruned_checks);
  std::string again;
  wire::EncodeQueryRequest(*decoded, &again);
  EXPECT_EQ(frame, again);
}

TEST_F(WireFig3Test, BooleanCombinatorPredicatesSurviveTheBinaryCodec) {
  // OR / NOT are outside the text grammar; the structural tree carries
  // them.
  const storage::TableSchema& schema = db_.GetTable("Protein")->schema();
  wire::WireRequest request;
  request.query.entity_set1 = "Protein";
  request.query.entity_set2 = "DNA";
  request.query.pred1 = storage::MakeOr(
      storage::MakeContainsKeyword(schema, "DESC", "enzyme"),
      storage::MakeNot(storage::MakeEquals(schema, "DESC",
                                           storage::Value("x"))));
  std::string frame;
  wire::EncodeQueryRequest(request, &frame);
  auto decoded = wire::DecodeQueryRequest(frame, db_);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(WireImage(decoded->query.pred1),
            WireImage(request.query.pred1));
  std::string again;
  wire::EncodeQueryRequest(*decoded, &again);
  EXPECT_EQ(frame, again);
}

TEST_F(WireFig3Test, QueryResponseRoundTripsRealResultsForEveryMethod) {
  engine::TopologyQuery query;
  query.entity_set1 = "Protein";
  query.entity_set2 = "DNA";
  query.scheme = core::RankScheme::kFreq;
  query.k = 10;
  for (MethodKind method : kAllMethods) {
    auto result = engine_->Execute(query, method);
    ASSERT_TRUE(result.ok()) << engine::MethodKindToString(method);
    ASSERT_FALSE(result->entries.empty());

    wire::WireResponse response;
    response.request_id = 7;
    response.result = *result;
    response.service_seconds = 0.25;
    std::string frame;
    wire::EncodeQueryResponse(response, &frame);
    auto decoded = wire::DecodeQueryResponse(frame);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_TRUE(decoded->error.ok());
    // Scores decode to the exact same doubles (operator== on entries).
    EXPECT_EQ(decoded->result.entries, result->entries);
    EXPECT_EQ(decoded->result.stats.plan, result->stats.plan);

    std::string again;
    wire::EncodeQueryResponse(*decoded, &again);
    EXPECT_EQ(frame, again) << engine::MethodKindToString(method);
  }
}

TEST_F(WireFig3Test, ErrorResponsesCarryTheWireCode) {
  wire::WireResponse response;
  response.request_id = 3;
  response.error = wire::WireError{wire::WireErrorCode::kDeadlineExceeded,
                                   "expired after 2.5s"};
  std::string frame;
  wire::EncodeQueryResponse(response, &frame);
  auto decoded = wire::DecodeQueryResponse(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->error.code, wire::WireErrorCode::kDeadlineExceeded);
  EXPECT_EQ(decoded->error.message, "expired after 2.5s");
  EXPECT_EQ(wire::StatusFromWireError(decoded->error).code(),
            StatusCode::kResourceExhausted);
}

TEST_F(WireFig3Test, TripleCollectRoundTripsSelectionAndRelatedSets) {
  engine::TripleQuery triple;
  triple.entity_set1 = "Protein";
  triple.entity_set2 = "Unigene";
  triple.entity_set3 = "DNA";
  auto selection = engine::ResolveTripleSelection(&db_, triple);
  ASSERT_TRUE(selection.ok());

  std::string frame;
  wire::EncodeTripleCollectRequest(*selection, &frame);
  auto decoded = wire::DecodeTripleCollectRequest(frame, db_);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(decoded->slots[s].def->name, selection->slots[s].def->name);
    EXPECT_EQ(decoded->slots[s].selected, selection->slots[s].selected);
  }
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(decoded->slot_pairs[p].lo, selection->slot_pairs[p].lo);
    EXPECT_EQ(decoded->slot_pairs[p].hi, selection->slot_pairs[p].hi);
  }
  std::string again;
  wire::EncodeTripleCollectRequest(*decoded, &again);
  EXPECT_EQ(frame, again);

  // The response payload: the real related sets of this store.
  engine::TripleRelatedSets related =
      engine::CollectTripleRelated(db_, store_, *selection);
  std::string response_frame;
  wire::EncodeTripleCollectResponse(related, &response_frame);
  auto decoded_sets = wire::DecodeTripleCollectResponse(response_frame);
  ASSERT_TRUE(decoded_sets.ok());
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ((*decoded_sets)[p], related[p]);
  }
  std::string response_again;
  wire::EncodeTripleCollectResponse(*decoded_sets, &response_again);
  EXPECT_EQ(response_frame, response_again);
}

TEST_F(WireFig3Test, FramesEncodeBackToBackIntoOneBuffer) {
  // A transport may concatenate frames into one send buffer; each frame's
  // length field must be patched relative to its own start.
  wire::WireRequest a = ExampleRequest(MethodKind::kFullTop);
  wire::WireRequest b = ExampleRequest(MethodKind::kSql);
  b.id = 43;
  std::string lone_a, lone_b, buffer;
  wire::EncodeQueryRequest(a, &lone_a);
  wire::EncodeQueryRequest(b, &lone_b);
  wire::EncodeQueryRequest(a, &buffer);
  const size_t split = buffer.size();
  wire::EncodeQueryRequest(b, &buffer);
  EXPECT_EQ(buffer.substr(0, split), lone_a);
  EXPECT_EQ(buffer.substr(split), lone_b);
  auto second = wire::DecodeQueryRequest(
      std::string_view(buffer).substr(split), db_);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->id, 43u);
}

TEST_F(WireFig3Test, EqualsPredicateTypeMismatchIsRejectedAtDecode) {
  // The text parser types equality values by the column; the binary
  // decoder must enforce the same agreement (a mismatch would match no
  // row and silently empty a shard's partial).
  wire::WireRequest request = ExampleRequest(MethodKind::kFullTop);
  request.query.pred2 = storage::MakeEquals(
      db_.GetTable("DNA")->schema(), "ID", storage::Value(int64_t{7}));
  std::string ok_frame;
  wire::EncodeQueryRequest(request, &ok_frame);
  ASSERT_TRUE(wire::DecodeQueryRequest(ok_frame, db_).ok());

  // Same column, string-typed value: constructed via MakeEquals directly
  // (the parser would never produce it).
  request.query.pred2 = storage::MakeEquals(
      db_.GetTable("DNA")->schema(), "ID", storage::Value("seven"));
  std::string bad_frame;
  wire::EncodeQueryRequest(request, &bad_frame);
  auto decoded = wire::DecodeQueryRequest(bad_frame, db_);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("does not match"),
            std::string::npos);
}

TEST_F(WireFig3Test, MalformedFramesAreRejected) {
  wire::WireRequest request = ExampleRequest(MethodKind::kFastTopKEt);
  std::string frame;
  wire::EncodeQueryRequest(request, &frame);

  // Bad magic.
  std::string bad = frame;
  bad[0] = 'X';
  EXPECT_FALSE(wire::PeekMessageKind(bad).ok());
  EXPECT_FALSE(wire::DecodeQueryRequest(bad, db_).ok());

  // Unsupported version.
  bad = frame;
  bad[2] = 99;
  EXPECT_FALSE(wire::DecodeQueryRequest(bad, db_).ok());

  // Wrong kind for the decoder.
  EXPECT_FALSE(wire::DecodeQueryResponse(frame).ok());

  // Truncated payload (header length no longer matches).
  bad = frame.substr(0, frame.size() - 3);
  EXPECT_FALSE(wire::DecodeQueryRequest(bad, db_).ok());

  // Trailing garbage.
  bad = frame + "xyz";
  EXPECT_FALSE(wire::DecodeQueryRequest(bad, db_).ok());

  // Too short for a header at all.
  EXPECT_FALSE(wire::PeekMessageKind("TW").ok());
}

TEST_F(WireFig3Test, InspectFrameClassifiesPrefixesAndCorruption) {
  wire::WireRequest request = ExampleRequest(MethodKind::kFastTopKEt);
  std::string frame;
  wire::EncodeQueryRequest(request, &frame);

  // Every strict prefix of a valid frame is kIncomplete — a stream
  // reader keeps waiting, a whole-message decoder rejects it — and once
  // the header is present its fields are available for sizing the read.
  for (size_t len = 0; len < frame.size(); ++len) {
    wire::FrameHeader header;
    const wire::FrameError error = wire::InspectFrame(
        std::string_view(frame).substr(0, len),
        wire::kDefaultMaxFramePayload, &header);
    EXPECT_EQ(error, wire::FrameError::kIncomplete) << "prefix " << len;
    if (len >= wire::kFrameHeaderBytes) {
      EXPECT_EQ(header.frame_bytes, frame.size()) << "prefix " << len;
      EXPECT_EQ(header.kind, wire::MessageKind::kQueryRequest);
    }
  }
  EXPECT_EQ(wire::InspectFrame(frame, wire::kDefaultMaxFramePayload,
                               nullptr),
            wire::FrameError::kOk);

  // Bad magic in either position: malformed at the first offending byte.
  for (size_t pos : {0u, 1u}) {
    std::string bad = frame;
    bad[pos] = 'X';
    EXPECT_EQ(wire::InspectFrame(bad, wire::kDefaultMaxFramePayload,
                                 nullptr),
              wire::FrameError::kMalformedFrame);
    // Even a 1-2 byte glimpse of bad magic is already hopeless.
    EXPECT_EQ(wire::InspectFrame(std::string_view(bad).substr(0, pos + 1),
                                 wire::kDefaultMaxFramePayload, nullptr),
              wire::FrameError::kMalformedFrame);
  }

  // Unknown versions — future or outdated (v1 predates serving stamps) —
  // are typed distinctly from garbage, and the Status rendering keeps the
  // distinction (kUnimplemented).
  for (uint8_t version : {0, 1, 7, 255}) {
    std::string bad = frame;
    bad[2] = static_cast<char>(version);
    EXPECT_EQ(wire::InspectFrame(bad, wire::kDefaultMaxFramePayload,
                                 nullptr),
              wire::FrameError::kUnsupportedVersion)
        << static_cast<int>(version);
    auto decoded = wire::DecodeQueryRequest(bad, db_);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kUnimplemented);
  }
  EXPECT_EQ(wire::FrameErrorToStatus(wire::FrameError::kUnsupportedVersion)
                .code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(
      wire::FrameErrorToStatus(wire::FrameError::kMalformedFrame).code(),
      StatusCode::kInvalidArgument);

  // Unknown kind byte.
  std::string bad_kind = frame;
  bad_kind[3] = 17;
  EXPECT_EQ(wire::InspectFrame(bad_kind, wire::kDefaultMaxFramePayload,
                               nullptr),
            wire::FrameError::kMalformedFrame);

  // An oversized length field is malformed under the cap — the receiver
  // rejects before allocating, instead of buffering toward 4 GiB.
  std::string huge = frame.substr(0, wire::kFrameHeaderBytes);
  for (int i = 0; i < 4; ++i) huge[4 + i] = static_cast<char>(0xff);
  EXPECT_EQ(wire::InspectFrame(huge, wire::kDefaultMaxFramePayload,
                               nullptr),
            wire::FrameError::kMalformedFrame);
}

// ---------------------------------------------------------------------------
// One wire version: older headers are refused, tails are mandatory
// ---------------------------------------------------------------------------

namespace {

/// Drops `tail_bytes` from the end of a frame's payload and patches the
/// little-endian payload length to match, so the header stays valid and
/// only the decoder's own bounds checks can catch the missing fields.
std::string DropPayloadTail(const std::string& frame, size_t tail_bytes) {
  std::string out = frame.substr(0, frame.size() - tail_bytes);
  const uint32_t len =
      static_cast<uint32_t>(out.size() - wire::kFrameHeaderBytes);
  for (int i = 0; i < 4; ++i) {
    out[4 + i] = static_cast<char>((len >> (8 * i)) & 0xff);
  }
  return out;
}

// Request tail: trace_id u64 + parent_span_id u64 + sampled bool.
constexpr size_t kRequestTraceTailBytes = 8 + 8 + 1;
// Response cost tail: cpu_ns + bytes_deserialized + catalog_interns +
// heap_bytes, one u64 each, written after the span list.
constexpr size_t kCostTailBytes = 4 * 8;

}  // namespace

TEST_F(WireFig3Test, OlderVersionFramesAreRefusedEverywhere) {
  wire::WireRequest request = ExampleRequest(MethodKind::kFastTopKEt);
  request.trace.trace_id = 0xabcdef0123456789ULL;
  request.trace.sampled = true;
  std::string request_frame;
  wire::EncodeQueryRequest(request, &request_frame);
  wire::WireResponse response;
  response.request_id = 9;
  response.serving_stamp = "r1:e2";
  response.result.entries = {{3, 2.5}, {1, 1.0}};
  std::string response_frame;
  wire::EncodeQueryResponse(response, &response_frame);
  ASSERT_EQ(static_cast<uint8_t>(request_frame[2]), wire::kWireVersion);
  ASSERT_EQ(wire::kMinWireVersion, wire::kWireVersion);

  shard::ShardFrameHandler handler(
      &db_, engine_.get(),
      [this]() {
        return std::shared_ptr<core::TopologyStore>(
            &store_, [](core::TopologyStore*) {});
      });
  for (const uint8_t version : {3, 4, 5}) {
    SCOPED_TRACE(static_cast<int>(version));
    std::string old_request = request_frame;
    std::string old_response = response_frame;
    old_request[2] = static_cast<char>(version);
    old_response[2] = static_cast<char>(version);

    for (const std::string* frame : {&old_request, &old_response}) {
      EXPECT_EQ(wire::InspectFrame(*frame, wire::kDefaultMaxFramePayload,
                                   nullptr),
                wire::FrameError::kUnsupportedVersion);
    }
    auto decoded_request = wire::DecodeQueryRequest(old_request, db_);
    ASSERT_FALSE(decoded_request.ok());
    EXPECT_EQ(decoded_request.status().code(), StatusCode::kUnimplemented);
    auto decoded_response = wire::DecodeQueryResponse(old_response);
    ASSERT_FALSE(decoded_response.ok());
    EXPECT_EQ(decoded_response.status().code(), StatusCode::kUnimplemented);

    // A shard answers an old peer with an error frame, never an abort.
    auto answer =
        wire::DecodeQueryResponse(handler.HandleOrEncodeError(old_request));
    ASSERT_TRUE(answer.ok()) << answer.status();
    EXPECT_NE(answer->error.code, wire::WireErrorCode::kOk);
    EXPECT_TRUE(answer->result.entries.empty());
  }

  // The current version still decodes; its neighbours do not inspect.
  EXPECT_TRUE(wire::DecodeQueryRequest(request_frame, db_).ok());
  EXPECT_TRUE(wire::DecodeQueryResponse(response_frame).ok());
  for (const uint8_t version : {2, 7}) {
    std::string bad = request_frame;
    bad[2] = static_cast<char>(version);
    EXPECT_EQ(wire::InspectFrame(bad, wire::kDefaultMaxFramePayload,
                                 nullptr),
              wire::FrameError::kUnsupportedVersion)
        << static_cast<int>(version);
  }
}

TEST_F(WireFig3Test, ResponseCostFieldsAndSpanCpuRoundTrip) {
  wire::WireResponse response;
  response.request_id = 33;
  response.result.entries = {{2, 4.0}, {7, 1.5}};
  response.result.stats.plan = "columnar";
  response.result.stats.cpu_ns = 0xdeadbeefULL;
  response.result.stats.bytes_deserialized = 55555;
  response.result.stats.catalog_interns = 17;
  response.result.stats.heap_bytes = 1 << 20;
  obs::Span span;
  span.span_id = obs::NewSpanId();
  span.parent_span_id = obs::NewSpanId();
  span.name = "shard.exec";
  span.cpu_ns = 424242;
  response.spans.push_back(span);
  std::string frame;
  wire::EncodeQueryResponse(response, &frame);

  auto decoded = wire::DecodeQueryResponse(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->result.stats.cpu_ns, response.result.stats.cpu_ns);
  EXPECT_EQ(decoded->result.stats.bytes_deserialized,
            response.result.stats.bytes_deserialized);
  EXPECT_EQ(decoded->result.stats.catalog_interns,
            response.result.stats.catalog_interns);
  EXPECT_EQ(decoded->result.stats.heap_bytes,
            response.result.stats.heap_bytes);
  ASSERT_EQ(decoded->spans.size(), 1u);
  EXPECT_EQ(decoded->spans[0].cpu_ns, 424242u);

  std::string again;
  wire::EncodeQueryResponse(*decoded, &again);
  EXPECT_EQ(frame, again);
}

TEST_F(WireFig3Test, CorruptedTraceFieldsErrorWithoutOverread) {
  wire::WireRequest request = ExampleRequest(MethodKind::kFullTop);
  request.trace.trace_id = 7;
  request.trace.sampled = true;
  std::string frame;
  wire::EncodeQueryRequest(request, &frame);

  // A frame whose payload ends inside the trace tail (length field
  // patched to match) is a truncation error, not a silent empty context.
  for (size_t strip = 1; strip <= kRequestTraceTailBytes; ++strip) {
    const std::string bad = DropPayloadTail(frame, strip);
    EXPECT_FALSE(wire::DecodeQueryRequest(bad, db_).ok()) << strip;
  }

  // A response whose span count claims more spans than the payload holds
  // fails before any allocation.
  wire::WireResponse response;
  response.request_id = 1;
  std::string resp_frame;
  wire::EncodeQueryResponse(response, &resp_frame);
  // The empty span list (count=0) sits just before the 32-byte cost tail.
  const size_t count_at = resp_frame.size() - kCostTailBytes - 4;
  for (size_t i = count_at; i < count_at + 4; ++i) {
    resp_frame[i] = static_cast<char>(0xff);
  }
  EXPECT_FALSE(wire::DecodeQueryResponse(resp_frame).ok());

  // Likewise a response truncated anywhere inside the cost tail is a
  // typed decode error, never a silent zero.
  std::string cost_frame;
  wire::EncodeQueryResponse(response, &cost_frame);
  for (size_t strip = 1; strip <= kCostTailBytes; ++strip) {
    EXPECT_FALSE(
        wire::DecodeQueryResponse(DropPayloadTail(cost_frame, strip)).ok())
        << strip;
  }
}

TEST_F(WireFig3Test, MalformedSweepOverSpanCarryingFrames) {
  // The byte-corruption sweep of MalformedBytesSweepNeverCrashesTheDecoders,
  // pointed at a response that actually piggybacks spans.
  wire::WireResponse response;
  response.request_id = 11;
  response.result.entries = {{3, 2.5}};
  obs::Span span;
  span.span_id = obs::NewSpanId();
  span.parent_span_id = obs::NewSpanId();
  span.name = "shard.exec";
  span.tags = "method=Full-Top,rows=5";
  span.duration_seconds = 0.004;
  response.spans.push_back(span);
  response.spans.push_back(obs::Span{});
  std::string frame;
  wire::EncodeQueryResponse(response, &frame);

  auto round = wire::DecodeQueryResponse(frame);
  ASSERT_TRUE(round.ok());
  ASSERT_EQ(round->spans.size(), 2u);
  EXPECT_EQ(round->spans[0].name, "shard.exec");
  std::string again;
  wire::EncodeQueryResponse(*round, &again);
  EXPECT_EQ(frame, again);

  for (size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(wire::DecodeQueryResponse(frame.substr(0, len)).ok())
        << len;
  }
  for (size_t pos = 0; pos < frame.size(); ++pos) {
    std::string bad = frame;
    bad[pos] = static_cast<char>(bad[pos] ^ (0x80 | (pos % 0x7f)));
    auto decoded = wire::DecodeQueryResponse(bad);
    if (decoded.ok()) {
      std::string reencoded;
      wire::EncodeQueryResponse(*decoded, &reencoded);
    }
  }
}

TEST_F(WireFig3Test, MalformedBytesSweepNeverCrashesTheDecoders) {
  // Decoders must return a typed error — never read past the buffer or
  // abort — for truncations and byte corruptions of valid frames.
  wire::WireRequest request = ExampleRequest(MethodKind::kFastTopKEt);
  std::string req_frame;
  wire::EncodeQueryRequest(request, &req_frame);

  wire::WireResponse response;
  response.request_id = 5;
  response.result.entries = {{3, 2.5}, {1, 1.0}};
  response.result.stats.plan = "scan";
  std::string resp_frame;
  wire::EncodeQueryResponse(response, &resp_frame);

  // Every truncation of either frame fails decode (prefixes are never
  // valid: the length field no longer matches).
  for (size_t len = 0; len < req_frame.size(); ++len) {
    EXPECT_FALSE(
        wire::DecodeQueryRequest(req_frame.substr(0, len), db_).ok())
        << len;
  }
  for (size_t len = 0; len < resp_frame.size(); ++len) {
    EXPECT_FALSE(wire::DecodeQueryResponse(resp_frame.substr(0, len)).ok())
        << len;
  }

  // Every single-byte corruption decodes to *something* (an error, or a
  // harmlessly different message) without crashing or overreading. A
  // deterministic xor pattern keeps the sweep reproducible.
  for (size_t pos = 0; pos < req_frame.size(); ++pos) {
    std::string bad = req_frame;
    bad[pos] = static_cast<char>(bad[pos] ^ (0x80 | (pos % 0x7f)));
    auto decoded = wire::DecodeQueryRequest(bad, db_);
    if (decoded.ok()) {
      // Re-encoding whatever survived must stay within bounds too.
      std::string again;
      wire::EncodeQueryRequest(*decoded, &again);
    }
  }
  for (size_t pos = 0; pos < resp_frame.size(); ++pos) {
    std::string bad = resp_frame;
    bad[pos] = static_cast<char>(bad[pos] ^ (0x80 | (pos % 0x7f)));
    auto decoded = wire::DecodeQueryResponse(bad);
    if (decoded.ok()) {
      std::string again;
      wire::EncodeQueryResponse(*decoded, &again);
    }
  }
}

TEST_F(WireFig3Test, InvalidEtSideOrderIsRejectedAtDecode) {
  // The engine CHECK-fails on anything but two sides valued 0/1; the
  // decoder must turn such frames into InvalidArgument, never an abort.
  wire::WireRequest request = ExampleRequest(MethodKind::kFastTopKEt);
  request.options.et_side_order = {5, 0};
  std::string frame;
  wire::EncodeQueryRequest(request, &frame);
  EXPECT_FALSE(wire::DecodeQueryRequest(frame, db_).ok());

  request.options.et_side_order = {0};
  frame.clear();
  wire::EncodeQueryRequest(request, &frame);
  EXPECT_FALSE(wire::DecodeQueryRequest(frame, db_).ok());
}

TEST_F(WireFig3Test, DecodeResolvesAgainstTheCatalogAndRejectsUnknowns) {
  wire::WireRequest request = ExampleRequest(MethodKind::kFullTop);
  request.query.entity_set1 = "Nope";
  std::string frame;
  wire::EncodeQueryRequest(request, &frame);
  auto decoded = wire::DecodeQueryRequest(frame, db_);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Canonical text format (RequestParser::Format)
// ---------------------------------------------------------------------------

class WireTextTest : public WireFig3Test {
 protected:
  service::RequestParser Parser() const {
    return service::RequestParser(&db_);
  }
};

TEST_F(WireTextTest, FormatIsACanonicalFixedPoint) {
  service::RequestParser parser = Parser();
  const std::string line =
      "TOPK k=10 method=fast-topk-et scheme=domain set1=Protein "
      "pred1=DESC.ct('enzyme') set2=DNA pred2=TYPE='mRNA'";
  auto parsed = parser.Parse(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status();

  auto formatted = service::RequestParser::Format(*parsed);
  ASSERT_TRUE(formatted.ok()) << formatted.status();
  EXPECT_EQ(*formatted,
            "TOPK method=fast-topk-et k=10 scheme=domain set1=Protein "
            "pred1=DESC.ct('enzyme') set2=DNA pred2=TYPE='mRNA'");

  // Parse(Format(x)) reproduces x; Format is then a fixed point.
  auto reparsed = parser.Parse(*formatted);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  auto reformatted = service::RequestParser::Format(*reparsed);
  ASSERT_TRUE(reformatted.ok());
  EXPECT_EQ(*formatted, *reformatted);
}

TEST_F(WireTextTest, EveryMethodRoundTripsThroughTheTextGrammar) {
  service::RequestParser parser = Parser();
  for (MethodKind method : kAllMethods) {
    service::ParsedRequest request;
    request.method = method;
    request.query.entity_set1 = "Protein";
    request.query.pred1 = storage::MakeContainsKeyword(
        db_.GetTable("Protein")->schema(), "DESC", "enzyme");
    request.query.entity_set2 = "DNA";
    request.query.pred2 = storage::MakeAnd(
        storage::MakeEquals(db_.GetTable("DNA")->schema(), "TYPE",
                            storage::Value("mRNA")),
        storage::MakeInt64Between(db_.GetTable("DNA")->schema(), "ID", 0,
                                  1000000));
    request.query.scheme = core::RankScheme::kRare;
    request.query.k = 5;
    request.query.exclude_weak = true;

    auto line = service::RequestParser::Format(request);
    ASSERT_TRUE(line.ok()) << line.status();
    auto reparsed = parser.Parse(*line);
    ASSERT_TRUE(reparsed.ok())
        << *line << " -> " << reparsed.status().ToString();
    EXPECT_EQ(reparsed->method, method);
    EXPECT_EQ(reparsed->query.scheme, core::RankScheme::kRare);
    EXPECT_TRUE(reparsed->query.exclude_weak);
    EXPECT_EQ(WireImage(reparsed->query.pred1),
              WireImage(request.query.pred1));
    EXPECT_EQ(WireImage(reparsed->query.pred2),
              WireImage(request.query.pred2));
    auto again = service::RequestParser::Format(*reparsed);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*line, *again) << engine::MethodKindToString(method);
  }
}

TEST_F(WireTextTest, FormatRejectsGrammarlessPredicates) {
  service::ParsedRequest request;
  request.query.entity_set1 = "Protein";
  request.query.entity_set2 = "DNA";
  const storage::TableSchema& schema = db_.GetTable("Protein")->schema();
  request.query.pred1 = storage::MakeOr(
      storage::MakeContainsKeyword(schema, "DESC", "enzyme"),
      storage::MakeContainsKeyword(schema, "DESC", "kinase"));
  auto line = service::RequestParser::Format(request);
  EXPECT_FALSE(line.ok());
  EXPECT_NE(line.status().message().find("pred1"), std::string::npos);
}

TEST_F(WireTextTest, ParseErrorsNameTheFieldAndByteOffset) {
  service::RequestParser parser = Parser();

  // Unterminated quote.
  auto r1 = parser.Parse("TOPK set1=Protein pred1=DESC.ct('enzyme");
  ASSERT_FALSE(r1.ok());
  EXPECT_NE(r1.status().message().find("unterminated quote"),
            std::string::npos);
  EXPECT_NE(r1.status().message().find("byte 32"), std::string::npos)
      << r1.status().message();

  // Unknown method, with field name and offset of the value.
  const std::string line2 = "TOPK set1=Protein set2=DNA method=warp9";
  auto r2 = parser.Parse(line2);
  ASSERT_FALSE(r2.ok());
  EXPECT_NE(r2.status().message().find("unknown method"), std::string::npos);
  EXPECT_NE(r2.status().message().find("field 'method'"), std::string::npos);
  EXPECT_NE(r2.status().message().find(
                "byte " + std::to_string(line2.find("warp9"))),
            std::string::npos)
      << r2.status().message();

  // between() arity.
  const std::string line3 =
      "TOPK set1=Protein set2=DNA pred2=ID.between(1,2,3)";
  auto r3 = parser.Parse(line3);
  ASSERT_FALSE(r3.ok());
  EXPECT_NE(r3.status().message().find("exactly 2 bounds"),
            std::string::npos);
  EXPECT_NE(r3.status().message().find("field 'pred2'"), std::string::npos);

  // Unknown field with its offset.
  const std::string line4 = "TOPK set1=Protein set2=DNA turbo=1";
  auto r4 = parser.Parse(line4);
  ASSERT_FALSE(r4.ok());
  EXPECT_NE(r4.status().message().find("unknown field 'turbo'"),
            std::string::npos);
  EXPECT_NE(r4.status().message().find(
                "byte " + std::to_string(line4.find("turbo"))),
            std::string::npos);

  // Unknown column inside a predicate names the pred field.
  auto r5 = parser.Parse("TOPK set1=Protein set2=DNA pred1=NOPE.ct('x')");
  ASSERT_FALSE(r5.ok());
  EXPECT_NE(r5.status().message().find("no column 'NOPE'"),
            std::string::npos);
  EXPECT_NE(r5.status().message().find("field 'pred1'"), std::string::npos);

  // Bad k.
  auto r6 = parser.Parse("TOPK set1=Protein set2=DNA k=lots");
  ASSERT_FALSE(r6.ok());
  EXPECT_NE(r6.status().message().find("field 'k'"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Transport seam: loopback identity, failure tolerance, timeouts
// ---------------------------------------------------------------------------

class WireTransportTest : public WireFig3Test {
 protected:
  std::unique_ptr<shard::ScatterGatherExecutor> MakeSharded(
      size_t n, shard::ScatterGatherConfig config =
                    shard::ScatterGatherConfig{}) {
    auto sharded = std::make_shared<shard::ShardedTopologyStore>(n);
    core::TopologyBuilder builder(&db_, schema_.get(), view_.get());
    core::BuildConfig build;
    build.max_path_length = 3;
    build.table_namespace = "w" + std::to_string(n) + ".";
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
        engine::SqlBaselineOptions{}, config);
  }

  engine::TopologyQuery ScatteringQuery() const {
    engine::TopologyQuery q;
    q.entity_set1 = "Protein";
    q.entity_set2 = "DNA";
    q.scheme = core::RankScheme::kFreq;
    q.k = 10;
    return q;
  }
};

TEST_F(WireTransportTest, LoopbackHandleMatchesDirectEngineExecution) {
  auto executor = MakeSharded(4);
  wire::WireRequest sub;
  sub.query = ScatteringQuery();
  sub.method = MethodKind::kFullTop;
  sub.options.skip_pruned_checks = true;
  std::string frame;
  wire::EncodeQueryRequest(sub, &frame);

  for (size_t shard = 0; shard < 4; ++shard) {
    auto response_frame =
        executor->default_transport().RoundTrip(shard, frame);
    ASSERT_TRUE(response_frame.ok()) << response_frame.status();
    auto response = wire::DecodeQueryResponse(*response_frame);
    ASSERT_TRUE(response.ok());
    ASSERT_TRUE(response->error.ok());

    auto direct = executor->shard_engine(shard).Execute(
        sub.query, sub.method, sub.options);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(response->result.entries, direct->entries) << shard;
  }
}

TEST_F(WireTransportTest,
       ScatterOverLoopbackIsByteIdenticalToSingleStoreAtEveryShardCount) {
  // The acceptance contract: the wire-encoded scatter path returns
  // results identical to the direct single-store engine for every method
  // at N ∈ {1, 2, 4, 7}.
  for (size_t n : {1u, 2u, 4u, 7u}) {
    auto executor = MakeSharded(n);
    for (MethodKind method : kAllMethods) {
      auto expected = engine_->Execute(ScatteringQuery(), method);
      auto actual = executor->Execute(ScatteringQuery(), method);
      ASSERT_EQ(expected.ok(), actual.ok())
          << engine::MethodKindToString(method) << " @" << n;
      if (!expected.ok()) continue;
      EXPECT_EQ(expected->entries, actual->entries)
          << engine::MethodKindToString(method) << " @" << n << " shards";
      EXPECT_FALSE(actual->partial);
    }
    if (n > 1) {
      auto stats = executor->GetScatterStats();
      EXPECT_GT(stats.transport_subqueries, 0u) << n;
      EXPECT_GT(stats.transport_bytes_sent, 0u);
      EXPECT_GT(stats.transport_bytes_received, 0u);
      EXPECT_EQ(stats.failed_subqueries, 0u);
      EXPECT_EQ(stats.degraded_queries, 0u);
    }
  }
}

/// Delegates to the real transport except for one shard, which fails.
class FailingTransport : public wire::ShardTransport {
 public:
  FailingTransport(wire::ShardTransport* inner, size_t failing_shard)
      : inner_(inner), failing_shard_(failing_shard) {}

  size_t num_shards() const override { return inner_->num_shards(); }

  std::future<Result<std::string>> Send(size_t shard,
                                        std::string request) override {
    if (shard == failing_shard_) {
      std::promise<Result<std::string>> broken;
      broken.set_value(Status::Internal("shard process crashed"));
      return broken.get_future();
    }
    return inner_->Send(shard, std::move(request));
  }

 private:
  wire::ShardTransport* inner_;
  size_t failing_shard_;
};

TEST_F(WireTransportTest, FailedShardDegradesToPartialInsteadOfFailing) {
  auto executor = MakeSharded(4);

  // Find a shard the query actually scatters to (not the designated one):
  // run once cleanly to learn the fan-out, then fail each non-designated
  // shard in turn.
  auto clean = executor->Execute(ScatteringQuery(), MethodKind::kFullTop);
  ASSERT_TRUE(clean.ok());
  ASSERT_GT(executor->GetScatterStats().transport_subqueries, 0u)
      << "fixture must scatter for this test to bite";

  bool saw_degraded = false;
  for (size_t failing = 0; failing < 4; ++failing) {
    FailingTransport failing_transport(executor->transport(), failing);
    executor->set_transport(&failing_transport);
    auto result = executor->Execute(ScatteringQuery(), MethodKind::kFullTop);
    executor->set_transport(nullptr);

    ASSERT_TRUE(result.ok()) << "failing shard " << failing << ": "
                             << result.status().ToString();
    if (result->partial) {
      saw_degraded = true;
      // The degraded answer is a subset of the clean one, still ranked.
      EXPECT_LE(result->entries.size(), clean->entries.size());
      for (size_t i = 1; i < result->entries.size(); ++i) {
        EXPECT_GE(result->entries[i - 1].score, result->entries[i].score);
      }
      EXPECT_NE(result->stats.plan.find("PARTIAL"), std::string::npos);
    } else {
      // The failing shard was the designated one (runs inline, never
      // crosses the transport) or not routed; the answer stays complete.
      EXPECT_EQ(result->entries, clean->entries);
    }
  }
  EXPECT_TRUE(saw_degraded);
  EXPECT_GT(executor->GetScatterStats().failed_subqueries, 0u);
  EXPECT_GT(executor->GetScatterStats().degraded_queries, 0u);
}

TEST_F(WireTransportTest, StrictModePropagatesShardFailures) {
  shard::ScatterGatherConfig config;
  config.tolerate_shard_failures = false;
  auto executor = MakeSharded(4, config);

  // Fail every shard; whichever non-designated shard is routed first
  // surfaces its error.
  class AllFail : public wire::ShardTransport {
   public:
    explicit AllFail(size_t n) : n_(n) {}
    size_t num_shards() const override { return n_; }
    std::future<Result<std::string>> Send(size_t, std::string) override {
      std::promise<Result<std::string>> broken;
      broken.set_value(Status::Internal("shard down"));
      return broken.get_future();
    }
   private:
    size_t n_;
  } all_fail(4);
  executor->set_transport(&all_fail);
  auto result = executor->Execute(ScatteringQuery(), MethodKind::kFullTop);
  executor->set_transport(nullptr);
  EXPECT_FALSE(result.ok());
}

/// Answers correctly but slower than the configured deadline.
class SlowTransport : public wire::ShardTransport {
 public:
  SlowTransport(wire::ShardTransport* inner, double delay_seconds)
      : inner_(inner), delay_seconds_(delay_seconds) {}

  size_t num_shards() const override { return inner_->num_shards(); }

  std::future<Result<std::string>> Send(size_t shard,
                                        std::string request) override {
    wire::ShardTransport* inner = inner_;
    const double delay = delay_seconds_;
    return std::async(std::launch::async,
                      [inner, shard, request = std::move(request),
                       delay]() -> Result<std::string> {
                        std::this_thread::sleep_for(
                            std::chrono::duration<double>(delay));
                        return inner->Send(shard, std::move(request)).get();
                      });
  }

 private:
  wire::ShardTransport* inner_;
  double delay_seconds_;
};

TEST_F(WireTransportTest, TimedOutShardsAreSkippedUnderTheDeadline) {
  shard::ScatterGatherConfig config;
  config.subquery_timeout_seconds = 0.05;
  auto executor = MakeSharded(4, config);

  SlowTransport slow(executor->transport(), 0.5);
  executor->set_transport(&slow);
  auto result = executor->Execute(ScatteringQuery(), MethodKind::kFullTop);
  executor->set_transport(nullptr);

  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->partial);
  auto stats = executor->GetScatterStats();
  EXPECT_GT(stats.timed_out_subqueries, 0u);
  EXPECT_GT(stats.degraded_queries, 0u);
}

TEST_F(WireTransportTest, PartialResultsAreNeverCached) {
  auto executor = MakeSharded(4);

  // Find a shard whose failure actually degrades this query.
  size_t failing = SIZE_MAX;
  for (size_t s = 0; s < 4 && failing == SIZE_MAX; ++s) {
    FailingTransport probe(executor->transport(), s);
    executor->set_transport(&probe);
    auto r = executor->Execute(ScatteringQuery(), MethodKind::kFullTop);
    executor->set_transport(nullptr);
    if (r.ok() && r->partial) failing = s;
  }
  ASSERT_NE(failing, SIZE_MAX) << "fixture never degraded";

  FailingTransport broken(executor->transport(), failing);
  service::ServiceConfig config;
  config.num_threads = 2;
  service::TopologyService svc(executor.get(), &db_, config);

  executor->set_transport(&broken);
  auto first = Serve(svc, ScatteringQuery(), MethodKind::kFullTop);
  ASSERT_TRUE(first.error.ok());
  EXPECT_TRUE(first.result.partial);
  // The degraded answer must not have been cached...
  auto second = Serve(svc, ScatteringQuery(), MethodKind::kFullTop);
  ASSERT_TRUE(second.error.ok());
  EXPECT_FALSE(second.from_cache);

  // ... so the moment the shard recovers, the full ranking is served and
  // (only then) cached.
  executor->set_transport(nullptr);
  auto healed = Serve(svc, ScatteringQuery(), MethodKind::kFullTop);
  ASSERT_TRUE(healed.error.ok());
  EXPECT_FALSE(healed.from_cache);
  EXPECT_FALSE(healed.result.partial);
  auto cached = Serve(svc, ScatteringQuery(), MethodKind::kFullTop);
  ASSERT_TRUE(cached.error.ok());
  EXPECT_TRUE(cached.from_cache);
  EXPECT_FALSE(cached.result.partial);
  svc.Shutdown();
}

TEST_F(WireTransportTest, TripleCollectOverLoopbackMatchesSingleStore) {
  engine::TripleQuery triple;
  triple.entity_set1 = "Protein";
  triple.entity_set2 = "Unigene";
  triple.entity_set3 = "DNA";
  auto expected =
      engine::ExecuteTripleQuery(&db_, &store_, *schema_, *view_, triple);
  ASSERT_TRUE(expected.ok());

  for (size_t n : {2u, 4u}) {
    auto executor = MakeSharded(n);
    auto actual = executor->ExecuteTriple(triple);
    ASSERT_TRUE(actual.ok()) << n;
    EXPECT_FALSE(actual->partial);
    ASSERT_EQ(actual->entries.size(), expected->entries.size());
    for (size_t i = 0; i < expected->entries.size(); ++i) {
      EXPECT_EQ(actual->entries[i].tid, expected->entries[i].tid);
      EXPECT_EQ(actual->entries[i].frequency, expected->entries[i].frequency);
    }
  }
}

}  // namespace
}  // namespace tsb
