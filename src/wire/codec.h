#ifndef TSB_WIRE_CODEC_H_
#define TSB_WIRE_CODEC_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "engine/nquery.h"
#include "storage/catalog.h"
#include "wire/message.h"

namespace tsb {
namespace wire {

/// The compact binary codec: every message is one length-prefixed frame
///
///   [ 'T' 'W' | version u8 | kind u8 | payload length u32 LE | payload ]
///
/// and every number in the payload is a fixed-width little-endian bit
/// pattern (common/binary_io.h), so encode → decode → encode is
/// byte-identical — including double scores and ExecStats timings.
/// Decoders reject bad magic, unknown versions/kinds, length mismatches,
/// and trailing payload bytes.
///
/// Encoders always emit kWireVersion and decoders accept only it
/// (kMinWireVersion == kWireVersion): a frame of any other version is
/// FrameError::kUnsupportedVersion, never a best-effort partial decode.
///
/// Requests carry predicates as structural trees
/// (storage::DecodePredicate), re-resolved against the decoding side's
/// catalog — the seam that lets a sub-query cross a process boundary to a
/// shard holding its own replica of the schema.
///
/// The human-readable twin of this codec is the RequestParser text grammar
/// (service/request_parser.h): RequestParser::Format renders a parsed
/// request back to its canonical line.

/// Binary message kinds (the `kind` header byte). Distinct from the
/// streaming FrameKind of wire/message.h: these name what a frame's
/// payload *is*, FrameKind names a frame's role in a response stream.
enum class MessageKind : uint8_t {
  kQueryRequest = 0,
  kQueryResponse = 1,
  kTripleCollectRequest = 2,
  kTripleCollectResponse = 3,
  kAdminRequest = 4,
  kAdminResponse = 5,
  kMutationRequest = 6,
  kMutationResponse = 7,
};

/// Bytes of every frame header: magic 'T' 'W', version u8, kind u8,
/// payload length u32 LE.
inline constexpr size_t kFrameHeaderBytes = 8;

/// Default per-frame payload cap. Far above any real frame (the largest
/// responses are full AllTops scans of one pair), yet small enough that a
/// corrupted or hostile length field cannot make a receiver allocate
/// gigabytes before noticing.
inline constexpr size_t kDefaultMaxFramePayload = 64u << 20;  // 64 MiB.

/// Typed outcome of validating a (possibly still-arriving) frame header —
/// the contract a streaming receiver dispatches on without string-matching
/// Status messages.
enum class FrameError : uint8_t {
  kOk = 0,
  /// Every byte seen so far is consistent with a valid frame, but the
  /// frame is not complete yet. A stream reader keeps reading; a decoder
  /// holding the whole message treats this as malformed (truncated).
  kIncomplete = 1,
  /// Bad magic, unknown kind, or a length field beyond the cap — the
  /// bytes can never become a valid frame; a connection carrying them is
  /// poisoned and must be closed.
  kMalformedFrame = 2,
  /// Valid magic but a version other than kWireVersion. Distinct from
  /// malformed so a peer on another version can be told "upgrade me"
  /// instead of "you sent garbage".
  kUnsupportedVersion = 3,
};

const char* FrameErrorToString(FrameError error);

/// The decoded fixed-size header of one frame.
struct FrameHeader {
  uint8_t version = 0;
  MessageKind kind = MessageKind::kQueryRequest;
  size_t payload_bytes = 0;
  size_t frame_bytes = 0;  // kFrameHeaderBytes + payload_bytes.
};

/// Validates as much of a frame as `buffer` holds, never reading past it:
/// returns kOk when `buffer` starts with one complete valid frame,
/// kIncomplete when more bytes are needed (streaming reads), and a typed
/// error otherwise. `header` (optional) is filled whenever at least the
/// full header was seen and passed validation — including the kIncomplete
/// case, so a socket reader can size its payload read. `max_payload_bytes`
/// caps the length field (kMalformedFrame beyond it).
FrameError InspectFrame(std::string_view buffer, size_t max_payload_bytes,
                        FrameHeader* header);

/// The Status rendering of a frame-level error: kUnsupportedVersion maps
/// to kUnimplemented, everything else to kInvalidArgument, so callers that
/// only speak Status still distinguish "upgrade needed" from "garbage".
Status FrameErrorToStatus(FrameError error);

/// Validates the frame header and returns the message kind without
/// decoding the payload (transport dispatch). The frame must be complete.
Result<MessageKind> PeekMessageKind(std::string_view frame);

/// --- 2-query evaluation calls ---------------------------------------------

void EncodeQueryRequest(const WireRequest& request, std::string* out);
Result<WireRequest> DecodeQueryRequest(std::string_view frame,
                                       const storage::Catalog& db);

void EncodeQueryResponse(const WireResponse& response, std::string* out);
Result<WireResponse> DecodeQueryResponse(std::string_view frame);

/// Reads only the serving stamp of an encoded kQueryResponse frame
/// (placed right after the request id for exactly this purpose), without
/// decoding the result payload — the replica layer's cheap path to
/// replica provenance and shard epoch. Non-query-response frames (e.g.
/// triple-collect responses) fail the frame-kind check.
Result<std::string> PeekResponseStamp(std::string_view frame);

/// --- 3-query scatter phase -------------------------------------------------
///
/// A sharded 3-query resolves its slot selections once, then asks every
/// shard for its slice of the related-pair relation. The request encodes
/// the *resolved* selection (entity-set names, selected ids, slot-pair
/// orientation), so the shard side does no predicate evaluation of its
/// own; the response is the shard's TripleRelatedSets slice.

void EncodeTripleCollectRequest(const engine::TripleSelection& selection,
                                std::string* out);
Result<engine::TripleSelection> DecodeTripleCollectRequest(
    std::string_view frame, const storage::Catalog& db);

void EncodeTripleCollectResponse(const engine::TripleRelatedSets& related,
                                 std::string* out);
Result<engine::TripleRelatedSets> DecodeTripleCollectResponse(
    std::string_view frame);

/// --- Admin channel ---------------------------------------------------------

void EncodeAdminRequest(const AdminRequest& request, std::string* out);
Result<AdminRequest> DecodeAdminRequest(std::string_view frame);

void EncodeAdminResponse(const AdminResponse& response, std::string* out);
Result<AdminResponse> DecodeAdminResponse(std::string_view frame);

/// --- Mutation channel (v5) --------------------------------------------------
///
/// The batch payload rides as one nested MutationBatch encoding
/// (mutation/mutation.h), so the WAL record body and the wire body share
/// one format.

void EncodeMutationRequest(const MutationWireRequest& request,
                           std::string* out);
Result<MutationWireRequest> DecodeMutationRequest(std::string_view frame);

void EncodeMutationResponse(const MutationWireResponse& response,
                            std::string* out);
Result<MutationWireResponse> DecodeMutationResponse(std::string_view frame);

}  // namespace wire
}  // namespace tsb

#endif  // TSB_WIRE_CODEC_H_
