#ifndef TSB_ENGINE_RESULT_IO_H_
#define TSB_ENGINE_RESULT_IO_H_

#include <string>

#include "common/binary_io.h"
#include "common/result.h"
#include "engine/nquery.h"
#include "engine/query.h"

namespace tsb {
namespace engine {

/// Binary (de)serialization of the engine's result payloads — the halves
/// the wire codec (src/wire/codec.h) assembles into response frames.
/// Numbers travel as exact bit patterns (common/binary_io.h), so
/// encode → decode → encode is byte-identical and decoded scores compare
/// equal to the originals under operator== — the property the sharded
/// executor's wire path relies on to stay byte-identical with direct
/// per-shard execution.

void EncodeExecStats(const ExecStats& stats, std::string* out);
Result<ExecStats> DecodeExecStats(BinaryReader* in);

void EncodeQueryResult(const QueryResult& result, std::string* out);
Result<QueryResult> DecodeQueryResult(BinaryReader* in);

void EncodeTripleQueryResult(const TripleQueryResult& result,
                             std::string* out);
Result<TripleQueryResult> DecodeTripleQueryResult(BinaryReader* in);

/// The per-slot-pair related-entity-pair sets of a 3-query's scatter phase
/// (the payload a shard returns for a triple-collect sub-query).
void EncodeTripleRelatedSets(const TripleRelatedSets& related,
                             std::string* out);
Result<TripleRelatedSets> DecodeTripleRelatedSets(BinaryReader* in);

}  // namespace engine
}  // namespace tsb

#endif  // TSB_ENGINE_RESULT_IO_H_
