// Seeded inputs of the three workloads: read request lists and the
// write_mix mutation schedule. Everything here is a pure function of the
// seed (and, for writes, of the entity ids the generated database holds),
// so the same seed always yields byte-identical inputs — the self-test
// checks this through Digest().
#ifndef PERFBENCH_REQUESTS_H_
#define PERFBENCH_REQUESTS_H_

#include <cstdint>
#include <cstddef>
#include <string>
#include <vector>

#include "common.h"
#include "mutation/mutation.h"

namespace perfbench {

/// Method code of a 3-query in a ReadSpec (engine methods use their
/// engine::MethodKind value, 0..8).
inline constexpr uint8_t kTripleMethod = 100;

/// One read request in benchmark terms; turned into a wire request (or a
/// 3-query) against a concrete catalog by the workload. Fields are
/// canonical — k is fixed for methods that ignore it — so two equal specs
/// are exactly one service cache key.
struct ReadSpec {
  uint8_t pair = 0;     // Index into the workload's pair table.
  uint8_t method = 0;   // engine::MethodKind, or kTripleMethod.
  int8_t word1 = -1;    // Vocabulary index; -1 = unconstrained side.
  int8_t word2 = -1;
  int8_t word3 = -1;    // Third side of a 3-query.
  uint8_t scheme = 0;   // core::RankScheme.
  uint8_t k = 10;

  /// Dense key: equal keys <=> equal specs.
  uint64_t Key() const;
};

/// The entity-set pairs and keyword vocabulary a workload draws from.
struct ReadSpace {
  std::vector<std::pair<std::string, std::string>> pairs;
  std::vector<double> pair_weights;
  std::vector<std::string> words;
  double unconstrained_share = 0.1;  // Per side.
  std::vector<uint8_t> methods;       // engine::MethodKind values.
  double triple_share = 0.0;
  std::vector<std::string> triple_sets;  // Three entity sets.
};

/// The 23 words the Biozon generator writes into DESC columns: its 20
/// flavor words plus the three calibrated selectivity keywords.
const std::vector<std::string>& BiozonVocabulary();

/// paper_mix: 2-queries over the eight precomputed methods, pairs weighted
/// toward Protein-Interaction and Protein-DNA.
ReadSpace PaperMixSpace();
/// fleet_rpc: all nine methods and a fixed 3-query share on the Figure-3
/// fixture the shard servers serve.
ReadSpace FleetSpace();
/// write_mix: the two mutated pairs, drawn uniformly.
ReadSpace WriteMixSpace();

/// The request lists, fixed-length for a given --seconds: the length is
/// seconds x a per-workload rate sized to today's throughput on a 4-core
/// host, so a faster program finishes the same work sooner.
///
/// paper_mix: a pool of shapes drawn from PaperMixSpace, picked with Zipf
/// skew so that about 30% of the list repeats an earlier shape (the
/// service cache hit ratio, kept away from the 50% and 99% boundaries).
std::vector<ReadSpec> PaperMixReads(uint64_t seed, double seconds);
/// fleet_rpc: independent draws (the router cache is off).
std::vector<ReadSpec> FleetReads(uint64_t seed, double seconds);
/// write_mix: independent draws over a large shape space, so most reads
/// miss and run on overlay epochs.
std::vector<ReadSpec> WriteMixReads(uint64_t seed, double seconds);

/// Share of requests whose spec appeared at most `window` positions
/// earlier: the hit ratio of a cache replaying the list in order whose
/// entries live `window` requests (SIZE_MAX: never evicted).
double RepeatShare(const std::vector<ReadSpec>& reads,
                   size_t window = SIZE_MAX);

uint64_t DigestReads(const std::vector<ReadSpec>& reads);

/// Existing entity ids the write schedule may reference.
struct WriteTargets {
  std::vector<int64_t> proteins;
  std::vector<int64_t> dnas;
};

/// write_mix batches, 1-4 ops each: add Interaction + Interacts_p, add DNA
/// + Encodes, remove an edge an earlier batch added, DESC updates. Every
/// fifth batch is DESC-only (it re-stages no pair and costs ~20x less),
/// which keeps that cheap class far from both the p50 and the p90
/// boundary of write latency.
std::vector<tsb::mutation::MutationBatch> MakeWriteSchedule(
    const WriteTargets& targets, uint64_t seed, size_t batches);

/// The write_mix schedule: a warm-up prefix the set-up applies back to
/// back (through several compaction folds), then the timed part, one
/// batch every kWriteInterval seconds for --seconds.
inline constexpr size_t kWarmupBatches = 40;
inline constexpr double kWriteIntervalSeconds = 1.0 / 7.0;
size_t TimedWriteBatches(double seconds);

/// True when a batch re-stages no pair (DESC updates only).
bool IsAttributeOnly(const tsb::mutation::MutationBatch& batch);

uint64_t DigestSchedule(
    const std::vector<tsb::mutation::MutationBatch>& schedule);

}  // namespace perfbench

#endif  // PERFBENCH_REQUESTS_H_
