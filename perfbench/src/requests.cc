#include "requests.h"

#include <algorithm>
#include <unordered_map>

#include "engine/query.h"

namespace perfbench {

using tsb::mutation::MutationBatch;

uint64_t ReadSpec::Key() const {
  return static_cast<uint64_t>(pair) |
         static_cast<uint64_t>(method) << 8 |
         static_cast<uint64_t>(static_cast<uint8_t>(word1)) << 16 |
         static_cast<uint64_t>(static_cast<uint8_t>(word2)) << 24 |
         static_cast<uint64_t>(static_cast<uint8_t>(word3)) << 32 |
         static_cast<uint64_t>(scheme) << 40 |
         static_cast<uint64_t>(k) << 48;
}

const std::vector<std::string>& BiozonVocabulary() {
  static const std::vector<std::string> words = {
      "ubiquitin", "enzyme",    "conjugating", "variant",  "homolog",
      "putative",  "receptor",  "transferase", "membrane", "nuclear",
      "ribosomal", "zinc",      "finger",      "domain",   "transcription",
      "factor",    "synthase",  "polymerase",  "helicase", "mitochondrial",
      "kinase",    "binding",   "cellular"};
  return words;
}

namespace {

const std::vector<uint8_t>& PrecomputedMethods() {
  using tsb::engine::MethodKind;
  static const std::vector<uint8_t> methods = {
      static_cast<uint8_t>(MethodKind::kFullTop),
      static_cast<uint8_t>(MethodKind::kFastTop),
      static_cast<uint8_t>(MethodKind::kFullTopK),
      static_cast<uint8_t>(MethodKind::kFastTopK),
      static_cast<uint8_t>(MethodKind::kFullTopKEt),
      static_cast<uint8_t>(MethodKind::kFastTopKEt),
      static_cast<uint8_t>(MethodKind::kFullTopKOpt),
      static_cast<uint8_t>(MethodKind::kFastTopKOpt)};
  return methods;
}

int8_t DrawWord(const ReadSpace& space, Rng* rng) {
  if (rng->Chance(space.unconstrained_share)) return -1;
  return static_cast<int8_t>(rng->Below(space.words.size()));
}

ReadSpec DrawSpec(const ReadSpace& space, Rng* rng) {
  static const uint8_t kKs[] = {5, 10, 20};
  ReadSpec spec;
  spec.scheme = static_cast<uint8_t>(rng->Below(3));
  spec.word1 = DrawWord(space, rng);
  spec.word2 = DrawWord(space, rng);
  if (space.triple_share > 0.0 && rng->Chance(space.triple_share)) {
    spec.method = kTripleMethod;
    spec.word3 = DrawWord(space, rng);
    spec.scheme = 0;
    return spec;
  }
  spec.pair = static_cast<uint8_t>(PickWeighted(space.pair_weights, rng));
  spec.method = space.methods[rng->Below(space.methods.size())];
  if (tsb::engine::MethodIsTopK(
          static_cast<tsb::engine::MethodKind>(spec.method))) {
    spec.k = kKs[rng->Below(3)];
  }
  return spec;
}

}  // namespace

ReadSpace PaperMixSpace() {
  ReadSpace space;
  space.pairs = {{"Protein", "Interaction"}, {"Protein", "DNA"},
                 {"Protein", "Unigene"},     {"DNA", "Interaction"},
                 {"Protein", "Family"},      {"DNA", "Unigene"}};
  space.pair_weights = {0.3, 0.3, 0.1, 0.1, 0.1, 0.1};
  space.words = BiozonVocabulary();
  space.methods = PrecomputedMethods();
  return space;
}

ReadSpace FleetSpace() {
  ReadSpace space;
  space.pairs = {{"Protein", "DNA"}, {"Protein", "Unigene"},
                 {"Unigene", "DNA"}};
  space.pair_weights = {1.0, 1.0, 1.0};
  // Tokens of the Figure-3 descriptions, plus one that matches nothing.
  space.words = {"ubiquitin", "conjugating", "enzyme", "protein",
                 "mrna",      "e2s",         "homo",   "kinase"};
  space.methods = PrecomputedMethods();
  space.methods.insert(
      space.methods.begin(),
      static_cast<uint8_t>(tsb::engine::MethodKind::kSql));
  space.triple_share = 0.10;
  space.triple_sets = {"Protein", "Unigene", "DNA"};
  return space;
}

ReadSpace WriteMixSpace() {
  ReadSpace space;
  space.pairs = {{"Protein", "Interaction"}, {"Protein", "DNA"}};
  space.pair_weights = {1.0, 1.0};
  space.words = BiozonVocabulary();
  space.methods = PrecomputedMethods();
  return space;
}

namespace {

std::vector<ReadSpec> MakeSkewedReads(const ReadSpace& space, uint64_t seed,
                                      size_t n, size_t pool, double zipf_s) {
  Rng rng(seed ^ 0x7061706572ull);
  std::vector<ReadSpec> shapes;
  shapes.reserve(pool);
  for (size_t i = 0; i < pool; ++i) shapes.push_back(DrawSpec(space, &rng));
  Zipf zipf(pool, zipf_s);
  std::vector<ReadSpec> reads;
  reads.reserve(n);
  for (size_t i = 0; i < n; ++i) reads.push_back(shapes[zipf.Sample(&rng)]);
  return reads;
}

std::vector<ReadSpec> MakeUniformReads(const ReadSpace& space, uint64_t seed,
                                       size_t n) {
  Rng rng(seed ^ 0x756e69666f726dull);
  std::vector<ReadSpec> reads;
  reads.reserve(n);
  for (size_t i = 0; i < n; ++i) reads.push_back(DrawSpec(space, &rng));
  return reads;
}

}  // namespace

std::vector<ReadSpec> PaperMixReads(uint64_t seed, double seconds) {
  const size_t n = static_cast<size_t>(seconds * 1500.0);
  return MakeSkewedReads(PaperMixSpace(), seed, n,
                         std::max<size_t>(1, 4 * n), 0.5);
}

std::vector<ReadSpec> FleetReads(uint64_t seed, double seconds) {
  return MakeUniformReads(FleetSpace(), seed,
                          static_cast<size_t>(seconds * 10000.0));
}

std::vector<ReadSpec> WriteMixReads(uint64_t seed, double seconds) {
  return MakeUniformReads(WriteMixSpace(), seed,
                          static_cast<size_t>(seconds * 3000.0));
}

size_t TimedWriteBatches(double seconds) {
  return static_cast<size_t>(seconds / kWriteIntervalSeconds + 0.5);
}

double RepeatShare(const std::vector<ReadSpec>& reads, size_t window) {
  if (reads.empty()) return 0.0;
  std::unordered_map<uint64_t, size_t> last_seen;
  size_t repeats = 0;
  for (size_t i = 0; i < reads.size(); ++i) {
    auto [it, fresh] = last_seen.emplace(reads[i].Key(), i);
    if (!fresh) {
      if (i - it->second <= window) ++repeats;
      it->second = i;
    }
  }
  return static_cast<double>(repeats) / static_cast<double>(reads.size());
}

uint64_t DigestReads(const std::vector<ReadSpec>& reads) {
  Digest digest;
  for (const ReadSpec& spec : reads) digest.AddU64(spec.Key());
  return digest.value();
}

namespace {

std::string RandomDesc(Rng* rng) {
  const std::vector<std::string>& words = BiozonVocabulary();
  std::string desc;
  const size_t n = 2 + rng->Below(3);
  for (size_t i = 0; i < n; ++i) {
    if (!desc.empty()) desc += ' ';
    desc += words[rng->Below(words.size())];
  }
  return desc;
}

}  // namespace

std::vector<MutationBatch> MakeWriteSchedule(const WriteTargets& targets,
                                             uint64_t seed, size_t batches) {
  namespace mu = tsb::mutation;
  using tsb::storage::Value;
  Rng rng(seed ^ 0x7772697465ull);
  int64_t next_id = 1'000'000'000;
  struct Added {
    std::string set;
    int64_t id;
  };
  std::vector<Added> added_edges;  // Edges earlier batches added, live.

  std::vector<MutationBatch> schedule;
  schedule.reserve(batches);
  for (size_t b = 0; b < batches; ++b) {
    MutationBatch batch;
    // Edges added by this batch wait in `fresh`, so removals only ever
    // name edges of earlier batches.
    std::vector<Added> fresh;
    auto update_desc = [&]() {
      const bool protein = rng.Chance(0.5);
      const std::vector<int64_t>& ids =
          protein ? targets.proteins : targets.dnas;
      batch.ops.push_back(mu::UpdateAttribute(
          protein ? "Protein" : "DNA", ids[rng.Below(ids.size())], "DESC",
          Value(RandomDesc(&rng))));
    };
    auto add_node_and_edge = [&](const char* node_set, const char* edge_set) {
      const int64_t node = next_id++;
      const int64_t edge = next_id++;
      std::vector<std::pair<std::string, Value>> attributes;
      if (std::string(node_set) == "DNA") {
        attributes.emplace_back(
            "TYPE", Value(std::string(rng.Chance(0.6) ? "mRNA" : "EST")));
      }
      attributes.emplace_back("DESC", Value(RandomDesc(&rng)));
      batch.ops.push_back(mu::AddNode(node_set, node, std::move(attributes)));
      batch.ops.push_back(mu::AddEdge(
          edge_set, edge,
          targets.proteins[rng.Below(targets.proteins.size())], node));
      fresh.push_back(Added{edge_set, edge});
    };
    auto add_interaction = [&]() {
      add_node_and_edge("Interaction", "Interacts_p");
    };
    auto add_dna = [&]() { add_node_and_edge("DNA", "Encodes"); };
    auto remove_edge = [&]() {
      const size_t pick = rng.Below(added_edges.size());
      std::swap(added_edges[pick], added_edges.back());
      batch.ops.push_back(
          mu::RemoveEdge(added_edges.back().set, added_edges.back().id));
      added_edges.pop_back();
    };

    // Every fifth batch is DESC-only and structural budgets cycle 1-4, so
    // the cost-class mix of a schedule is the same for every seed; the
    // seed picks the ops and their targets.
    if (b % 5 == 4) {
      // DESC-only batch: cache eviction, no re-stage.
      const size_t n = 1 + rng.Below(2);
      for (size_t i = 0; i < n; ++i) update_desc();
    } else {
      // The first action is structural; an addition is two ops, so a
      // one-op budget with nothing to remove yet still gets two.
      const size_t budget = 1 + (b - b / 5) % 4;
      const double first = rng.Uniform();
      if (!added_edges.empty() && (budget == 1 || first >= 0.8)) {
        remove_edge();
      } else if (first < 0.4) {
        add_interaction();
      } else {
        add_dna();
      }
      while (batch.ops.size() < budget) {
        const size_t left = budget - batch.ops.size();
        const double roll = rng.Uniform();
        if (left >= 2 && roll < 0.3) {
          add_interaction();
        } else if (left >= 2 && roll < 0.6) {
          add_dna();
        } else if (roll < 0.75 && !added_edges.empty()) {
          remove_edge();
        } else {
          update_desc();
        }
      }
    }
    added_edges.insert(added_edges.end(), fresh.begin(), fresh.end());
    schedule.push_back(std::move(batch));
  }
  return schedule;
}

bool IsAttributeOnly(const MutationBatch& batch) {
  for (const auto& op : batch.ops) {
    if (op.kind != tsb::mutation::MutationKind::kUpdateAttribute) {
      return false;
    }
  }
  return true;
}

uint64_t DigestSchedule(const std::vector<MutationBatch>& schedule) {
  Digest digest;
  for (const MutationBatch& batch : schedule) {
    digest.AddU64(batch.ops.size());
    for (const auto& op : batch.ops) {
      digest.AddU64(static_cast<uint64_t>(op.kind));
      digest.AddString(op.set_name);
      digest.AddU64(static_cast<uint64_t>(op.id));
      digest.AddU64(static_cast<uint64_t>(op.from));
      digest.AddU64(static_cast<uint64_t>(op.to));
      for (const auto& [column, value] : op.attributes) {
        digest.AddString(column);
        digest.AddString(value.ToString());
      }
    }
  }
  return digest.value();
}

}  // namespace perfbench
