#include "service/query_cache.h"

#include <algorithm>
#include <vector>

#include "common/binary_io.h"
#include "storage/predicate.h"

namespace tsb {
namespace service {

namespace {

/// One query side's canonical image: its entity set plus its predicate's
/// wire image, a missing predicate encoded as TRUE, so an absent and an
/// explicit always-true constraint key alike. The image is
/// self-delimiting, so concatenated sides key distinct side sets apart.
std::string SideImage(const std::string& entity_set,
                      const storage::PredicateRef& pred) {
  static const storage::PredicateRef kTrue = storage::MakeTrue();
  std::string image;
  PutString(&image, entity_set);
  (pred != nullptr ? pred : kTrue)->EncodeWire(&image);
  return image;
}

}  // namespace

std::string FingerprintQuery(const engine::TopologyQuery& query,
                             engine::MethodKind method,
                             const engine::ExecOptions& options) {
  // The engine's answers do not depend on side order, so the sides are
  // sorted as byte strings.
  std::string key = SideImage(query.entity_set1, query.pred1);
  std::string side2 = SideImage(query.entity_set2, query.pred2);
  if (side2 < key) std::swap(key, side2);
  key += side2;
  PutU8(&key, static_cast<uint8_t>(query.scheme));
  // Non-top-k methods return the full result regardless of k.
  PutU64(&key, engine::MethodIsTopK(method) ? query.k : 0);
  PutBool(&key, query.exclude_weak);
  PutU8(&key, static_cast<uint8_t>(method));
  // Plan-shaping options, the row path included, change the cached stats
  // and plan text; the sub-query-only flag keeps a (hypothetical) cached
  // partial from answering a full query or vice versa.
  PutU32(&key, static_cast<uint32_t>(options.dgj_algs.size()));
  for (engine::DgjAlg alg : options.dgj_algs) {
    PutU8(&key, static_cast<uint8_t>(alg));
  }
  PutU32(&key, static_cast<uint32_t>(options.et_side_order.size()));
  for (size_t side : options.et_side_order) PutU64(&key, side);
  PutBool(&key, options.skip_pruned_checks);
  PutBool(&key, options.use_columnar);
  return key;
}

std::string FingerprintTripleQuery(const engine::TripleQuery& query) {
  std::vector<std::string> sides = {
      SideImage(query.entity_set1, query.pred1),
      SideImage(query.entity_set2, query.pred2),
      SideImage(query.entity_set3, query.pred3),
  };
  std::sort(sides.begin(), sides.end());
  std::string key;
  for (const std::string& side : sides) key += side;
  PutU64(&key, query.max_triples);
  PutU64(&key, query.max_unions_per_triple);
  return key;
}

Hash128 FingerprintDigest(const std::string& fingerprint) {
  return StableHasher().Add(fingerprint).Digest();
}

size_t CachedCost(const engine::QueryResult& result) {
  return result.entries.size() * sizeof(engine::ResultEntry) +
         result.stats.plan.size() + sizeof(engine::QueryResult);
}

size_t CachedCost(const engine::TripleQueryResult& result) {
  return result.entries.size() * sizeof(engine::TripleResultEntry) +
         sizeof(engine::TripleQueryResult);
}

}  // namespace service
}  // namespace tsb
