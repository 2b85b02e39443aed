#include "service/query_cache.h"

#include <algorithm>

#include "storage/predicate.h"

namespace tsb {
namespace service {

namespace {

/// "entity_set|predicate" with a missing predicate normalized to TRUE, so
/// an absent and an explicit always-true constraint key identically.
std::string SideKey(const std::string& entity_set,
                    const storage::PredicateRef& pred) {
  const storage::PredicateRef& p =
      pred != nullptr ? pred : storage::MakeTrue();
  return entity_set + "|" + p->ToString();
}

}  // namespace

std::string FingerprintQuery(const engine::TopologyQuery& query,
                             engine::MethodKind method,
                             const engine::ExecOptions& options) {
  std::string side1 = SideKey(query.entity_set1, query.pred1);
  std::string side2 = SideKey(query.entity_set2, query.pred2);
  // Predicate-aware normalization: the 2-query is an unordered set of
  // constrained sides, and the engine returns orientation-independent
  // results, so sort the rendered sides.
  if (side2 < side1) std::swap(side1, side2);

  std::string key = "2q{";
  key += side1;
  key += "}{";
  key += side2;
  key += "}scheme=";
  key += core::RankSchemeToString(query.scheme);
  // Non-top-k methods return the full result regardless of k.
  key += ";k=";
  key += engine::MethodIsTopK(method) ? std::to_string(query.k) : "ALL";
  key += ";weak=";
  key += query.exclude_weak ? "1" : "0";
  key += ";method=";
  key += engine::MethodKindToString(method);
  // Plan-shaping options change stats/plan text (part of the cached
  // value), so they participate in the key.
  key += ";dgj=";
  for (engine::DgjAlg alg : options.dgj_algs) {
    key += alg == engine::DgjAlg::kIdgj ? 'i' : 'h';
  }
  key += ";order=";
  for (size_t side : options.et_side_order) {
    key += std::to_string(side);
  }
  // Sub-query-only flag; participates so a (hypothetical) cached partial
  // can never satisfy a full query or vice versa.
  if (options.skip_pruned_checks) key += ";nopruned=1";
  // A row-path request runs a different plan than the columnar default.
  // Only the non-default value adds to the key, so default keys keep
  // their bytes.
  if (!options.use_columnar) key += ";row=1";
  return key;
}

std::string FingerprintTripleQuery(const engine::TripleQuery& query) {
  std::vector<std::string> sides = {
      SideKey(query.entity_set1, query.pred1),
      SideKey(query.entity_set2, query.pred2),
      SideKey(query.entity_set3, query.pred3),
  };
  std::sort(sides.begin(), sides.end());
  std::string key = "3q";
  for (const std::string& side : sides) {
    key += "{";
    key += side;
    key += "}";
  }
  key += "max_triples=" + std::to_string(query.max_triples);
  key += ";max_unions=" + std::to_string(query.max_unions_per_triple);
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
