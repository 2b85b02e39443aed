#include "engine/nquery.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/hash.h"
#include "common/logging.h"
#include "core/pair_topologies.h"
#include "graph/canonical.h"

namespace tsb {
namespace engine {
namespace {

/// Union of instance-level witnesses (sharing entity ids) into one graph.
graph::LabeledGraph MergeWitnesses(
    const std::vector<const core::ComputedTopology*>& witnesses) {
  graph::LabeledGraph g;
  std::unordered_map<graph::EntityId, graph::LabeledGraph::NodeId> node_of;
  for (const core::ComputedTopology* w : witnesses) {
    std::vector<graph::LabeledGraph::NodeId> remap(w->witness.num_nodes());
    for (size_t n = 0; n < w->witness.num_nodes(); ++n) {
      graph::EntityId id = w->witness_ids[n];
      auto it = node_of.find(id);
      if (it == node_of.end()) {
        it = node_of
                 .emplace(id, g.AddNode(w->witness.node_label(
                              static_cast<graph::LabeledGraph::NodeId>(n))))
                 .first;
      }
      remap[n] = it->second;
    }
    for (const graph::LabeledGraph::Edge& e : w->witness.edges()) {
      g.AddEdge(remap[e.u], remap[e.v], e.label);
    }
  }
  g.DedupeParallelEdges();
  return g;
}

}  // namespace

Result<TripleSelection> ResolveTripleSelection(storage::Catalog* db,
                                               const TripleQuery& query) {
  TripleSelection selection;
  const std::string* names[3] = {&query.entity_set1, &query.entity_set2,
                                 &query.entity_set3};
  storage::PredicateRef preds[3] = {
      query.pred1 != nullptr ? query.pred1 : storage::MakeTrue(),
      query.pred2 != nullptr ? query.pred2 : storage::MakeTrue(),
      query.pred3 != nullptr ? query.pred3 : storage::MakeTrue()};
  for (int i = 0; i < 3; ++i) {
    TripleSelection::Slot& slot = selection.slots[i];
    slot.def = db->FindEntitySet(*names[i]);
    if (slot.def == nullptr) {
      return Status::NotFound("unknown entity set '" + *names[i] + "'");
    }
    const storage::Table& table = *db->GetTable(slot.def->table_name);
    size_t id_col = table.schema().ColumnIndexOrDie(slot.def->id_column);
    for (storage::RowIdx row : storage::FilterRows(table, *preds[i])) {
      slot.selected.insert(table.GetInt64(row, id_col));
    }
  }
  if (selection.slots[0].def->id == selection.slots[1].def->id ||
      selection.slots[0].def->id == selection.slots[2].def->id ||
      selection.slots[1].def->id == selection.slots[2].def->id) {
    return Status::Unimplemented(
        "3-queries require three distinct entity types");
  }

  // Slot pairs in storage orientation (E1 of the smaller entity type id).
  selection.slot_pairs[0] = {0, 1};
  selection.slot_pairs[1] = {0, 2};
  selection.slot_pairs[2] = {1, 2};
  for (TripleSelection::SlotPair& sp : selection.slot_pairs) {
    if (selection.slots[sp.lo].def->id > selection.slots[sp.hi].def->id) {
      std::swap(sp.lo, sp.hi);
    }
  }
  return selection;
}

TripleRelatedSets CollectTripleRelated(const storage::Catalog& db,
                                       const core::TopologyStore& store,
                                       const TripleSelection& selection) {
  TripleRelatedSets related;
  for (int p = 0; p < 3; ++p) {
    const TripleSelection::SlotPair& sp = selection.slot_pairs[p];
    const TripleSelection::Slot& lo_slot = selection.slots[sp.lo];
    const TripleSelection::Slot& hi_slot = selection.slots[sp.hi];
    const core::PairTopologyData* data =
        store.FindPair(lo_slot.def->id, hi_slot.def->id);
    if (data == nullptr) continue;
    // AllTops holds one row per related pair and topology, with E1 of type
    // data->t1; deduplicate into the ordered set.
    const storage::Table& alltops = *db.GetTable(data->alltops_table);
    const auto& e1 = alltops.column(0).ints();
    const auto& e2 = alltops.column(1).ints();
    for (size_t i = 0; i < alltops.num_rows(); ++i) {
      if (lo_slot.selected.count(e1[i]) > 0 &&
          hi_slot.selected.count(e2[i]) > 0) {
        related[p].emplace(e1[i], e2[i]);
      }
    }
  }
  return related;
}

Result<TripleQueryResult> FinishTripleQuery(storage::Catalog* db,
                                            core::TopologyStore* store,
                                            const graph::SchemaGraph& schema,
                                            const graph::DataGraphView& view,
                                            const TripleQuery& query,
                                            const TripleSelection& selection,
                                            const TripleRelatedSets& related) {
  (void)db;
  // Pair metadata (build caps) per slot pair; null when never built.
  const core::PairTopologyData* pair_data[3];
  for (int p = 0; p < 3; ++p) {
    const TripleSelection::SlotPair& sp = selection.slot_pairs[p];
    pair_data[p] = store->FindPair(selection.slots[sp.lo].def->id,
                                   selection.slots[sp.hi].def->id);
  }

  // Candidate triples: any two related pairs sharing an endpoint slot.
  // triple[i] = entity bound to slot i (0 = unbound until joined).
  struct Triple {
    int64_t ids[3];
    bool operator<(const Triple& o) const {
      return std::lexicographical_compare(ids, ids + 3, o.ids, o.ids + 3);
    }
  };
  std::set<Triple> triples;
  TripleQueryResult result;
  auto add_triples_from = [&](int xi, int yi) {
    if (pair_data[xi] == nullptr || pair_data[yi] == nullptr) return;
    const TripleSelection::SlotPair& x = selection.slot_pairs[xi];
    const TripleSelection::SlotPair& y = selection.slot_pairs[yi];
    // Shared slot between the two pairs.
    int shared = -1;
    for (int s : {x.lo, x.hi}) {
      if (s == y.lo || s == y.hi) shared = s;
    }
    if (shared < 0) return;
    // Index y's pairs by the shared slot's entity.
    std::unordered_map<int64_t, std::vector<int64_t>> y_by_shared;
    for (const auto& [a, b] : related[yi]) {
      int64_t shared_id = (shared == y.lo) ? a : b;
      int64_t other_id = (shared == y.lo) ? b : a;
      y_by_shared[shared_id].push_back(other_id);
    }
    const int x_other = (x.lo == shared) ? x.hi : x.lo;
    const int y_other = (y.lo == shared) ? y.hi : y.lo;
    for (const auto& [a, b] : related[xi]) {
      int64_t shared_id = (shared == x.lo) ? a : b;
      int64_t x_other_id = (shared == x.lo) ? b : a;
      auto it = y_by_shared.find(shared_id);
      if (it == y_by_shared.end()) continue;
      for (int64_t y_other_id : it->second) {
        if (triples.size() >= query.max_triples) {
          result.truncated = true;
          return;
        }
        Triple t{};
        t.ids[shared] = shared_id;
        t.ids[x_other] = x_other_id;
        t.ids[y_other] = y_other_id;
        triples.insert(t);
      }
    }
  };
  add_triples_from(0, 1);
  add_triples_from(0, 2);
  add_triples_from(1, 2);

  // Per triple: union one pairwise-topology witness per related pair, over
  // all (capped) choices; intern the canonical unions.
  std::unordered_map<core::Tid, size_t> freq;
  for (const Triple& t : triples) {
    ++result.triples_examined;
    std::vector<std::vector<core::ComputedTopology>> per_pair;
    size_t total_classes = 0;
    for (int p = 0; p < 3; ++p) {
      if (pair_data[p] == nullptr) continue;
      const TripleSelection::SlotPair& sp = selection.slot_pairs[p];
      auto key = std::make_pair(t.ids[sp.lo], t.ids[sp.hi]);
      if (related[p].count(key) == 0) continue;
      core::PairComputeLimits limits;
      limits.max_path_length = pair_data[p]->max_path_length;
      limits.union_limits.max_class_representatives =
          pair_data[p]->build_max_class_representatives;
      limits.union_limits.max_union_combinations =
          pair_data[p]->build_max_union_combinations;
      core::PairComputation computed = core::ComputePairTopologies(
          view, schema, key.first, key.second, limits);
      if (computed.topologies.empty()) continue;
      total_classes += computed.classes.size();
      per_pair.push_back(std::move(computed.topologies));
    }
    if (per_pair.size() < 2) continue;  // Degenerates to a 2-query result.

    // Mixed-radix odometer over one witness per pair.
    std::vector<size_t> choice(per_pair.size(), 0);
    std::unordered_set<std::string> seen;
    size_t combos = 0;
    for (;;) {
      if (combos >= query.max_unions_per_triple) {
        result.truncated = true;
        break;
      }
      ++combos;
      std::vector<const core::ComputedTopology*> chosen;
      for (size_t p = 0; p < per_pair.size(); ++p) {
        chosen.push_back(&per_pair[p][choice[p]]);
      }
      graph::LabeledGraph merged = MergeWitnesses(chosen);
      graph::Canonical canonical = graph::Canonicalize(merged);
      if (seen.insert(canonical.code).second) {
        core::Tid tid = store->mutable_catalog()->InternWithCode(
            canonical.form, std::move(canonical.code), total_classes);
        auto [it, inserted] = freq.emplace(tid, 1);
        if (!inserted) ++it->second;
      }
      size_t p = 0;
      for (; p < per_pair.size(); ++p) {
        if (++choice[p] < per_pair[p].size()) break;
        choice[p] = 0;
      }
      if (p == per_pair.size()) break;
    }
  }

  result.entries.reserve(freq.size());
  for (const auto& [tid, count] : freq) {
    result.entries.push_back(TripleResultEntry{tid, count});
  }
  std::sort(result.entries.begin(), result.entries.end(),
            [](const TripleResultEntry& a, const TripleResultEntry& b) {
              if (a.frequency != b.frequency) return a.frequency > b.frequency;
              return a.tid < b.tid;
            });
  return result;
}

Result<TripleQueryResult> ExecuteTripleQuery(
    storage::Catalog* db, core::TopologyStore* store,
    const graph::SchemaGraph& schema, const graph::DataGraphView& view,
    const TripleQuery& query) {
  TSB_ASSIGN_OR_RETURN(TripleSelection selection,
                       ResolveTripleSelection(db, query));
  TripleRelatedSets related = CollectTripleRelated(*db, *store, selection);
  return FinishTripleQuery(db, store, schema, view, query, selection,
                           related);
}

}  // namespace engine
}  // namespace tsb
