#include "core/persistence.h"

#include <charconv>
#include <filesystem>
#include <fstream>

#include "columnar/blocks.h"
#include "common/str_util.h"
#include "graph/canonical.h"
#include "storage/csv.h"

namespace tsb {
namespace core {
namespace {

namespace fs = std::filesystem;
using storage::ColumnType;
using storage::TableSchema;
using storage::Value;

TableSchema TopologiesSchema() {
  return TableSchema({{"TID", ColumnType::kInt64},
                      {"NUM_CLASSES", ColumnType::kInt64},
                      {"NODES", ColumnType::kString},
                      {"EDGES", ColumnType::kString},
                      {"CLASS_KEYS", ColumnType::kString}});
}

TableSchema PairsSchema() {
  return TableSchema({{"T1", ColumnType::kInt64},
                      {"T2", ColumnType::kInt64},
                      {"PAIR_NAME", ColumnType::kString},
                      {"MAX_PATH_LENGTH", ColumnType::kInt64},
                      {"BUILD_MAX_REPS", ColumnType::kInt64},
                      {"BUILD_MAX_COMBOS", ColumnType::kInt64},
                      {"NUM_RELATED_PAIRS", ColumnType::kInt64},
                      {"TRUNCATED_PAIRS", ColumnType::kInt64},
                      {"TRUNCATED_REPS", ColumnType::kInt64},
                      {"PRUNED", ColumnType::kInt64},
                      {"PRUNE_THRESHOLD", ColumnType::kInt64},
                      {"PRUNED_TIDS", ColumnType::kString},
                      {"TABLE_NS", ColumnType::kString}});
}

TableSchema ClassesSchema() {
  return TableSchema({{"ID", ColumnType::kInt64},
                      {"KEY_HEX", ColumnType::kString},
                      {"NODE_TYPES", ColumnType::kString},
                      {"STEPS", ColumnType::kString},
                      {"PATH_TID", ColumnType::kInt64},
                      {"INSTANCE_PAIRS", ColumnType::kInt64}});
}

TableSchema FreqSchema() {
  return TableSchema(
      {{"TID", ColumnType::kInt64}, {"FREQ", ColumnType::kInt64}});
}

TableSchema RowsSchema(const std::string& third) {
  return TableSchema({{"E1", ColumnType::kInt64},
                      {"E2", ColumnType::kInt64},
                      {third, ColumnType::kInt64}});
}

std::string SerializeGraph(const graph::LabeledGraph& g, bool edges) {
  std::vector<std::string> parts;
  if (!edges) {
    for (uint32_t l : g.node_labels()) parts.push_back(std::to_string(l));
    return StrJoin(parts, " ");
  }
  for (const graph::LabeledGraph::Edge& e : g.edges()) {
    parts.push_back(StrFormat("%u-%u-%u", e.u, e.v, e.label));
  }
  return StrJoin(parts, ";");
}

bool ParseUint32(const std::string& s, uint32_t* out) {
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

Result<graph::LabeledGraph> ParseGraph(const std::string& nodes,
                                       const std::string& edges) {
  graph::LabeledGraph g;
  if (!nodes.empty()) {
    for (const std::string& piece : StrSplit(nodes, ' ')) {
      uint32_t label = 0;
      if (!ParseUint32(piece, &label)) {
        return Status::InvalidArgument("bad node label '" + piece + "'");
      }
      g.AddNode(label);
    }
  }
  if (!edges.empty()) {
    for (const std::string& piece : StrSplit(edges, ';')) {
      std::vector<std::string> fields = StrSplit(piece, '-');
      uint32_t u = 0;
      uint32_t v = 0;
      uint32_t label = 0;
      if (fields.size() != 3 || !ParseUint32(fields[0], &u) ||
          !ParseUint32(fields[1], &v) || !ParseUint32(fields[2], &label) ||
          u >= g.num_nodes() || v >= g.num_nodes()) {
        return Status::InvalidArgument("bad edge '" + piece + "'");
      }
      g.AddEdge(u, v, label);
    }
  }
  return g;
}

Status WriteCsvFile(const storage::Table& table, const fs::path& path) {
  std::ofstream os(path);
  if (!os) {
    return Status::Internal("cannot open '" + path.string() +
                            "' for writing");
  }
  storage::WriteTableCsv(table, os);
  if (!os.good()) return Status::Internal("write failed: " + path.string());
  return Status::OK();
}

Result<storage::Table*> ReadCsvFile(storage::Catalog* db,
                                    const std::string& name,
                                    const TableSchema& schema,
                                    const fs::path& path) {
  std::ifstream is(path);
  if (!is) {
    return Status::NotFound("cannot open '" + path.string() + "'");
  }
  return storage::ReadTableCsv(db, name, schema, is);
}

/// A scratch catalog keeps serialization staging tables out of `db`.
Status StageAndWrite(const TableSchema& schema,
                     const std::function<void(storage::Table*)>& fill,
                     const fs::path& path) {
  storage::Catalog scratch;
  TSB_ASSIGN_OR_RETURN(storage::Table * table,
                       scratch.CreateTable("staging", schema));
  fill(table);
  return WriteCsvFile(*table, path);
}

}  // namespace

Status SaveTopologyArtifacts(const storage::Catalog& db,
                             const TopologyStore& store,
                             const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create directory '" + dir + "'");
  }
  const fs::path root(dir);

  // Topologies, in TID order so loading re-interns to identical ids.
  TSB_RETURN_IF_ERROR(StageAndWrite(
      TopologiesSchema(),
      [&store](storage::Table* table) {
        for (const TopologyInfo& info : store.catalog().infos()) {
          std::vector<std::string> keys;
          for (const std::string& key : info.class_keys) {
            keys.push_back(HexEncode(key));
          }
          table->AppendRowOrDie(
              {Value(info.tid),
               Value(static_cast<int64_t>(info.num_classes)),
               Value(SerializeGraph(info.graph, /*edges=*/false)),
               Value(SerializeGraph(info.graph, /*edges=*/true)),
               Value(StrJoin(keys, ";"))});
        }
      },
      root / "topologies.csv"));

  // Pair registry.
  TSB_RETURN_IF_ERROR(StageAndWrite(
      PairsSchema(),
      [&store](storage::Table* table) {
        for (const auto& [key, pair] : store.pairs()) {
          std::vector<std::string> pruned_tids;
          for (Tid tid : pair.pruned_tids) {
            pruned_tids.push_back(std::to_string(tid));
          }
          table->AppendRowOrDie(
              {Value(static_cast<int64_t>(pair.t1)),
               Value(static_cast<int64_t>(pair.t2)), Value(pair.pair_name),
               Value(static_cast<int64_t>(pair.max_path_length)),
               Value(static_cast<int64_t>(
                   pair.build_max_class_representatives)),
               Value(static_cast<int64_t>(pair.build_max_union_combinations)),
               Value(static_cast<int64_t>(pair.num_related_pairs)),
               Value(static_cast<int64_t>(pair.truncated_pairs)),
               Value(static_cast<int64_t>(pair.truncated_representatives)),
               Value(static_cast<int64_t>(pair.pruned ? 1 : 0)),
               Value(static_cast<int64_t>(pair.prune_threshold)),
               Value(StrJoin(pruned_tids, ";")),
               Value(pair.table_namespace)});
        }
      },
      root / "pairs.csv"));

  for (const auto& [key, pair] : store.pairs()) {
    // Class registry.
    TSB_RETURN_IF_ERROR(StageAndWrite(
        ClassesSchema(),
        [&pair](storage::Table* table) {
          for (const ClassInfo& cls : pair.classes) {
            std::vector<std::string> types;
            for (storage::EntityTypeId t : cls.path.node_types) {
              types.push_back(std::to_string(t));
            }
            std::vector<std::string> steps;
            for (const graph::SchemaStep& step : cls.path.steps) {
              steps.push_back(StrFormat("%u:%c", step.rel,
                                        step.forward ? 'f' : 'b'));
            }
            table->AppendRowOrDie(
                {Value(static_cast<int64_t>(cls.id)),
                 Value(HexEncode(cls.key)), Value(StrJoin(types, " ")),
                 Value(StrJoin(steps, ";")), Value(cls.path_tid),
                 Value(static_cast<int64_t>(cls.instance_pairs))});
          }
        },
        root / ("classes_" + pair.pair_name + ".csv")));

    // Frequencies (sorted for determinism).
    TSB_RETURN_IF_ERROR(StageAndWrite(
        FreqSchema(),
        [&pair](storage::Table* table) {
          for (Tid tid : pair.ObservedTids()) {
            table->AppendRowOrDie(
                {Value(tid),
                 Value(static_cast<int64_t>(pair.freq.at(tid)))});
          }
        },
        root / ("freq_" + pair.pair_name + ".csv")));

    // Precomputed tables.
    std::vector<std::string> tables = {pair.alltops_table,
                                       pair.pairclasses_table};
    if (pair.pruned) {
      tables.push_back(pair.lefttops_table);
      tables.push_back(pair.excptops_table);
    }
    for (const std::string& name : tables) {
      const storage::Table* table = db.FindTable(name);
      if (table == nullptr) {
        return Status::NotFound("precomputed table '" + name +
                                "' missing from catalog");
      }
      TSB_RETURN_IF_ERROR(
          WriteCsvFile(*table, root / ("table_" + name + ".csv")));
    }
  }
  return Status::OK();
}

Status LoadTopologyArtifacts(storage::Catalog* db, TopologyStore* store,
                             const std::string& dir) {
  if (store->catalog().size() != 0 || !store->pairs().empty()) {
    return Status::FailedPrecondition("target store is not empty");
  }
  const fs::path root(dir);
  storage::Catalog scratch;

  // Topologies.
  {
    TSB_ASSIGN_OR_RETURN(storage::Table * table,
                         ReadCsvFile(&scratch, "topologies",
                                     TopologiesSchema(),
                                     root / "topologies.csv"));
    for (size_t i = 0; i < table->num_rows(); ++i) {
      Tid expected = table->GetInt64(i, 0);
      TSB_ASSIGN_OR_RETURN(graph::LabeledGraph g,
                           ParseGraph(table->GetString(i, 2),
                                      table->GetString(i, 3)));
      std::vector<std::string> class_keys;
      const std::string& keys_field = table->GetString(i, 4);
      if (!keys_field.empty()) {
        for (const std::string& hex : StrSplit(keys_field, ';')) {
          std::string key;
          if (!HexDecode(hex, &key)) {
            return Status::InvalidArgument("bad class key hex");
          }
          class_keys.push_back(std::move(key));
        }
      }
      Tid tid = store->mutable_catalog()->Intern(
          g, static_cast<size_t>(table->GetInt64(i, 1)));
      if (tid != expected) {
        return Status::Internal(StrFormat(
            "TID mismatch on load: got %lld, expected %lld",
            static_cast<long long>(tid), static_cast<long long>(expected)));
      }
      // Re-attach the class keys via a second intern call (merge path).
      store->mutable_catalog()->InternWithCode(
          g, store->catalog().Get(tid).code,
          static_cast<size_t>(table->GetInt64(i, 1)), std::move(class_keys));
    }
  }

  // Pairs.
  TSB_ASSIGN_OR_RETURN(
      storage::Table * pairs_table,
      ReadCsvFile(&scratch, "pairs", PairsSchema(), root / "pairs.csv"));
  for (size_t i = 0; i < pairs_table->num_rows(); ++i) {
    PairTopologyData pair;
    pair.t1 = static_cast<storage::EntityTypeId>(pairs_table->GetInt64(i, 0));
    pair.t2 = static_cast<storage::EntityTypeId>(pairs_table->GetInt64(i, 1));
    pair.pair_name = pairs_table->GetString(i, 2);
    pair.max_path_length =
        static_cast<size_t>(pairs_table->GetInt64(i, 3));
    pair.build_max_class_representatives =
        static_cast<size_t>(pairs_table->GetInt64(i, 4));
    pair.build_max_union_combinations =
        static_cast<size_t>(pairs_table->GetInt64(i, 5));
    pair.num_related_pairs =
        static_cast<size_t>(pairs_table->GetInt64(i, 6));
    pair.truncated_pairs = static_cast<size_t>(pairs_table->GetInt64(i, 7));
    pair.truncated_representatives =
        static_cast<size_t>(pairs_table->GetInt64(i, 8));
    pair.pruned = pairs_table->GetInt64(i, 9) != 0;
    pair.prune_threshold =
        static_cast<size_t>(pairs_table->GetInt64(i, 10));
    pair.table_namespace = pairs_table->GetString(i, 12);
    pair.alltops_table =
        pair.table_namespace + "AllTops_" + pair.pair_name;
    pair.pairclasses_table =
        pair.table_namespace + "PairClasses_" + pair.pair_name;

    // Classes.
    TSB_ASSIGN_OR_RETURN(
        storage::Table * classes_table,
        ReadCsvFile(&scratch, "classes_" + pair.pair_name, ClassesSchema(),
                    root / ("classes_" + pair.pair_name + ".csv")));
    for (size_t c = 0; c < classes_table->num_rows(); ++c) {
      ClassInfo cls;
      cls.id = static_cast<uint32_t>(classes_table->GetInt64(c, 0));
      if (!HexDecode(classes_table->GetString(c, 1), &cls.key)) {
        return Status::InvalidArgument("bad class key hex");
      }
      for (const std::string& piece :
           StrSplit(classes_table->GetString(c, 2), ' ')) {
        uint32_t t = 0;
        if (!ParseUint32(piece, &t)) {
          return Status::InvalidArgument("bad node type '" + piece + "'");
        }
        cls.path.node_types.push_back(t);
      }
      const std::string& steps_field = classes_table->GetString(c, 3);
      if (!steps_field.empty()) {
        for (const std::string& piece : StrSplit(steps_field, ';')) {
          std::vector<std::string> kv = StrSplit(piece, ':');
          uint32_t rel = 0;
          if (kv.size() != 2 || !ParseUint32(kv[0], &rel) ||
              (kv[1] != "f" && kv[1] != "b")) {
            return Status::InvalidArgument("bad step '" + piece + "'");
          }
          cls.path.steps.push_back(graph::SchemaStep{rel, kv[1] == "f"});
        }
      }
      cls.path_tid = classes_table->GetInt64(c, 4);
      cls.instance_pairs =
          static_cast<size_t>(classes_table->GetInt64(c, 5));
      pair.class_by_key.emplace(cls.key, cls.id);
      pair.classes.push_back(std::move(cls));
    }

    // Frequencies.
    TSB_ASSIGN_OR_RETURN(
        storage::Table * freq_table,
        ReadCsvFile(&scratch, "freq_" + pair.pair_name, FreqSchema(),
                    root / ("freq_" + pair.pair_name + ".csv")));
    for (size_t f = 0; f < freq_table->num_rows(); ++f) {
      pair.freq.emplace(freq_table->GetInt64(f, 0),
                        static_cast<size_t>(freq_table->GetInt64(f, 1)));
    }

    // Pruned TIDs (classes recover the TID -> class map).
    const std::string& pruned_field = pairs_table->GetString(i, 11);
    if (!pruned_field.empty()) {
      std::unordered_map<Tid, uint32_t> tid_to_class;
      for (const ClassInfo& cls : pair.classes) {
        if (cls.path_tid != kNoTid) tid_to_class.emplace(cls.path_tid, cls.id);
      }
      for (const std::string& piece : StrSplit(pruned_field, ';')) {
        Tid tid = 0;
        auto [ptr, parse_ec] =
            std::from_chars(piece.data(), piece.data() + piece.size(), tid);
        if (parse_ec != std::errc() || ptr != piece.data() + piece.size()) {
          return Status::InvalidArgument("bad pruned TID '" + piece + "'");
        }
        auto it = tid_to_class.find(tid);
        if (it == tid_to_class.end()) {
          return Status::InvalidArgument(
              "pruned TID has no class in the registry");
        }
        pair.pruned_tids.push_back(tid);
        pair.pruned_class_of_tid.emplace(tid, it->second);
      }
    }

    // Precomputed tables into the real catalog.
    std::vector<std::pair<std::string, std::string>> tables = {
        {pair.alltops_table, "TID"}, {pair.pairclasses_table, "CID"}};
    if (pair.pruned) {
      pair.lefttops_table =
          pair.table_namespace + "LeftTops_" + pair.pair_name;
      pair.excptops_table =
          pair.table_namespace + "ExcpTops_" + pair.pair_name;
      tables.push_back({pair.lefttops_table, "TID"});
      tables.push_back({pair.excptops_table, "TID"});
    }
    for (const auto& [name, third] : tables) {
      TSB_RETURN_IF_ERROR(ReadCsvFile(db, name, RowsSchema(third),
                                      root / ("table_" + name + ".csv"))
                              .status());
    }
    Result<PairTopologyData*> added = store->AddPair(std::move(pair));
    TSB_RETURN_IF_ERROR(added.status());
    columnar::AttachSlices(*db, store->catalog(), added.value());
  }
  return Status::OK();
}

}  // namespace core
}  // namespace tsb
