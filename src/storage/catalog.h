#ifndef TSB_STORAGE_CATALOG_H_
#define TSB_STORAGE_CATALOG_H_

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/index.h"
#include "storage/table.h"

namespace tsb {
namespace storage {

/// Identifies an entity set (≙ node type / label in the data graph).
using EntityTypeId = uint32_t;
/// Identifies a relationship set (≙ edge type / label in the data graph).
using RelTypeId = uint32_t;

/// Catalog metadata for an entity set: the backing table and its key column.
struct EntitySetDef {
  EntityTypeId id;
  std::string name;        // E.g. "Protein".
  std::string table_name;  // Backing table.
  std::string id_column;   // INT64 primary key (globally unique).
};

/// Catalog metadata for a binary relationship set between two entity sets.
/// Relationships are logically undirected (the paper treats every edge as
/// traversable both ways); `from`/`to` only name the storage layout.
struct RelationshipSetDef {
  RelTypeId id;
  std::string name;        // E.g. "encodes".
  std::string table_name;  // Backing table.
  std::string id_column;   // INT64 relationship id.
  std::string from_column;
  std::string to_column;
  EntityTypeId from_type;
  EntityTypeId to_type;
};

/// Composes the table-name namespace of one store shard under a base
/// prefix, e.g. ("e3.", 1) -> "e3.s1.". Every precompute table of shard i
/// lives under this prefix, so N shards (and successive epochs of each)
/// coexist in one Catalog without name collisions. The shard segment sits
/// *inside* the epoch segment: a live rebuild stages "e4.s0." .. "e4.sN."
/// next to the serving "e3.s0." .. "e3.sN." tables.
std::string ShardNamespace(const std::string& base, size_t shard);

/// Owns tables and their indexes, and the ER-level metadata that maps the
/// relational database onto the data-graph model of Section 2.1.
///
/// Thread safety: the table registry is reader/writer-guarded, so a live
/// store rebuild can CreateTable/DropTable while query threads look tables
/// up. A Table* stays valid until DropTable for that name; the epoch
/// mechanism in the service guarantees queries never touch a dropped
/// epoch's tables. Entity/relationship-set registration is setup-time only
/// and not synchronized against itself.
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// --- Tables ---------------------------------------------------------
  /// Creates an empty table; fails if the name exists.
  Result<Table*> CreateTable(const std::string& name, TableSchema schema);
  /// Removes a table and its indexes (used when replacing AllTops with the
  /// pruned LeftTops/ExcpTops pair, and when a retired store epoch drops
  /// its precompute tables).
  Status DropTable(const std::string& name);
  /// Lookup; nullptr if absent.
  Table* FindTable(const std::string& name);
  const Table* FindTable(const std::string& name) const;
  /// Lookup; aborts if absent.
  Table* GetTable(const std::string& name);
  const Table* GetTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  /// --- Entity / relationship sets -------------------------------------
  /// Registers an entity set over an existing table.
  Result<EntityTypeId> RegisterEntitySet(const std::string& name,
                                         const std::string& table_name,
                                         const std::string& id_column);
  /// Registers a relationship set over an existing table.
  Result<RelTypeId> RegisterRelationshipSet(
      const std::string& name, const std::string& table_name,
      const std::string& id_column, const std::string& from_column,
      EntityTypeId from_type, const std::string& to_column,
      EntityTypeId to_type);

  const std::vector<EntitySetDef>& entity_sets() const { return entity_sets_; }
  const std::vector<RelationshipSetDef>& relationship_sets() const {
    return relationship_sets_;
  }
  /// Lookup by name; nullptr if absent.
  const EntitySetDef* FindEntitySet(const std::string& name) const;
  const RelationshipSetDef* FindRelationshipSet(const std::string& name) const;
  const EntitySetDef& entity_set(EntityTypeId id) const {
    return entity_sets_[id];
  }
  const RelationshipSetDef& relationship_set(RelTypeId id) const {
    return relationship_sets_[id];
  }

  /// Table backing an entity / relationship set.
  const Table& EntityTable(EntityTypeId id) const;
  const Table& RelationshipTable(RelTypeId id) const;

  /// --- Indexes ---------------------------------------------------------
  /// Builds (or returns the cached) hash index on `table.column`.
  /// Safe to call from concurrent query threads: the index registry is
  /// guarded by a mutex, and returned references stay valid until
  /// InvalidateIndexes / DropTable (which must not race with queries).
  /// A first use builds outside the mutex, so it never stalls lookups of
  /// other indexes; racing builders keep the first index that lands.
  /// (Keyword postings live on the table: Table::KeywordPostings.)
  const HashIndex& GetOrBuildHashIndex(const std::string& table_name,
                                       const std::string& column);
  /// Drops cached indexes for a table (after bulk appends).
  void InvalidateIndexes(const std::string& table_name);

  /// Total column bytes across all tables whose name starts with `prefix`.
  size_t MemoryBytesWithPrefix(const std::string& prefix) const;

 private:
  /// Guards tables_ (lookups on query threads vs. create/drop during live
  /// rebuilds). Never held while index_mu_ is taken, and vice versa.
  mutable std::shared_mutex tables_mu_;
  std::unordered_map<std::string, std::unique_ptr<Table>> tables_;
  std::vector<EntitySetDef> entity_sets_;
  std::vector<RelationshipSetDef> relationship_sets_;
  /// Guards the index registry (lazy builds happen on query threads).
  std::mutex index_mu_;
  std::unordered_map<std::string, std::unique_ptr<HashIndex>> hash_indexes_;
};

}  // namespace storage
}  // namespace tsb

#endif  // TSB_STORAGE_CATALOG_H_
