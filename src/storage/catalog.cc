#include "storage/catalog.h"

#include "common/logging.h"
#include "common/str_util.h"

namespace tsb {
namespace storage {

std::string ShardNamespace(const std::string& base, size_t shard) {
  return base + "s" + std::to_string(shard) + ".";
}

Result<Table*> Catalog::CreateTable(const std::string& name,
                                    TableSchema schema) {
  std::unique_lock<std::shared_mutex> lock(tables_mu_);
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  auto table = std::make_unique<Table>(name, std::move(schema));
  Table* ptr = table.get();
  tables_.emplace(name, std::move(table));
  return ptr;
}

Status Catalog::DropTable(const std::string& name) {
  {
    std::unique_lock<std::shared_mutex> lock(tables_mu_);
    auto it = tables_.find(name);
    if (it == tables_.end()) {
      return Status::NotFound("table '" + name + "' does not exist");
    }
    tables_.erase(it);
  }
  // Outside tables_mu_: the index registry has its own lock, and the two
  // are never nested (see header).
  InvalidateIndexes(name);
  return Status::OK();
}

Table* Catalog::FindTable(const std::string& name) {
  std::shared_lock<std::shared_mutex> lock(tables_mu_);
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

const Table* Catalog::FindTable(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(tables_mu_);
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

Table* Catalog::GetTable(const std::string& name) {
  Table* t = FindTable(name);
  TSB_CHECK(t != nullptr) << "no table named '" << name << "'";
  return t;
}

const Table* Catalog::GetTable(const std::string& name) const {
  const Table* t = FindTable(name);
  TSB_CHECK(t != nullptr) << "no table named '" << name << "'";
  return t;
}

std::vector<std::string> Catalog::TableNames() const {
  std::shared_lock<std::shared_mutex> lock(tables_mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  return names;
}

Result<EntityTypeId> Catalog::RegisterEntitySet(const std::string& name,
                                                const std::string& table_name,
                                                const std::string& id_column) {
  const Table* table = FindTable(table_name);
  if (table == nullptr) {
    return Status::NotFound("backing table '" + table_name + "' not found");
  }
  if (!table->schema().FindColumn(id_column).has_value()) {
    return Status::InvalidArgument("id column '" + id_column +
                                   "' not in table '" + table_name + "'");
  }
  for (const EntitySetDef& def : entity_sets_) {
    if (def.name == name) {
      return Status::AlreadyExists("entity set '" + name + "' exists");
    }
  }
  EntityTypeId id = static_cast<EntityTypeId>(entity_sets_.size());
  entity_sets_.push_back(EntitySetDef{id, name, table_name, id_column});
  return id;
}

Result<RelTypeId> Catalog::RegisterRelationshipSet(
    const std::string& name, const std::string& table_name,
    const std::string& id_column, const std::string& from_column,
    EntityTypeId from_type, const std::string& to_column,
    EntityTypeId to_type) {
  const Table* table = FindTable(table_name);
  if (table == nullptr) {
    return Status::NotFound("backing table '" + table_name + "' not found");
  }
  for (const std::string& col : {id_column, from_column, to_column}) {
    if (!table->schema().FindColumn(col).has_value()) {
      return Status::InvalidArgument("column '" + col + "' not in table '" +
                                     table_name + "'");
    }
  }
  if (from_type >= entity_sets_.size() || to_type >= entity_sets_.size()) {
    return Status::InvalidArgument("endpoint entity type not registered");
  }
  for (const RelationshipSetDef& def : relationship_sets_) {
    if (def.name == name) {
      return Status::AlreadyExists("relationship set '" + name + "' exists");
    }
  }
  RelTypeId id = static_cast<RelTypeId>(relationship_sets_.size());
  relationship_sets_.push_back(RelationshipSetDef{
      id, name, table_name, id_column, from_column, to_column, from_type,
      to_type});
  return id;
}

const EntitySetDef* Catalog::FindEntitySet(const std::string& name) const {
  for (const EntitySetDef& def : entity_sets_) {
    if (def.name == name) return &def;
  }
  return nullptr;
}

const RelationshipSetDef* Catalog::FindRelationshipSet(
    const std::string& name) const {
  for (const RelationshipSetDef& def : relationship_sets_) {
    if (def.name == name) return &def;
  }
  return nullptr;
}

const Table& Catalog::EntityTable(EntityTypeId id) const {
  TSB_CHECK_LT(id, entity_sets_.size());
  return *GetTable(entity_sets_[id].table_name);
}

const Table& Catalog::RelationshipTable(RelTypeId id) const {
  TSB_CHECK_LT(id, relationship_sets_.size());
  return *GetTable(relationship_sets_[id].table_name);
}

namespace {
std::string IndexKey(const std::string& table, const std::string& column) {
  return table + "." + column;
}
}  // namespace

const HashIndex& Catalog::GetOrBuildHashIndex(const std::string& table_name,
                                              const std::string& column) {
  std::string key = IndexKey(table_name, column);
  {
    std::lock_guard<std::mutex> lock(index_mu_);
    auto it = hash_indexes_.find(key);
    if (it != hash_indexes_.end()) return *it->second;
  }
  // Resolve and build outside index_mu_ (the two locks never nest, and a
  // build on a fresh table must not block every other lookup); racing
  // builders compute the same index, and the emplace keeps the first.
  auto index = std::make_unique<HashIndex>(*GetTable(table_name), column);
  std::lock_guard<std::mutex> lock(index_mu_);
  return *hash_indexes_.emplace(std::move(key), std::move(index))
              .first->second;
}

void Catalog::InvalidateIndexes(const std::string& table_name) {
  std::lock_guard<std::mutex> lock(index_mu_);
  std::string prefix = table_name + ".";
  for (auto it = hash_indexes_.begin(); it != hash_indexes_.end();) {
    if (it->first.rfind(prefix, 0) == 0) {
      it = hash_indexes_.erase(it);
    } else {
      ++it;
    }
  }
}

size_t Catalog::MemoryBytesWithPrefix(const std::string& prefix) const {
  std::shared_lock<std::shared_mutex> lock(tables_mu_);
  size_t total = 0;
  for (const auto& [name, table] : tables_) {
    if (name.rfind(prefix, 0) == 0) total += table->MemoryBytes();
  }
  return total;
}

}  // namespace storage
}  // namespace tsb
