#include "shard/sharded_store.h"

#include <utility>

#include "common/logging.h"

namespace tsb {
namespace shard {

ShardedTopologyStore::ShardedTopologyStore(
    std::vector<std::shared_ptr<core::TopologyStore>> shards)
    : ShardedTopologyStore([&shards]() {
        std::vector<std::shared_ptr<core::StoreHandle>> handles;
        handles.reserve(shards.size());
        for (std::shared_ptr<core::TopologyStore>& shard : shards) {
          TSB_CHECK(shard != nullptr);
          handles.push_back(
              std::make_shared<core::StoreHandle>(std::move(shard)));
        }
        return handles;
      }()) {}

ShardedTopologyStore::ShardedTopologyStore(
    std::vector<std::shared_ptr<core::StoreHandle>> handles)
    : handles_(std::move(handles)) {
  TSB_CHECK(!handles_.empty()) << "a sharded store needs at least one shard";
  for (const std::shared_ptr<core::StoreHandle>& handle : handles_) {
    TSB_CHECK(handle != nullptr);
  }
}

ShardedTopologyStore::ShardedTopologyStore(size_t num_shards)
    : ShardedTopologyStore([num_shards]() {
        TSB_CHECK_GE(num_shards, 1u);
        std::vector<std::shared_ptr<core::TopologyStore>> shards;
        shards.reserve(num_shards);
        for (size_t i = 0; i < num_shards; ++i) {
          shards.push_back(std::make_shared<core::TopologyStore>());
        }
        return shards;
      }()) {}

std::vector<std::shared_ptr<core::TopologyStore>>
ShardedTopologyStore::SnapshotAll() const {
  std::vector<std::shared_ptr<core::TopologyStore>> snapshots;
  snapshots.reserve(handles_.size());
  for (const std::shared_ptr<core::StoreHandle>& handle : handles_) {
    snapshots.push_back(handle->Snapshot());
  }
  return snapshots;
}

Status ShardedTopologyStore::Build(core::TopologyBuilder* builder,
                                   const core::BuildConfig& config,
                                   service::ThreadPool* pool) {
  std::vector<core::TopologyStore*> raw;
  std::vector<std::shared_ptr<core::TopologyStore>> pinned = SnapshotAll();
  raw.reserve(pinned.size());
  for (const std::shared_ptr<core::TopologyStore>& shard : pinned) {
    raw.push_back(shard.get());
  }
  return builder->BuildAllPairs(config, raw, pool);
}

std::vector<uint64_t> ShardAllTopsRowCounts(
    const storage::Catalog& db,
    const std::vector<const core::TopologyStore*>& stores) {
  std::vector<uint64_t> rows;
  rows.reserve(stores.size());
  for (const core::TopologyStore* store : stores) {
    uint64_t shard_rows = 0;
    for (const auto& [key, pair] : store->pairs()) {
      const storage::Table* table = db.FindTable(pair.alltops_table);
      if (table != nullptr) shard_rows += table->num_rows();
    }
    rows.push_back(shard_rows);
  }
  return rows;
}

std::string ShardedTopologyStore::EpochStamp() const {
  if (handles_.size() == 1) return "e" + std::to_string(handles_[0]->epoch());
  std::string stamp = "s" + std::to_string(handles_.size()) + "[";
  for (size_t i = 0; i < handles_.size(); ++i) {
    if (i > 0) stamp += ",";
    stamp += std::to_string(handles_[i]->epoch());
  }
  stamp += "]";
  return stamp;
}

}  // namespace shard
}  // namespace tsb
