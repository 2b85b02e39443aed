#include "storage/index.h"

#include <algorithm>

#include "common/logging.h"
#include "common/str_util.h"

namespace tsb {
namespace storage {

HashIndex::HashIndex(const Table& table, const std::string& column)
    : column_(column) {
  size_t col = table.schema().ColumnIndexOrDie(column);
  TSB_CHECK(table.column(col).type() == ColumnType::kInt64)
      << "hash index requires INT64 column, got "
      << ColumnTypeToString(table.column(col).type()) << " for " << column;
  const std::vector<int64_t>& keys = table.column(col).ints();
  map_.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    map_[keys[i]].push_back(static_cast<RowIdx>(i));
  }
}

const std::vector<RowIdx>& HashIndex::Lookup(int64_t key) const {
  auto it = map_.find(key);
  if (it == map_.end()) return empty_;
  return it->second;
}

KeywordIndex::KeywordIndex(const Column& column) : num_rows_(column.size()) {
  TSB_CHECK(column.type() == ColumnType::kString)
      << "keyword index requires STRING column";
  const std::vector<std::string>& texts = column.strings();
  for (size_t i = 0; i < texts.size(); ++i) {
    std::vector<std::string> tokens = TokenizeKeywords(texts[i]);
    std::sort(tokens.begin(), tokens.end());
    tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
    for (std::string& token : tokens) {
      map_[std::move(token)].push_back(static_cast<RowIdx>(i));
    }
  }
}

const std::vector<RowIdx>& KeywordIndex::Lookup(
    const std::string& keyword) const {
  auto it = map_.find(AsciiToLower(keyword));
  if (it == map_.end()) return empty_;
  return it->second;
}

}  // namespace storage
}  // namespace tsb
