#ifndef TSB_STORAGE_INDEX_H_
#define TSB_STORAGE_INDEX_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/table.h"

namespace tsb {
namespace storage {

/// An equality index over an INT64 column (primary keys and foreign keys).
/// Lookup returns the row indexes holding the key, in insertion order.
class HashIndex {
 public:
  /// Builds over `table[column]`; the column must be INT64.
  HashIndex(const Table& table, const std::string& column);

  /// Rows whose indexed column equals `key` (possibly empty).
  const std::vector<RowIdx>& Lookup(int64_t key) const;

  /// True if at least one row holds `key`.
  bool Contains(int64_t key) const { return !Lookup(key).empty(); }

  size_t num_keys() const { return map_.size(); }
  const std::string& column() const { return column_; }

  /// Number of distinct keys; used by optimizer statistics.
  size_t DistinctKeys() const { return map_.size(); }

 private:
  std::string column_;
  std::unordered_map<int64_t, std::vector<RowIdx>> map_;
  std::vector<RowIdx> empty_;
};

/// The keyword postings of one STRING column: every token of the `.ct()`
/// analysis (TokenizeKeywords) maps to the rows whose text holds it, in
/// ascending order. A row is in Lookup(k) exactly when
/// ContainsKeyword(text, k) holds. Tables own one per string column
/// (Table::KeywordPostings), built on the first `.ct()` evaluation.
class KeywordIndex {
 public:
  /// Builds over `column`, which must be STRING.
  explicit KeywordIndex(const Column& column);

  /// Rows whose text contains `keyword` as a token (case-insensitive),
  /// sorted ascending.
  const std::vector<RowIdx>& Lookup(const std::string& keyword) const;

  /// Rows of the column when the postings were built.
  size_t num_rows() const { return num_rows_; }

 private:
  size_t num_rows_ = 0;
  std::unordered_map<std::string, std::vector<RowIdx>> map_;
  std::vector<RowIdx> empty_;
};

}  // namespace storage
}  // namespace tsb

#endif  // TSB_STORAGE_INDEX_H_
