#ifndef TSB_STORAGE_TABLE_H_
#define TSB_STORAGE_TABLE_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/column.h"
#include "storage/value.h"

namespace tsb {
namespace storage {

class KeywordIndex;  // storage/index.h

/// A named, typed column in a table schema.
struct ColumnDef {
  std::string name;
  ColumnType type;
};

/// The ordered column layout of a table.
class TableSchema {
 public:
  TableSchema() = default;
  explicit TableSchema(std::vector<ColumnDef> columns);

  size_t num_columns() const { return columns_.size(); }
  const ColumnDef& column(size_t i) const { return columns_[i]; }
  const std::vector<ColumnDef>& columns() const { return columns_; }

  /// Index of the named column, or nullopt.
  std::optional<size_t> FindColumn(const std::string& name) const;
  /// Index of the named column; aborts if absent (for engine-internal
  /// schemas that are known statically).
  size_t ColumnIndexOrDie(const std::string& name) const;

  std::string ToString() const;

 private:
  std::vector<ColumnDef> columns_;
};

/// An append-only, columnar, in-memory table. Row identity is the row index
/// (RowIdx); deletions are not needed by any component (Biozon-style bulk
/// rebuild, per Section 3.2 of the paper).
class Table {
 public:
  Table(std::string name, TableSchema schema);

  const std::string& name() const { return name_; }
  const TableSchema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  /// Appends a row given boxed values (arity and types must match).
  Status AppendRow(const Tuple& values);
  /// Appends a row, aborting on schema mismatch. For generator hot paths.
  void AppendRowOrDie(const Tuple& values);

  const Column& column(size_t i) const { return columns_[i]; }

  /// The keyword postings of STRING column `col`, which answer `.ct()`
  /// predicates without tokenizing a row. Built on first use, rebuilt on
  /// the first use after an append (so an appended row is never missed),
  /// and dropped with the table. Safe from concurrent readers: tables are
  /// append-only, and appends never race reads.
  std::shared_ptr<const KeywordIndex> KeywordPostings(size_t col) const;

  /// Boxed cell access.
  Value GetValue(RowIdx row, size_t col) const {
    return columns_[col].GetValue(row);
  }
  /// Typed fast-path accessors.
  int64_t GetInt64(RowIdx row, size_t col) const {
    return columns_[col].GetInt64(row);
  }
  const std::string& GetString(RowIdx row, size_t col) const {
    return columns_[col].GetString(row);
  }

  /// Materializes a full row.
  Tuple GetRow(RowIdx row) const;

  /// Approximate heap footprint (columns only), for space accounting.
  size_t MemoryBytes() const;

 private:
  std::string name_;
  TableSchema schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
  /// One lazily built postings slot per column; see KeywordPostings.
  mutable std::mutex postings_mu_;
  mutable std::vector<std::shared_ptr<const KeywordIndex>> postings_;
};

}  // namespace storage
}  // namespace tsb

#endif  // TSB_STORAGE_TABLE_H_
