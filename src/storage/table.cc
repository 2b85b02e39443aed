#include "storage/table.h"

#include "common/logging.h"
#include "common/str_util.h"
#include "storage/index.h"

namespace tsb {
namespace storage {

TableSchema::TableSchema(std::vector<ColumnDef> columns)
    : columns_(std::move(columns)) {}

std::optional<size_t> TableSchema::FindColumn(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return i;
  }
  return std::nullopt;
}

size_t TableSchema::ColumnIndexOrDie(const std::string& name) const {
  std::optional<size_t> idx = FindColumn(name);
  TSB_CHECK(idx.has_value()) << "no column named '" << name << "' in schema "
                             << ToString();
  return *idx;
}

std::string TableSchema::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(columns_.size());
  for (const ColumnDef& c : columns_) {
    parts.push_back(c.name + ":" + ColumnTypeToString(c.type));
  }
  return "(" + StrJoin(parts, ", ") + ")";
}

Table::Table(std::string name, TableSchema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  columns_.reserve(schema_.num_columns());
  for (const ColumnDef& def : schema_.columns()) {
    columns_.emplace_back(def.type);
  }
  postings_.resize(columns_.size());
}

namespace {

bool ValueMatchesType(const Value& v, ColumnType type) {
  switch (type) {
    case ColumnType::kInt64:
      return v.is_int64();
    case ColumnType::kDouble:
      return v.is_double();
    case ColumnType::kString:
      return v.is_string();
  }
  return false;
}

}  // namespace

Status Table::AppendRow(const Tuple& values) {
  if (values.size() != columns_.size()) {
    return Status::InvalidArgument(
        StrFormat("row arity %zu does not match table '%s' with %zu columns",
                  values.size(), name_.c_str(), columns_.size()));
  }
  for (size_t i = 0; i < values.size(); ++i) {
    if (!ValueMatchesType(values[i], columns_[i].type())) {
      return Status::InvalidArgument(StrFormat(
          "value '%s' does not match type %s of column '%s' in table '%s'",
          values[i].ToString().c_str(),
          ColumnTypeToString(columns_[i].type()),
          schema_.column(i).name.c_str(), name_.c_str()));
    }
  }
  for (size_t i = 0; i < values.size(); ++i) {
    columns_[i].AppendValue(values[i]);
  }
  ++num_rows_;
  return Status::OK();
}

void Table::AppendRowOrDie(const Tuple& values) {
  Status s = AppendRow(values);
  TSB_CHECK(s.ok()) << s.ToString();
}

std::shared_ptr<const KeywordIndex> Table::KeywordPostings(size_t col) const {
  TSB_CHECK_LT(col, columns_.size());
  // Built under the lock: racing first users need the same postings, so
  // they wait for one build instead of each tokenizing the column.
  std::lock_guard<std::mutex> lock(postings_mu_);
  std::shared_ptr<const KeywordIndex>& slot = postings_[col];
  if (slot == nullptr || slot->num_rows() != num_rows_) {
    slot = std::make_shared<const KeywordIndex>(columns_[col]);
  }
  return slot;
}

Tuple Table::GetRow(RowIdx row) const {
  Tuple out;
  out.reserve(columns_.size());
  for (const Column& col : columns_) {
    out.push_back(col.GetValue(row));
  }
  return out;
}

size_t Table::MemoryBytes() const {
  size_t total = 0;
  for (const Column& col : columns_) total += col.MemoryBytes();
  return total;
}

}  // namespace storage
}  // namespace tsb
