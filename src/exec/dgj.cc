#include "exec/dgj.h"

#include "common/logging.h"

namespace tsb {
namespace exec {
namespace {

OutputSchema TableSchemaWithAlias(const storage::Table& table,
                                  const std::string& alias) {
  std::vector<std::string> names;
  for (const storage::ColumnDef& def : table.schema().columns()) {
    names.push_back(alias + "." + def.name);
  }
  return OutputSchema(std::move(names));
}

}  // namespace

GroupSourceOp::GroupSourceOp(std::vector<Tuple> tuples, OutputSchema schema)
    : tuples_(std::move(tuples)), schema_(std::move(schema)) {}

void GroupSourceOp::Open() {
  next_ = 0;
  counters_ = OpCounters{};
}

bool GroupSourceOp::Next(Tuple* out) {
  if (next_ >= tuples_.size()) return false;
  *out = tuples_[next_++];
  ++counters_.rows_out;
  return true;
}

void GroupSourceOp::AdvanceToNextGroup() {
  // Each tuple is its own group, which is already exhausted once returned;
  // nothing to skip.
}

IdgjOp::IdgjOp(std::unique_ptr<GroupedOperator> outer,
               const storage::Table* inner, const storage::HashIndex* index,
               std::string inner_alias, std::string outer_key,
               const std::vector<uint8_t>* inner_mask)
    : outer_(std::move(outer)),
      inner_(inner),
      index_(index),
      outer_key_(outer_->schema().IndexOf(outer_key)),
      inner_mask_(inner_mask),
      schema_(OutputSchema::Concat(outer_->schema(),
                                   TableSchemaWithAlias(*inner, inner_alias))) {
}

void IdgjOp::Open() {
  counters_ = OpCounters{};
  matches_ = nullptr;
  match_pos_ = 0;
  outer_->Open();
}

bool IdgjOp::Next(Tuple* out) {
  for (;;) {
    if (matches_ != nullptr) {
      while (match_pos_ < matches_->size()) {
        storage::RowIdx row = (*matches_)[match_pos_++];
        ++counters_.rows_scanned;
        if (inner_mask_ != nullptr && !(*inner_mask_)[row]) continue;
        Tuple inner_tuple = inner_->GetRow(row);
        *out = current_outer_;
        out->insert(out->end(), inner_tuple.begin(), inner_tuple.end());
        ++counters_.rows_out;
        return true;
      }
      matches_ = nullptr;
    }
    if (!outer_->Next(&current_outer_)) return false;
    ++counters_.probes;
    matches_ = &index_->Lookup(current_outer_[outer_key_].AsInt64());
    match_pos_ = 0;
  }
}

void IdgjOp::AdvanceToNextGroup() {
  // Abandon the current probe and skip the remainder of the group below.
  matches_ = nullptr;
  match_pos_ = 0;
  outer_->AdvanceToNextGroup();
}

OpCounters IdgjOp::TreeCounters() const {
  OpCounters c = counters_;
  c += outer_->TreeCounters();
  return c;
}

HdgjOp::HdgjOp(std::unique_ptr<GroupedOperator> outer,
               const storage::Table* inner, std::string inner_alias,
               std::string inner_key, std::string outer_key,
               std::string group_key, const std::vector<uint8_t>* inner_mask)
    : outer_(std::move(outer)),
      inner_(inner),
      inner_key_col_(inner->schema().ColumnIndexOrDie(inner_key)),
      outer_key_(outer_->schema().IndexOf(outer_key)),
      group_key_(outer_->schema().IndexOf(group_key)),
      inner_mask_(inner_mask),
      schema_(OutputSchema::Concat(outer_->schema(),
                                   TableSchemaWithAlias(*inner, inner_alias))) {
}

void HdgjOp::Open() {
  counters_ = OpCounters{};
  inner_hash_.clear();
  group_buffer_.clear();
  buffer_pos_ = 0;
  matches_ = nullptr;
  match_pos_ = 0;
  has_pending_ = false;
  outer_exhausted_ = false;
  outer_->Open();
}

bool HdgjOp::LoadNextGroup() {
  group_buffer_.clear();
  buffer_pos_ = 0;
  if (!has_pending_) {
    if (outer_exhausted_) return false;
    Tuple first;
    if (!outer_->Next(&first)) {
      outer_exhausted_ = true;
      return false;
    }
    pending_outer_ = std::move(first);
    has_pending_ = true;
  }
  const Value group = pending_outer_[group_key_];
  group_buffer_.push_back(std::move(pending_outer_));
  has_pending_ = false;
  Tuple t;
  while (outer_->Next(&t)) {
    if (!(t[group_key_] == group)) {
      pending_outer_ = std::move(t);
      has_pending_ = true;
      break;
    }
    group_buffer_.push_back(std::move(t));
  }
  if (!has_pending_) outer_exhausted_ = true;
  return true;
}

void HdgjOp::BuildInnerHash() {
  // The defining overhead of HDGJ: the inner relation is rescanned,
  // refiltered and rehashed for every group.
  inner_hash_.clear();
  const size_t n = inner_->num_rows();
  const storage::Column& key_col = inner_->column(inner_key_col_);
  for (size_t i = 0; i < n; ++i) {
    storage::RowIdx row = static_cast<storage::RowIdx>(i);
    ++counters_.rows_scanned;
    if (inner_mask_ != nullptr && !(*inner_mask_)[row]) continue;
    inner_hash_[key_col.GetInt64(row)].push_back(row);
  }
  ++counters_.builds;
}

bool HdgjOp::Next(Tuple* out) {
  for (;;) {
    if (matches_ != nullptr && match_pos_ < matches_->size()) {
      storage::RowIdx row = (*matches_)[match_pos_++];
      Tuple inner_tuple = inner_->GetRow(row);
      *out = group_buffer_[buffer_pos_];
      out->insert(out->end(), inner_tuple.begin(), inner_tuple.end());
      ++counters_.rows_out;
      return true;
    }
    if (matches_ != nullptr) {
      matches_ = nullptr;
      ++buffer_pos_;
    }
    while (buffer_pos_ < group_buffer_.size()) {
      ++counters_.probes;
      auto it =
          inner_hash_.find(group_buffer_[buffer_pos_][outer_key_].AsInt64());
      if (it != inner_hash_.end()) {
        matches_ = &it->second;
        match_pos_ = 0;
        break;
      }
      ++buffer_pos_;
    }
    if (matches_ != nullptr) continue;
    // Current group exhausted; load the next one and rebuild the inner hash.
    if (!LoadNextGroup()) return false;
    BuildInnerHash();
  }
}

void HdgjOp::AdvanceToNextGroup() {
  // Drop buffered output of the current group. LoadNextGroup drains a full
  // group before emitting, so the input is never mid-group here: the
  // lookahead tuple (if any) already belongs to the next group.
  matches_ = nullptr;
  match_pos_ = 0;
  group_buffer_.clear();
  buffer_pos_ = 0;
}

OpCounters HdgjOp::TreeCounters() const {
  OpCounters c = counters_;
  c += outer_->TreeCounters();
  return c;
}

std::vector<Tuple> FirstTuplePerGroup(GroupedOperator* plan,
                                      const std::string& group_key,
                                      size_t k) {
  size_t key = plan->schema().IndexOf(group_key);
  std::vector<Tuple> out;
  plan->Open();
  Tuple t;
  Value last_group;
  bool have_last = false;
  while (out.size() < k && plan->Next(&t)) {
    // Defensive: AdvanceToNextGroup may deliver another tuple of the same
    // group when an operator cannot skip below a buffered boundary; dedupe.
    if (have_last && t[key] == last_group) continue;
    last_group = t[key];
    have_last = true;
    out.push_back(t);
    plan->AdvanceToNextGroup();
  }
  return out;
}

}  // namespace exec
}  // namespace tsb
