#ifndef TSB_EXEC_DGJ_H_
#define TSB_EXEC_DGJ_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/operator.h"
#include "storage/index.h"
#include "storage/table.h"

namespace tsb {
namespace exec {

/// The grouped source at the bottom of a DGJ plan: each input tuple is its
/// own group (e.g. the TopoInfo index scan in score order of Figure 15,
/// where each group is one topology).
class GroupSourceOp : public GroupedOperator {
 public:
  GroupSourceOp(std::vector<Tuple> tuples, OutputSchema schema);

  void Open() override;
  bool Next(Tuple* out) override;
  void AdvanceToNextGroup() override;
  const OutputSchema& schema() const override { return schema_; }

 private:
  std::vector<Tuple> tuples_;
  OutputSchema schema_;
  size_t next_ = 0;
};

/// IDGJ (Section 5.3): index nested-loops implementation of the Distinct
/// Group Join. Preserves the group order of its outer input (property a)
/// and implements `AdvanceToNextGroup` by abandoning the current probe and
/// delegating the skip to its input (property b).
///
/// The level's pushed-down predicate arrives evaluated: `inner_mask` holds
/// one verdict byte per inner-table row (1 = the row qualifies); a null
/// mask admits every row.
class IdgjOp : public GroupedOperator {
 public:
  IdgjOp(std::unique_ptr<GroupedOperator> outer, const storage::Table* inner,
         const storage::HashIndex* index, std::string inner_alias,
         std::string outer_key,
         const std::vector<uint8_t>* inner_mask = nullptr);

  void Open() override;
  bool Next(Tuple* out) override;
  void AdvanceToNextGroup() override;
  const OutputSchema& schema() const override { return schema_; }
  OpCounters TreeCounters() const override;

 private:
  std::unique_ptr<GroupedOperator> outer_;
  const storage::Table* inner_;
  const storage::HashIndex* index_;
  size_t outer_key_;
  const std::vector<uint8_t>* inner_mask_;
  OutputSchema schema_;

  Tuple current_outer_;
  const std::vector<storage::RowIdx>* matches_ = nullptr;
  size_t match_pos_ = 0;
};

/// HDGJ (Section 5.3): hash-join implementation of the Distinct Group Join.
/// A regular hash join would destroy group order, so HDGJ joins one group at
/// a time — and, as the paper notes, "the inner relation may be evaluated
/// multiple times, once for each group": the hash table over the inner
/// table (rescanned and refiltered through `inner_mask`, as for IdgjOp) is
/// rebuilt per group, which is exactly the overhead the cost-based
/// optimizer of Section 5.4 weighs against early-termination savings.
class HdgjOp : public GroupedOperator {
 public:
  /// `group_key` names the outer column whose value delimits groups.
  HdgjOp(std::unique_ptr<GroupedOperator> outer, const storage::Table* inner,
         std::string inner_alias, std::string inner_key,
         std::string outer_key, std::string group_key,
         const std::vector<uint8_t>* inner_mask = nullptr);

  void Open() override;
  bool Next(Tuple* out) override;
  void AdvanceToNextGroup() override;
  const OutputSchema& schema() const override { return schema_; }
  OpCounters TreeCounters() const override;

 private:
  /// Pulls the next group of outer tuples into group_buffer_.
  bool LoadNextGroup();
  /// Builds the per-group hash table over the inner relation.
  void BuildInnerHash();

  std::unique_ptr<GroupedOperator> outer_;
  const storage::Table* inner_;
  size_t inner_key_col_;
  size_t outer_key_;
  size_t group_key_;
  const std::vector<uint8_t>* inner_mask_;
  OutputSchema schema_;

  std::unordered_map<int64_t, std::vector<storage::RowIdx>> inner_hash_;
  std::vector<Tuple> group_buffer_;
  size_t buffer_pos_ = 0;
  const std::vector<storage::RowIdx>* matches_ = nullptr;
  size_t match_pos_ = 0;
  Tuple pending_outer_;  // First tuple of the *next* group (lookahead).
  bool has_pending_ = false;
  bool outer_exhausted_ = false;
};

/// Driver for distinct-top-k plans: pulls tuples from a grouped plan, emits
/// the group key of the first tuple of each group, skips the rest of the
/// group via AdvanceToNextGroup, and stops after `k` groups — the
/// early-termination behaviour of Fast-Top-k-ET.
std::vector<Tuple> FirstTuplePerGroup(GroupedOperator* plan,
                                      const std::string& group_key, size_t k);

}  // namespace exec
}  // namespace tsb

#endif  // TSB_EXEC_DGJ_H_
