#ifndef TSB_STORAGE_PREDICATE_H_
#define TSB_STORAGE_PREDICATE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/table.h"
#include "storage/value.h"

namespace tsb {

class BinaryReader;

namespace storage {

class Predicate;

/// A predicate tree flattened into a postfix program of column operations,
/// compiled once per query and evaluated over whole columns at a time.
/// Leaf ops read the typed column vectors in tight branch-light loops; a
/// `.ct()` leaf reads the column's keyword postings (Table::KeywordPostings,
/// built once per table) and sets only the posted rows, so no row's text is
/// tokenized per query. Every predicate kind compiles to these ops, and the
/// program owns its operands, so it outlives the tree it came from.
///
/// This is the one predicate evaluator: FilterRows and CountRows wrap it,
/// and the engine runs it once per query side (MethodContext::MaskA/MaskB),
/// sharing the verdict mask among every consumer of that side.
class ColumnPredicateProgram {
 public:
  struct Op {
    enum Kind : uint8_t {
      kConstTrue,    // push all-ones
      kConstFalse,   // push all-zeros
      kEqI64,        // push ints[col] == lo
      kEqF64,        // push doubles[col] == f64
      kEqStr,        // push strings[col] == str
      kContains,     // push rows posted under str in col's postings
      kBetweenI64,   // push lo <= ints[col] <= hi
      kAnd,          // pop b, pop a, push a & b
      kOr,           // pop b, pop a, push a | b
      kNot,          // pop a, push !a
    };
    Kind kind = kConstTrue;
    size_t col = 0;
    int64_t lo = 0;
    int64_t hi = 0;
    double f64 = 0.0;
    std::string str;
  };

  std::vector<Op> ops;

  /// Evaluates every row of `table` into a 0/1 mask (resized to
  /// table.num_rows()). `table` must have the schema the predicate was
  /// built against.
  void EvalAll(const Table& table, std::vector<uint8_t>* out) const;
};

/// A boolean expression over the columns of a single table. This models the
/// paper's query constraints (`con_i`): structured predicates such as
/// `DNA.type = 'mRNA'` and keyword-containment clauses such as
/// `Protein.desc.ct('enzyme')`, plus boolean combinations. A predicate has
/// three forms: its wire image, its text-grammar line, and its column
/// program.
class Predicate {
 public:
  virtual ~Predicate() = default;

  /// Appends the structural wire image of this predicate (a tag-based tree
  /// over common/binary_io.h primitives) so queries can cross a process
  /// boundary; DecodePredicate is the inverse. Every predicate kind is
  /// encodable — boolean combinators included. The image is also the
  /// predicate's identity: the result caches key on it.
  virtual void EncodeWire(std::string* out) const = 0;

  /// Appends this predicate in the RequestParser text grammar
  /// (`COL.ct('w')`, `COL='v'`, `COL.between(lo,hi)`, '&&' conjunction).
  /// Returns false when the grammar cannot express it (OR / NOT, or a
  /// string value containing a quote); callers fall back to the binary
  /// codec for those.
  virtual bool AppendGrammar(std::string*) const { return false; }

  /// Appends this predicate's postfix ops to `prog`.
  virtual void Compile(ColumnPredicateProgram* prog) const = 0;
};

using PredicateRef = std::shared_ptr<const Predicate>;

/// Flattens `pred` into a postfix column program.
ColumnPredicateProgram CompilePredicate(const Predicate& pred);

/// Rebuilds a predicate tree from its EncodeWire image, re-resolving column
/// names against `schema` (the decoding side's replica of the table). Fails
/// on unknown columns, type mismatches, and malformed bytes.
Result<PredicateRef> DecodePredicate(const TableSchema& schema,
                                     BinaryReader* in);

/// Always true; the unconstrained query.
PredicateRef MakeTrue();

/// column = value. The column's type is read from `schema`: a value of
/// that type compiles to a typed column op, and a value of another type,
/// or a null value, equals no row (one constant all-false op).
PredicateRef MakeEquals(const TableSchema& schema, const std::string& column,
                        Value value);

/// Whole-token keyword containment on a string column, case-insensitive
/// (the paper's `.ct(...)` operator; ContainsKeyword is the token rule).
/// A column of another type aborts, so parsers reject one first.
PredicateRef MakeContainsKeyword(const TableSchema& schema,
                                 const std::string& column,
                                 const std::string& keyword);

/// lo <= column <= hi on an INT64 column (checked: a column of another
/// type aborts, so parsers reject one before calling this).
PredicateRef MakeInt64Between(const TableSchema& schema,
                              const std::string& column, int64_t lo,
                              int64_t hi);

PredicateRef MakeAnd(PredicateRef lhs, PredicateRef rhs);
PredicateRef MakeOr(PredicateRef lhs, PredicateRef rhs);
PredicateRef MakeNot(PredicateRef inner);

/// Collects the row indexes of `table` satisfying `pred` (ascending), via
/// CompilePredicate(pred).EvalAll.
std::vector<RowIdx> FilterRows(const Table& table, const Predicate& pred);

/// Counts satisfying rows (via EvalAll); `Selectivity` divides by the
/// table size.
size_t CountRows(const Table& table, const Predicate& pred);
double Selectivity(const Table& table, const Predicate& pred);

}  // namespace storage
}  // namespace tsb

#endif  // TSB_STORAGE_PREDICATE_H_
