#include "storage/predicate.h"

#include <algorithm>

#include "common/binary_io.h"
#include "common/logging.h"
#include "common/str_util.h"
#include "storage/index.h"

namespace tsb {
namespace storage {
namespace {

/// Wire tags of the structural predicate encoding (EncodeWire /
/// DecodePredicate). Append-only: a new predicate kind gets the next tag;
/// existing tags never change meaning (older peers reject unknown tags).
enum PredTag : uint8_t {
  kTagTrue = 0,
  kTagEquals = 1,
  kTagContains = 2,
  kTagBetween = 3,
  kTagAnd = 4,
  kTagOr = 5,
  kTagNot = 6,
};

enum ValueTag : uint8_t {
  kValNull = 0,
  kValInt64 = 1,
  kValDouble = 2,
  kValString = 3,
};

void EncodeValue(const Value& v, std::string* out) {
  if (v.is_int64()) {
    PutU8(out, kValInt64);
    PutI64(out, v.AsInt64());
  } else if (v.is_double()) {
    PutU8(out, kValDouble);
    PutF64(out, v.AsDouble());
  } else if (v.is_string()) {
    PutU8(out, kValString);
    PutString(out, v.AsString());
  } else {
    PutU8(out, kValNull);
  }
}

Value DecodeValue(BinaryReader* in) {
  switch (in->U8()) {
    case kValNull:
      return Value::Null();
    case kValInt64:
      return Value(in->I64());
    case kValDouble:
      return Value(in->F64());
    case kValString:
      return Value(in->String());
    default:
      in->Fail();
      return Value::Null();
  }
}

/// True when `s` is safe inside the text grammar's '...' quoting: no quote
/// of its own and no '&&' (the conjunction splitter runs before tokenizer
/// quoting is interpreted).
bool GrammarSafe(const std::string& s) {
  return s.find('\'') == std::string::npos &&
         s.find("&&") == std::string::npos;
}

using ProgOp = ColumnPredicateProgram::Op;

class TruePredicate : public Predicate {
 public:
  void EncodeWire(std::string* out) const override { PutU8(out, kTagTrue); }
  /// TRUE appends nothing: the grammar expresses it as an absent pred=
  /// field, which Format omits.
  bool AppendGrammar(std::string*) const override { return true; }

  void Compile(ColumnPredicateProgram* prog) const override {
    ProgOp op;
    op.kind = ProgOp::kConstTrue;
    prog->ops.push_back(std::move(op));
  }
};

class EqualsPredicate : public Predicate {
 public:
  EqualsPredicate(size_t col, ColumnType type, std::string col_name,
                  Value value)
      : col_(col),
        type_(type),
        col_name_(std::move(col_name)),
        value_(std::move(value)) {}

  void EncodeWire(std::string* out) const override {
    PutU8(out, kTagEquals);
    PutString(out, col_name_);
    EncodeValue(value_, out);
  }

  bool AppendGrammar(std::string* out) const override {
    if (value_.is_int64()) {
      out->append(col_name_ + "=" + std::to_string(value_.AsInt64()));
      return true;
    }
    if (value_.is_double()) {
      // %.17g round-trips every finite double through strtod.
      out->append(col_name_ + "=" +
                  StrFormat("%.17g", value_.AsDouble()));
      return true;
    }
    if (value_.is_string() && GrammarSafe(value_.AsString())) {
      out->append(col_name_ + "='" + value_.AsString() + "'");
      return true;
    }
    return false;
  }

  void Compile(ColumnPredicateProgram* prog) const override {
    ProgOp op;
    op.col = col_;
    if (value_.is_int64() && type_ == ColumnType::kInt64) {
      op.kind = ProgOp::kEqI64;
      op.lo = value_.AsInt64();
    } else if (value_.is_double() && type_ == ColumnType::kDouble) {
      op.kind = ProgOp::kEqF64;
      op.f64 = value_.AsDouble();
    } else if (value_.is_string() && type_ == ColumnType::kString) {
      op.kind = ProgOp::kEqStr;
      op.str = value_.AsString();
    } else {
      // A null value, or one whose type disagrees with the column, equals
      // no row.
      op.kind = ProgOp::kConstFalse;
    }
    prog->ops.push_back(std::move(op));
  }

 private:
  size_t col_;
  ColumnType type_;
  std::string col_name_;
  Value value_;
};

class ContainsKeywordPredicate : public Predicate {
 public:
  ContainsKeywordPredicate(size_t col, std::string col_name,
                           std::string keyword)
      : col_(col),
        col_name_(std::move(col_name)),
        keyword_(AsciiToLower(keyword)) {}

  void EncodeWire(std::string* out) const override {
    PutU8(out, kTagContains);
    PutString(out, col_name_);
    PutString(out, keyword_);
  }

  bool AppendGrammar(std::string* out) const override {
    if (!GrammarSafe(keyword_) ||
        keyword_.find(')') != std::string::npos) {
      return false;
    }
    out->append(col_name_ + ".ct('" + keyword_ + "')");
    return true;
  }

  void Compile(ColumnPredicateProgram* prog) const override {
    ProgOp op;
    op.kind = ProgOp::kContains;
    op.col = col_;
    op.str = keyword_;
    prog->ops.push_back(std::move(op));
  }

 private:
  size_t col_;
  std::string col_name_;
  std::string keyword_;
};

class Int64BetweenPredicate : public Predicate {
 public:
  Int64BetweenPredicate(size_t col, std::string col_name, int64_t lo,
                        int64_t hi)
      : col_(col), col_name_(std::move(col_name)), lo_(lo), hi_(hi) {}

  void EncodeWire(std::string* out) const override {
    PutU8(out, kTagBetween);
    PutString(out, col_name_);
    PutI64(out, lo_);
    PutI64(out, hi_);
  }

  bool AppendGrammar(std::string* out) const override {
    out->append(col_name_ + ".between(" + std::to_string(lo_) + "," +
                std::to_string(hi_) + ")");
    return true;
  }

  void Compile(ColumnPredicateProgram* prog) const override {
    ProgOp op;
    op.kind = ProgOp::kBetweenI64;
    op.col = col_;
    op.lo = lo_;
    op.hi = hi_;
    prog->ops.push_back(std::move(op));
  }

 private:
  size_t col_;
  std::string col_name_;
  int64_t lo_;
  int64_t hi_;
};

class AndPredicate : public Predicate {
 public:
  AndPredicate(PredicateRef lhs, PredicateRef rhs)
      : lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  void EncodeWire(std::string* out) const override {
    PutU8(out, kTagAnd);
    lhs_->EncodeWire(out);
    rhs_->EncodeWire(out);
  }

  bool AppendGrammar(std::string* out) const override {
    std::string lhs, rhs;
    if (!lhs_->AppendGrammar(&lhs) || !rhs_->AppendGrammar(&rhs)) {
      return false;
    }
    // An empty side is TRUE; '&&' joins only real clauses.
    if (lhs.empty()) {
      out->append(rhs);
    } else if (rhs.empty()) {
      out->append(lhs);
    } else {
      out->append(lhs + "&&" + rhs);
    }
    return true;
  }

  void Compile(ColumnPredicateProgram* prog) const override {
    lhs_->Compile(prog);
    rhs_->Compile(prog);
    ProgOp op;
    op.kind = ProgOp::kAnd;
    prog->ops.push_back(std::move(op));
  }

 private:
  PredicateRef lhs_;
  PredicateRef rhs_;
};

class OrPredicate : public Predicate {
 public:
  OrPredicate(PredicateRef lhs, PredicateRef rhs)
      : lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  void EncodeWire(std::string* out) const override {
    PutU8(out, kTagOr);
    lhs_->EncodeWire(out);
    rhs_->EncodeWire(out);
  }

  void Compile(ColumnPredicateProgram* prog) const override {
    lhs_->Compile(prog);
    rhs_->Compile(prog);
    ProgOp op;
    op.kind = ProgOp::kOr;
    prog->ops.push_back(std::move(op));
  }

 private:
  PredicateRef lhs_;
  PredicateRef rhs_;
};

class NotPredicate : public Predicate {
 public:
  explicit NotPredicate(PredicateRef inner) : inner_(std::move(inner)) {}

  void EncodeWire(std::string* out) const override {
    PutU8(out, kTagNot);
    inner_->EncodeWire(out);
  }

  void Compile(ColumnPredicateProgram* prog) const override {
    inner_->Compile(prog);
    ProgOp op;
    op.kind = ProgOp::kNot;
    prog->ops.push_back(std::move(op));
  }

 private:
  PredicateRef inner_;
};

/// Bounds the tree depth DecodePredicate accepts, so a malicious or
/// corrupted frame cannot recurse the decoder off the stack.
constexpr int kMaxPredicateDepth = 64;

Result<PredicateRef> DecodePredicateAtDepth(const TableSchema& schema,
                                            BinaryReader* in, int depth) {
  if (depth > kMaxPredicateDepth) {
    return Status::InvalidArgument("predicate tree deeper than " +
                                   std::to_string(kMaxPredicateDepth));
  }
  const uint8_t tag = in->U8();
  if (!in->ok()) return in->status("predicate");
  switch (tag) {
    case kTagTrue:
      return MakeTrue();
    case kTagEquals: {
      std::string column = in->String();
      Value value = DecodeValue(in);
      if (!in->ok()) return in->status("equals predicate");
      std::optional<size_t> idx = schema.FindColumn(column);
      if (!idx.has_value()) {
        return Status::InvalidArgument("no column '" + column +
                                       "' for equals predicate");
      }
      // Type agreement, matching the text parser (which types the value
      // by the column): a mismatched value would silently match nothing.
      const ColumnType type = schema.column(*idx).type;
      const bool agrees = (type == ColumnType::kInt64 && value.is_int64()) ||
                          (type == ColumnType::kDouble && value.is_double()) ||
                          (type == ColumnType::kString && value.is_string());
      if (!agrees) {
        return Status::InvalidArgument(
            "equals predicate value type does not match " +
            std::string(ColumnTypeToString(type)) + " column '" + column +
            "'");
      }
      return MakeEquals(schema, column, std::move(value));
    }
    case kTagContains: {
      std::string column = in->String();
      std::string keyword = in->String();
      if (!in->ok()) return in->status("contains predicate");
      std::optional<size_t> idx = schema.FindColumn(column);
      if (!idx.has_value() ||
          schema.column(*idx).type != ColumnType::kString) {
        return Status::InvalidArgument("no string column '" + column +
                                       "' for ct() predicate");
      }
      return MakeContainsKeyword(schema, column, keyword);
    }
    case kTagBetween: {
      std::string column = in->String();
      int64_t lo = in->I64();
      int64_t hi = in->I64();
      if (!in->ok()) return in->status("between predicate");
      std::optional<size_t> idx = schema.FindColumn(column);
      if (!idx.has_value() ||
          schema.column(*idx).type != ColumnType::kInt64) {
        return Status::InvalidArgument("no INT64 column '" + column +
                                       "' for between() predicate");
      }
      return MakeInt64Between(schema, column, lo, hi);
    }
    case kTagAnd:
    case kTagOr: {
      TSB_ASSIGN_OR_RETURN(PredicateRef lhs,
                           DecodePredicateAtDepth(schema, in, depth + 1));
      TSB_ASSIGN_OR_RETURN(PredicateRef rhs,
                           DecodePredicateAtDepth(schema, in, depth + 1));
      return tag == kTagAnd ? MakeAnd(std::move(lhs), std::move(rhs))
                            : MakeOr(std::move(lhs), std::move(rhs));
    }
    case kTagNot: {
      TSB_ASSIGN_OR_RETURN(PredicateRef inner,
                           DecodePredicateAtDepth(schema, in, depth + 1));
      return MakeNot(std::move(inner));
    }
    default:
      return Status::InvalidArgument("unknown predicate wire tag " +
                                     std::to_string(tag));
  }
}

}  // namespace

void ColumnPredicateProgram::EvalAll(const Table& table,
                                     std::vector<uint8_t>* out) const {
  const size_t n = table.num_rows();
  TSB_CHECK(!ops.empty()) << "empty column-predicate program";
  // Leaf ops were typed against the schema when the predicate was built;
  // this guards a program run on a table of another schema.
  auto column = [&table](const Op& op, ColumnType type) -> const Column& {
    const Column& c = table.column(op.col);
    TSB_CHECK(c.type() == type) << "predicate op on a "
                                << ColumnTypeToString(c.type()) << " column";
    return c;
  };
  // Each op pushes/pops whole 0/1 masks; a well-formed postfix program
  // leaves exactly one on the stack.
  std::vector<std::vector<uint8_t>> stack;
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kConstTrue:
      case Op::kConstFalse:
        stack.emplace_back(n, uint8_t{op.kind == Op::kConstTrue});
        break;
      case Op::kEqI64: {
        std::vector<uint8_t> m(n, 0);
        const int64_t* v = column(op, ColumnType::kInt64).ints().data();
        const int64_t x = op.lo;
        for (size_t i = 0; i < n; ++i) m[i] = static_cast<uint8_t>(v[i] == x);
        stack.push_back(std::move(m));
        break;
      }
      case Op::kEqF64: {
        std::vector<uint8_t> m(n, 0);
        const double* v = column(op, ColumnType::kDouble).doubles().data();
        const double x = op.f64;
        for (size_t i = 0; i < n; ++i) m[i] = static_cast<uint8_t>(v[i] == x);
        stack.push_back(std::move(m));
        break;
      }
      case Op::kEqStr: {
        std::vector<uint8_t> m(n, 0);
        const std::vector<std::string>& v =
            column(op, ColumnType::kString).strings();
        for (size_t i = 0; i < n; ++i) {
          m[i] = static_cast<uint8_t>(v[i] == op.str);
        }
        stack.push_back(std::move(m));
        break;
      }
      case Op::kContains: {
        // A row is posted under a token exactly when ContainsKeyword finds
        // it in the row's text.
        std::vector<uint8_t> m(n, 0);
        (void)column(op, ColumnType::kString);
        for (RowIdx row : table.KeywordPostings(op.col)->Lookup(op.str)) {
          m[row] = 1;
        }
        stack.push_back(std::move(m));
        break;
      }
      case Op::kBetweenI64: {
        std::vector<uint8_t> m(n, 0);
        const int64_t* v = column(op, ColumnType::kInt64).ints().data();
        const int64_t lo = op.lo;
        const int64_t hi = op.hi;
        for (size_t i = 0; i < n; ++i) {
          m[i] = static_cast<uint8_t>(v[i] >= lo && v[i] <= hi);
        }
        stack.push_back(std::move(m));
        break;
      }
      case Op::kAnd: {
        TSB_CHECK(stack.size() >= 2) << "malformed predicate program";
        std::vector<uint8_t> b = std::move(stack.back());
        stack.pop_back();
        std::vector<uint8_t>& a = stack.back();
        for (size_t i = 0; i < n; ++i) a[i] &= b[i];
        break;
      }
      case Op::kOr: {
        TSB_CHECK(stack.size() >= 2) << "malformed predicate program";
        std::vector<uint8_t> b = std::move(stack.back());
        stack.pop_back();
        std::vector<uint8_t>& a = stack.back();
        for (size_t i = 0; i < n; ++i) a[i] |= b[i];
        break;
      }
      case Op::kNot: {
        TSB_CHECK(!stack.empty()) << "malformed predicate program";
        std::vector<uint8_t>& a = stack.back();
        for (size_t i = 0; i < n; ++i) a[i] ^= uint8_t{1};
        break;
      }
    }
  }
  TSB_CHECK(stack.size() == 1) << "unbalanced predicate program";
  *out = std::move(stack.back());
}

ColumnPredicateProgram CompilePredicate(const Predicate& pred) {
  ColumnPredicateProgram prog;
  pred.Compile(&prog);
  return prog;
}

Result<PredicateRef> DecodePredicate(const TableSchema& schema,
                                     BinaryReader* in) {
  return DecodePredicateAtDepth(schema, in, 0);
}

PredicateRef MakeTrue() { return std::make_shared<TruePredicate>(); }

PredicateRef MakeEquals(const TableSchema& schema, const std::string& column,
                        Value value) {
  size_t idx = schema.ColumnIndexOrDie(column);
  return std::make_shared<EqualsPredicate>(idx, schema.column(idx).type,
                                           column, std::move(value));
}

PredicateRef MakeContainsKeyword(const TableSchema& schema,
                                 const std::string& column,
                                 const std::string& keyword) {
  size_t idx = schema.ColumnIndexOrDie(column);
  TSB_CHECK(schema.column(idx).type == ColumnType::kString)
      << "keyword predicate on non-string column " << column;
  return std::make_shared<ContainsKeywordPredicate>(idx, column, keyword);
}

PredicateRef MakeInt64Between(const TableSchema& schema,
                              const std::string& column, int64_t lo,
                              int64_t hi) {
  size_t idx = schema.ColumnIndexOrDie(column);
  TSB_CHECK(schema.column(idx).type == ColumnType::kInt64)
      << "between predicate on non-INT64 column " << column;
  return std::make_shared<Int64BetweenPredicate>(idx, column, lo, hi);
}

PredicateRef MakeAnd(PredicateRef lhs, PredicateRef rhs) {
  return std::make_shared<AndPredicate>(std::move(lhs), std::move(rhs));
}

PredicateRef MakeOr(PredicateRef lhs, PredicateRef rhs) {
  return std::make_shared<OrPredicate>(std::move(lhs), std::move(rhs));
}

PredicateRef MakeNot(PredicateRef inner) {
  return std::make_shared<NotPredicate>(std::move(inner));
}

std::vector<RowIdx> FilterRows(const Table& table, const Predicate& pred) {
  std::vector<uint8_t> mask;
  CompilePredicate(pred).EvalAll(table, &mask);
  std::vector<RowIdx> out;
  for (size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) out.push_back(static_cast<RowIdx>(i));
  }
  return out;
}

size_t CountRows(const Table& table, const Predicate& pred) {
  std::vector<uint8_t> mask;
  CompilePredicate(pred).EvalAll(table, &mask);
  return static_cast<size_t>(std::count(mask.begin(), mask.end(), 1));
}

double Selectivity(const Table& table, const Predicate& pred) {
  if (table.num_rows() == 0) return 0.0;
  return static_cast<double>(CountRows(table, pred)) /
         static_cast<double>(table.num_rows());
}

}  // namespace storage
}  // namespace tsb
