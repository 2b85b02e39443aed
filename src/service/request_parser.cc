#include "service/request_parser.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <vector>

#include "common/str_util.h"
#include "storage/predicate.h"

namespace tsb {
namespace service {

namespace {

/// One request token plus where it starts in the line, so parse errors can
/// point at the offending byte.
struct Token {
  std::string text;
  size_t offset = 0;
};

/// Splits a request line into tokens on whitespace, honoring '...' quoting
/// anywhere inside a token (quotes are kept: the predicate grammar needs
/// them to distinguish strings from numbers). An unterminated quote is a
/// parse error, reported at the opening quote's offset.
Result<std::vector<Token>> TokenizeLine(const std::string& line) {
  std::vector<Token> tokens;
  Token current;
  bool in_quote = false;
  size_t quote_offset = 0;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '\'') {
      if (!in_quote) quote_offset = i;
      in_quote = !in_quote;
      if (current.text.empty()) current.offset = i;
      current.text += c;
      continue;
    }
    if (!in_quote && std::isspace(static_cast<unsigned char>(c))) {
      if (!current.text.empty()) {
        tokens.push_back(std::move(current));
        current = Token{};
      }
      continue;
    }
    if (current.text.empty()) current.offset = i;
    current.text += c;
  }
  if (in_quote) {
    return Status::InvalidArgument("unterminated quote at byte " +
                                   std::to_string(quote_offset));
  }
  if (!current.text.empty()) tokens.push_back(std::move(current));
  return tokens;
}

/// Strips one level of '...' quoting if present.
std::string Unquote(const std::string& s) {
  if (s.size() >= 2 && s.front() == '\'' && s.back() == '\'') {
    return s.substr(1, s.size() - 2);
  }
  return s;
}

/// Quotes a value for the canonical line when the grammar needs it (spaces
/// or leading quote ambiguity).
std::string MaybeQuote(const std::string& s) {
  for (char c : s) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      return "'" + s + "'";
    }
  }
  return s;
}

/// False for anything but a whole decimal integer in int64 range (strtoll
/// would clamp an out-of-range one to its limit).
bool ParseInt64(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size() || errno == ERANGE) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

std::string FieldAt(const std::string& field, size_t offset) {
  return "field '" + field + "' at byte " + std::to_string(offset);
}

}  // namespace

Result<engine::MethodKind> RequestParser::ParseMethod(
    const std::string& name) {
  const std::string m = AsciiToLower(name);
  if (m == "sql") return engine::MethodKind::kSql;
  if (m == "full-top") return engine::MethodKind::kFullTop;
  if (m == "fast-top") return engine::MethodKind::kFastTop;
  if (m == "full-topk" || m == "full-top-k") {
    return engine::MethodKind::kFullTopK;
  }
  if (m == "fast-topk" || m == "fast-top-k") {
    return engine::MethodKind::kFastTopK;
  }
  if (m == "full-topk-et" || m == "full-top-k-et") {
    return engine::MethodKind::kFullTopKEt;
  }
  if (m == "fast-topk-et" || m == "fast-top-k-et") {
    return engine::MethodKind::kFastTopKEt;
  }
  if (m == "full-topk-opt" || m == "full-top-k-opt") {
    return engine::MethodKind::kFullTopKOpt;
  }
  if (m == "fast-topk-opt" || m == "fast-top-k-opt") {
    return engine::MethodKind::kFastTopKOpt;
  }
  return Status::InvalidArgument("unknown method '" + name + "'");
}

Result<core::RankScheme> RequestParser::ParseScheme(const std::string& name) {
  const std::string s = AsciiToLower(name);
  if (s == "freq") return core::RankScheme::kFreq;
  if (s == "rare") return core::RankScheme::kRare;
  if (s == "domain") return core::RankScheme::kDomain;
  return Status::InvalidArgument("unknown ranking scheme '" + name + "'");
}

const char* RequestParser::MethodName(engine::MethodKind method) {
  switch (method) {
    case engine::MethodKind::kSql:
      return "sql";
    case engine::MethodKind::kFullTop:
      return "full-top";
    case engine::MethodKind::kFastTop:
      return "fast-top";
    case engine::MethodKind::kFullTopK:
      return "full-topk";
    case engine::MethodKind::kFastTopK:
      return "fast-topk";
    case engine::MethodKind::kFullTopKEt:
      return "full-topk-et";
    case engine::MethodKind::kFastTopKEt:
      return "fast-topk-et";
    case engine::MethodKind::kFullTopKOpt:
      return "full-topk-opt";
    case engine::MethodKind::kFastTopKOpt:
      return "fast-topk-opt";
  }
  return "fast-topk-et";
}

const char* RequestParser::SchemeName(core::RankScheme scheme) {
  switch (scheme) {
    case core::RankScheme::kFreq:
      return "freq";
    case core::RankScheme::kRare:
      return "rare";
    case core::RankScheme::kDomain:
      return "domain";
  }
  return "freq";
}

Result<std::string> RequestParser::Format(const ParsedRequest& request) {
  const bool topk = engine::MethodIsTopK(request.method);
  std::string line = topk ? "TOPK" : "TOP";
  line += " method=";
  line += MethodName(request.method);
  if (topk) {
    line += " k=" + std::to_string(request.query.k);
  }
  line += " scheme=";
  line += SchemeName(request.query.scheme);

  auto append_side = [&line](const std::string& set_field,
                             const std::string& pred_field,
                             const std::string& set,
                             const storage::PredicateRef& pred) -> Status {
    line += " " + set_field + "=" + MaybeQuote(set);
    if (pred == nullptr) return Status::OK();
    std::string grammar;
    if (!pred->AppendGrammar(&grammar)) {
      return Status::InvalidArgument(
          pred_field +
          " predicate is outside the text grammar (it holds an OR, a NOT or "
          "a quote in a value); use the binary codec");
    }
    if (!grammar.empty()) line += " " + pred_field + "=" + grammar;
    return Status::OK();
  };
  TSB_RETURN_IF_ERROR(append_side("set1", "pred1", request.query.entity_set1,
                                  request.query.pred1));
  TSB_RETURN_IF_ERROR(append_side("set2", "pred2", request.query.entity_set2,
                                  request.query.pred2));

  if (request.query.exclude_weak) line += " exclude_weak=1";
  return line;
}

Result<storage::PredicateRef> RequestParser::ParseClause(
    const storage::TableSchema& schema, const std::string& table_name,
    const std::string& field, size_t offset,
    const std::string& clause) const {
  // The clause's column must exist; ct() and between() also need the one
  // type they read.
  auto check_column = [&](const std::string& column,
                          std::optional<storage::ColumnType> type) {
    std::optional<size_t> idx = schema.FindColumn(column);
    if (!idx.has_value()) {
      return Status::InvalidArgument(
          "no column '" + column + "' in table '" + table_name + "' (" +
          FieldAt(field, offset) + ")");
    }
    if (type.has_value() && schema.column(*idx).type != *type) {
      return Status::InvalidArgument(
          "column '" + column + "' is not " +
          storage::ColumnTypeToString(*type) + " in '" + clause + "' (" +
          FieldAt(field, offset) + ")");
    }
    return Status::OK();
  };

  // COL.ct('word')
  size_t ct_pos = clause.find(".ct(");
  if (ct_pos != std::string::npos && clause.back() == ')') {
    std::string column = clause.substr(0, ct_pos);
    std::string arg = Unquote(
        clause.substr(ct_pos + 4, clause.size() - ct_pos - 5));
    TSB_RETURN_IF_ERROR(check_column(column, storage::ColumnType::kString));
    return storage::MakeContainsKeyword(schema, column, arg);
  }

  // COL.between(lo,hi)
  size_t bt_pos = clause.find(".between(");
  if (bt_pos != std::string::npos && clause.back() == ')') {
    std::string column = clause.substr(0, bt_pos);
    std::string args =
        clause.substr(bt_pos + 9, clause.size() - bt_pos - 10);
    std::vector<std::string> bounds = StrSplit(args, ',');
    int64_t lo = 0;
    int64_t hi = 0;
    if (bounds.size() != 2) {
      return Status::InvalidArgument(
          "between() takes exactly 2 bounds, got " +
          std::to_string(bounds.size()) + " in '" + clause + "' (" +
          FieldAt(field, offset) + ")");
    }
    if (!ParseInt64(bounds[0], &lo) || !ParseInt64(bounds[1], &hi)) {
      return Status::InvalidArgument("bad between() bounds in '" + clause +
                                     "' (" + FieldAt(field, offset) + ")");
    }
    TSB_RETURN_IF_ERROR(check_column(column, storage::ColumnType::kInt64));
    return storage::MakeInt64Between(schema, column, lo, hi);
  }

  // COL='value' or COL=42 — typed by the column.
  size_t eq_pos = clause.find('=');
  if (eq_pos != std::string::npos) {
    std::string column = clause.substr(0, eq_pos);
    std::string raw = clause.substr(eq_pos + 1);
    if (!raw.empty() && raw.front() == '=') {
      return Status::InvalidArgument("use '=' not '==' in '" + clause +
                                     "' (" + FieldAt(field, offset) + ")");
    }
    TSB_RETURN_IF_ERROR(check_column(column, std::nullopt));
    const storage::ColumnType type =
        schema.column(schema.ColumnIndexOrDie(column)).type;
    storage::Value value;
    switch (type) {
      case storage::ColumnType::kInt64: {
        int64_t v = 0;
        if (!ParseInt64(Unquote(raw), &v)) {
          return Status::InvalidArgument(
              "expected integer for '" + column + "' in '" + clause +
              "' (" + FieldAt(field, offset) + ")");
        }
        value = storage::Value(v);
        break;
      }
      case storage::ColumnType::kDouble: {
        const std::string unquoted = Unquote(raw);
        char* end = nullptr;
        double v = std::strtod(unquoted.c_str(), &end);
        if (unquoted.empty() || end != unquoted.c_str() + unquoted.size()) {
          return Status::InvalidArgument(
              "expected number for '" + column + "' in '" + clause +
              "' (" + FieldAt(field, offset) + ")");
        }
        value = storage::Value(v);
        break;
      }
      case storage::ColumnType::kString:
        value = storage::Value(Unquote(raw));
        break;
    }
    return storage::MakeEquals(schema, column, std::move(value));
  }

  return Status::InvalidArgument("cannot parse predicate clause '" + clause +
                                 "' (" + FieldAt(field, offset) + ")");
}

Result<storage::PredicateRef> RequestParser::ParsePredicate(
    const std::string& entity_set, const std::string& field, size_t offset,
    const std::string& expr) const {
  const storage::EntitySetDef* def = db_->FindEntitySet(entity_set);
  if (def == nullptr) {
    return Status::NotFound("unknown entity set '" + entity_set + "' (" +
                            FieldAt(field, offset) + ")");
  }
  const storage::Table* table = db_->GetTable(def->table_name);
  const storage::TableSchema& schema = table->schema();

  // '&&'-separated conjunction of clauses.
  storage::PredicateRef pred;
  size_t start = 0;
  while (start <= expr.size()) {
    size_t split = expr.find("&&", start);
    std::string clause = expr.substr(
        start, split == std::string::npos ? std::string::npos
                                          : split - start);
    if (clause.empty()) {
      return Status::InvalidArgument("empty predicate clause in '" + expr +
                                     "' (" + FieldAt(field, offset + start) +
                                     ")");
    }
    TSB_ASSIGN_OR_RETURN(
        storage::PredicateRef clause_pred,
        ParseClause(schema, def->table_name, field, offset + start, clause));
    pred = pred == nullptr
               ? clause_pred
               : storage::MakeAnd(std::move(pred), std::move(clause_pred));
    if (split == std::string::npos) break;
    start = split + 2;
  }
  return pred;
}

Result<ParsedRequest> RequestParser::Parse(const std::string& line) const {
  TSB_ASSIGN_OR_RETURN(std::vector<Token> tokens, TokenizeLine(line));
  if (tokens.empty()) {
    return Status::InvalidArgument("empty request line");
  }

  ParsedRequest req;
  const std::string verb = AsciiToLower(tokens[0].text);
  if (verb == "topk") {
    req.method = engine::MethodKind::kFastTopKEt;
  } else if (verb == "top") {
    req.method = engine::MethodKind::kFastTop;
  } else {
    return Status::InvalidArgument("unknown verb '" + tokens[0].text +
                                   "' (expected TOP or TOPK)");
  }

  std::string pred1_expr;
  std::string pred2_expr;
  size_t pred1_offset = 0;
  size_t pred2_offset = 0;
  bool method_given = false;
  for (size_t i = 1; i < tokens.size(); ++i) {
    const std::string& token = tokens[i].text;
    size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("expected key=value, got '" + token +
                                     "' at byte " +
                                     std::to_string(tokens[i].offset));
    }
    const std::string key = AsciiToLower(token.substr(0, eq));
    const std::string value = token.substr(eq + 1);
    // Offset of the value half, where malformed content actually sits.
    const size_t value_offset = tokens[i].offset + eq + 1;
    if (key == "set1") {
      req.query.entity_set1 = Unquote(value);
    } else if (key == "set2") {
      req.query.entity_set2 = Unquote(value);
    } else if (key == "pred1") {
      pred1_expr = value;
      pred1_offset = value_offset;
    } else if (key == "pred2") {
      pred2_expr = value;
      pred2_offset = value_offset;
    } else if (key == "method") {
      Result<engine::MethodKind> method = ParseMethod(value);
      if (!method.ok()) {
        return Status::InvalidArgument(method.status().message() + " (" +
                                       FieldAt(key, value_offset) + ")");
      }
      req.method = *method;
      method_given = true;
    } else if (key == "scheme") {
      Result<core::RankScheme> scheme = ParseScheme(value);
      if (!scheme.ok()) {
        return Status::InvalidArgument(scheme.status().message() + " (" +
                                       FieldAt(key, value_offset) + ")");
      }
      req.query.scheme = *scheme;
    } else if (key == "k") {
      int64_t k = 0;
      if (!ParseInt64(value, &k) || k < 0) {
        return Status::InvalidArgument("bad k '" + value + "' (" +
                                       FieldAt(key, value_offset) + ")");
      }
      req.query.k = static_cast<size_t>(k);
    } else if (key == "exclude_weak") {
      req.query.exclude_weak = (value == "1" || AsciiToLower(value) == "true");
    } else {
      return Status::InvalidArgument("unknown field '" + key +
                                     "' at byte " +
                                     std::to_string(tokens[i].offset));
    }
  }

  if (req.query.entity_set1.empty() || req.query.entity_set2.empty()) {
    return Status::InvalidArgument("set1= and set2= are required");
  }
  if (verb == "top" && method_given && engine::MethodIsTopK(req.method)) {
    return Status::InvalidArgument(
        "TOP requires a full-result method (sql, full-top, fast-top)");
  }
  if (verb == "topk" && method_given && !engine::MethodIsTopK(req.method)) {
    return Status::InvalidArgument("TOPK requires a top-k method");
  }

  if (!pred1_expr.empty()) {
    TSB_ASSIGN_OR_RETURN(
        req.query.pred1,
        ParsePredicate(req.query.entity_set1, "pred1", pred1_offset,
                       pred1_expr));
  }
  if (!pred2_expr.empty()) {
    TSB_ASSIGN_OR_RETURN(
        req.query.pred2,
        ParsePredicate(req.query.entity_set2, "pred2", pred2_offset,
                       pred2_expr));
  }
  return req;
}

}  // namespace service
}  // namespace tsb
