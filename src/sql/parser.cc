#include "sql/parser.h"

#include <algorithm>
#include <optional>

#include "sql/lexer.h"
#include "util/string_util.h"

namespace hfq {
namespace {

/// The parser walks the token stream with one token of lookahead.
class Parser {
 public:
  Parser(std::vector<Token> tokens, const Catalog& catalog, std::string name)
      : tokens_(std::move(tokens)), catalog_(catalog) {
    query_.name = std::move(name);
  }

  Result<Query> Parse() {
    HFQ_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    HFQ_RETURN_IF_ERROR(ParseSelectList());
    HFQ_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    HFQ_RETURN_IF_ERROR(ParseFromList());
    if (AcceptKeyword("WHERE")) {
      HFQ_RETURN_IF_ERROR(ParsePredicates());
    }
    if (AcceptKeyword("GROUP")) {
      HFQ_RETURN_IF_ERROR(ExpectKeyword("BY"));
      HFQ_RETURN_IF_ERROR(ParseGroupBy());
    }
    Accept(TokenType::kSemicolon);
    if (Peek().type != TokenType::kEnd) {
      return Err("trailing input after query");
    }
    HFQ_RETURN_IF_ERROR(ResolveDeferred());
    HFQ_RETURN_IF_ERROR(query_.Validate(catalog_));
    return std::move(query_);
  }

 private:
  // --- token helpers ---
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }
  bool Accept(TokenType type) {
    if (Peek().type == type) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool PeekKeyword(const char* kw) const {
    return Peek().type == TokenType::kIdentifier &&
           ToLower(Peek().text) == ToLower(kw);
  }
  bool AcceptKeyword(const char* kw) {
    if (PeekKeyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ExpectKeyword(const char* kw) {
    if (!AcceptKeyword(kw)) {
      return Err(std::string("expected ") + kw);
    }
    return Status::OK();
  }
  Status Err(const std::string& msg) const {
    return Status::InvalidArgument(StrFormat(
        "%s at offset %zu (near '%s')", msg.c_str(), Peek().offset,
        Peek().text.c_str()));
  }

  static bool IsAggKeyword(const std::string& word, AggFunc* func) {
    std::string w = ToLower(word);
    if (w == "count") *func = AggFunc::kCount;
    else if (w == "sum") *func = AggFunc::kSum;
    else if (w == "min") *func = AggFunc::kMin;
    else if (w == "max") *func = AggFunc::kMax;
    else if (w == "avg") *func = AggFunc::kAvg;
    else return false;
    return true;
  }

  // Column references are collected as raw (qualifier, column) pairs and
  // resolved after the FROM list is known (SQL allows SELECT before FROM).
  struct RawColumn {
    std::string qualifier;  // empty if unqualified
    std::string column;
  };

  Result<RawColumn> ParseRawColumn() {
    if (Peek().type != TokenType::kIdentifier) {
      return Err("expected column reference");
    }
    RawColumn raw;
    raw.column = Advance().text;
    if (Accept(TokenType::kDot)) {
      if (Peek().type != TokenType::kIdentifier) {
        return Err("expected column name after '.'");
      }
      raw.qualifier = raw.column;
      raw.column = Advance().text;
    }
    return raw;
  }

  Status ParseSelectList() {
    if (Accept(TokenType::kStar)) return Status::OK();
    for (;;) {
      AggFunc func;
      if (Peek().type == TokenType::kIdentifier &&
          IsAggKeyword(Peek().text, &func) &&
          tokens_[pos_ + 1].type == TokenType::kLParen) {
        Advance();  // function name
        Advance();  // '('
        AggSpec agg;
        agg.func = func;
        if (Accept(TokenType::kStar)) {
          agg.has_arg = false;
        } else {
          HFQ_ASSIGN_OR_RETURN(RawColumn raw, ParseRawColumn());
          agg.has_arg = true;
          deferred_agg_args_.emplace_back(
              static_cast<int>(query_.aggregates.size()), raw);
        }
        if (!Accept(TokenType::kRParen)) return Err("expected ')'");
        query_.aggregates.push_back(agg);
      } else {
        HFQ_ASSIGN_OR_RETURN(RawColumn raw, ParseRawColumn());
        deferred_select_cols_.push_back(raw);
      }
      if (!Accept(TokenType::kComma)) break;
    }
    return Status::OK();
  }

  Status ParseFromList() {
    for (;;) {
      if (Peek().type != TokenType::kIdentifier) {
        return Err("expected table name");
      }
      RelationRef rel;
      rel.table = Advance().text;
      rel.alias = rel.table;
      if (AcceptKeyword("AS")) {
        if (Peek().type != TokenType::kIdentifier) {
          return Err("expected alias after AS");
        }
        rel.alias = Advance().text;
      } else if (Peek().type == TokenType::kIdentifier &&
                 !PeekKeyword("WHERE") && !PeekKeyword("GROUP")) {
        rel.alias = Advance().text;
      }
      query_.relations.push_back(std::move(rel));
      if (!Accept(TokenType::kComma)) break;
    }
    return Status::OK();
  }

  Result<ColumnRef> Resolve(const RawColumn& raw) {
    if (!raw.qualifier.empty()) {
      int rel = query_.RelationIndex(raw.qualifier);
      if (rel < 0) {
        return Status::NotFound("unknown alias '" + raw.qualifier + "'");
      }
      return ColumnRef{rel, raw.column};
    }
    // Unqualified: must match exactly one relation's column.
    int found_rel = -1;
    for (int r = 0; r < query_.num_relations(); ++r) {
      auto table = catalog_.GetTable(
          query_.relations[static_cast<size_t>(r)].table);
      if (!table.ok()) continue;
      if ((*table)->ColumnIndex(raw.column) >= 0) {
        if (found_rel >= 0) {
          return Status::InvalidArgument("ambiguous column '" + raw.column +
                                         "'");
        }
        found_rel = r;
      }
    }
    if (found_rel < 0) {
      return Status::NotFound("unknown column '" + raw.column + "'");
    }
    return ColumnRef{found_rel, raw.column};
  }

  Status ParsePredicates() {
    for (;;) {
      HFQ_ASSIGN_OR_RETURN(RawColumn lhs_raw, ParseRawColumn());
      if (Peek().type != TokenType::kOperator) {
        return Err("expected comparison operator");
      }
      std::string op_text = Advance().text;
      CmpOp op;
      if (op_text == "=") op = CmpOp::kEq;
      else if (op_text == "<>" || op_text == "!=") op = CmpOp::kNe;
      else if (op_text == "<") op = CmpOp::kLt;
      else if (op_text == "<=") op = CmpOp::kLe;
      else if (op_text == ">") op = CmpOp::kGt;
      else op = CmpOp::kGe;

      HFQ_ASSIGN_OR_RETURN(ColumnRef lhs, Resolve(lhs_raw));
      if (Peek().type == TokenType::kInteger) {
        SelectionPredicate sel{lhs, op, Value::Int(Advance().int_value)};
        query_.selections.push_back(std::move(sel));
      } else if (Peek().type == TokenType::kDouble) {
        SelectionPredicate sel{lhs, op, Value::Double(Advance().double_value)};
        query_.selections.push_back(std::move(sel));
      } else if (Peek().type == TokenType::kIdentifier) {
        HFQ_ASSIGN_OR_RETURN(RawColumn rhs_raw, ParseRawColumn());
        HFQ_ASSIGN_OR_RETURN(ColumnRef rhs, Resolve(rhs_raw));
        if (op != CmpOp::kEq) {
          return Err("only equality joins are supported");
        }
        if (lhs.rel_idx == rhs.rel_idx) {
          return Err("join predicate must span two relations");
        }
        query_.joins.push_back(JoinPredicate{lhs, rhs});
      } else {
        return Err("expected literal or column after operator");
      }
      if (!AcceptKeyword("AND")) break;
    }
    return Status::OK();
  }

  Status ParseGroupBy() {
    for (;;) {
      HFQ_ASSIGN_OR_RETURN(RawColumn raw, ParseRawColumn());
      HFQ_ASSIGN_OR_RETURN(ColumnRef ref, Resolve(raw));
      query_.group_by.push_back(ref);
      if (!Accept(TokenType::kComma)) break;
    }
    return Status::OK();
  }

  Status ResolveDeferred() {
    for (const auto& raw : deferred_select_cols_) {
      HFQ_ASSIGN_OR_RETURN(ColumnRef ref, Resolve(raw));
      // Non-aggregate select items act as GROUP BY keys if aggregates are
      // present; otherwise they are plain projections (tracked as group_by
      // for execution simplicity only when aggregates exist). A column the
      // GROUP BY clause already names stays one key, so
      // ParseSql(q.ToSql()) keeps q's keys.
      if (!query_.aggregates.empty() &&
          std::find(query_.group_by.begin(), query_.group_by.end(), ref) ==
              query_.group_by.end()) {
        query_.group_by.push_back(ref);
      }
    }
    for (const auto& [agg_idx, raw] : deferred_agg_args_) {
      HFQ_ASSIGN_OR_RETURN(ColumnRef ref, Resolve(raw));
      query_.aggregates[static_cast<size_t>(agg_idx)].arg = ref;
    }
    return Status::OK();
  }

  std::vector<Token> tokens_;
  const Catalog& catalog_;
  Query query_;
  size_t pos_ = 0;
  std::vector<RawColumn> deferred_select_cols_;
  std::vector<std::pair<int, RawColumn>> deferred_agg_args_;
};

}  // namespace

Result<Query> ParseSql(const std::string& sql, const Catalog& catalog,
                       const std::string& name) {
  HFQ_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens), catalog, name);
  return parser.Parse();
}

}  // namespace hfq
