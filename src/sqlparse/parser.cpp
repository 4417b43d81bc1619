#include "sqlparse/parser.h"

#include <charconv>

#include "sqlparse/lexer.h"
#include "util/strings.h"

namespace joza::sql {

namespace {

// Strips quotes and resolves escapes in a lexed string literal token.
std::string UnescapeStringToken(std::string_view raw) {
  if (raw.size() < 2) return std::string(raw);
  const char quote = raw.front();
  std::string out;
  out.reserve(raw.size() - 2);
  for (std::size_t i = 1; i + 1 < raw.size(); ++i) {
    char c = raw[i];
    if (c == '\\' && i + 2 < raw.size()) {
      char n = raw[i + 1];
      switch (n) {
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case '0': out.push_back('\0'); break;
        default: out.push_back(n); break;
      }
      ++i;
    } else if (c == quote && i + 2 < raw.size() && raw[i + 1] == quote) {
      out.push_back(quote);
      ++i;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string UnquoteIdentifier(std::string_view raw) {
  if (raw.size() >= 2 && raw.front() == '`' && raw.back() == '`') {
    return std::string(raw.substr(1, raw.size() - 2));
  }
  return std::string(raw);
}

class Parser {
 public:
  explicit Parser(std::string_view src) : src_(src), tokens_(Lex(src)) {}

  StatusOr<Statement> ParseStatement() {
    if (AtEnd()) return Status::ParseError("empty statement");
    Statement stmt;
    const Token& t = Peek();
    if (IsKeywordToken(t, "SELECT")) {
      auto sel = ParseSelect();
      if (!sel.ok()) return sel.status();
      stmt.kind = StatementKind::kSelect;
      stmt.select = std::make_unique<SelectStmt>(std::move(sel.value()));
    } else if (IsKeywordToken(t, "INSERT") || IsKeywordToken(t, "REPLACE")) {
      auto ins = ParseInsert();
      if (!ins.ok()) return ins.status();
      stmt.kind = StatementKind::kInsert;
      stmt.insert = std::make_unique<InsertStmt>(std::move(ins.value()));
    } else if (IsKeywordToken(t, "UPDATE")) {
      auto upd = ParseUpdate();
      if (!upd.ok()) return upd.status();
      stmt.kind = StatementKind::kUpdate;
      stmt.update = std::make_unique<UpdateStmt>(std::move(upd.value()));
    } else if (IsKeywordToken(t, "DELETE")) {
      auto del = ParseDelete();
      if (!del.ok()) return del.status();
      stmt.kind = StatementKind::kDelete;
      stmt.del = std::make_unique<DeleteStmt>(std::move(del.value()));
    } else if (IsKeywordToken(t, "CREATE")) {
      auto cre = ParseCreateTable();
      if (!cre.ok()) return cre.status();
      stmt.kind = StatementKind::kCreateTable;
      stmt.create = std::make_unique<CreateTableStmt>(std::move(cre.value()));
    } else if (IsKeywordToken(t, "DROP")) {
      auto drp = ParseDropTable();
      if (!drp.ok()) return drp.status();
      stmt.kind = StatementKind::kDropTable;
      stmt.drop = std::make_unique<DropTableStmt>(std::move(drp.value()));
    } else if (IsKeywordToken(t, "SHOW")) {
      MatchKeyword("SHOW");
      if (auto st = Expect(MatchWord("TABLES"), "TABLES after SHOW");
          !st.ok()) {
        return st;
      }
      stmt.kind = StatementKind::kShowTables;
    } else {
      return Status::ParseError("unexpected token at statement start: " +
                                std::string(t.text));
    }
    SkipComments();
    if (!AtEnd() && Peek().text == ";") Advance();
    SkipComments();
    if (!AtEnd()) {
      return Status::ParseError("trailing tokens after statement: " +
                                std::string(Peek().text));
    }
    return stmt;
  }

  StatusOr<ExprPtr> ParseExpressionOnly() {
    auto e = ParseExpr();
    if (!e.ok()) return e.status();
    SkipComments();
    if (!AtEnd()) {
      return Status::ParseError("trailing tokens after expression");
    }
    return std::move(e.value());
  }

 private:
  // --- token helpers -------------------------------------------------------

  bool AtEnd() const { return pos_ >= tokens_.size(); }

  const Token& Peek(std::size_t ahead = 0) const {
    static const Token kEof{TokenKind::kEndOfInput, {}, {}};
    std::size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : kEof;
  }

  const Token& Advance() {
    static const Token kEof{TokenKind::kEndOfInput, {}, {}};
    return pos_ < tokens_.size() ? tokens_[pos_++] : kEof;
  }

  // Comments may appear anywhere; the parser skips them (they were already
  // recorded as critical tokens by the lexer for the taint analyses).
  void SkipComments() {
    while (!AtEnd() && Peek().kind == TokenKind::kComment) ++pos_;
  }

  static bool IsKeywordToken(const Token& t, std::string_view kw) {
    return t.kind == TokenKind::kKeyword && EqualsIgnoreCase(t.text, kw);
  }

  bool MatchKeyword(std::string_view kw) {
    SkipComments();
    if (!AtEnd() && IsKeywordToken(Peek(), kw)) {
      Advance();
      return true;
    }
    return false;
  }

  // Matches a word regardless of how the lexer classified it (keyword,
  // identifier or function name). Needed for words like IF that are
  // functions in expression position but clause markers in DDL.
  bool MatchWord(std::string_view word) {
    SkipComments();
    if (AtEnd()) return false;
    const Token& t = Peek();
    if ((t.kind == TokenKind::kKeyword || t.kind == TokenKind::kIdentifier ||
         t.kind == TokenKind::kFunction) &&
        EqualsIgnoreCase(t.text, word)) {
      Advance();
      return true;
    }
    return false;
  }

  bool MatchPunct(std::string_view p) {
    SkipComments();
    if (!AtEnd() && Peek().kind == TokenKind::kPunct && Peek().text == p) {
      Advance();
      return true;
    }
    return false;
  }

  bool MatchOperator(std::string_view op) {
    SkipComments();
    if (!AtEnd() && Peek().kind == TokenKind::kOperator && Peek().text == op) {
      Advance();
      return true;
    }
    return false;
  }

  Status Expect(bool matched, std::string_view what) {
    if (matched) return Status::Ok();
    std::string got = AtEnd() ? "<eof>" : std::string(Peek().text);
    return Status::ParseError("expected " + std::string(what) + ", got " +
                              got);
  }

  StatusOr<std::string> ExpectIdentifier() {
    SkipComments();
    if (AtEnd() || Peek().kind != TokenKind::kIdentifier) {
      // Allow non-reserved keywords used as identifiers in common spots.
      if (!AtEnd() && Peek().kind == TokenKind::kKeyword &&
          (IsKeywordToken(Peek(), "KEY") || IsKeywordToken(Peek(), "SET"))) {
        return UnquoteIdentifier(Advance().text);
      }
      return Status::ParseError("expected identifier");
    }
    return UnquoteIdentifier(Advance().text);
  }

  // --- expressions ---------------------------------------------------------

  StatusOr<ExprPtr> ParseExpr() { return ParseOr(); }

  StatusOr<ExprPtr> ParseOr() {
    auto lhs = ParseAnd();
    if (!lhs.ok()) return lhs;
    for (;;) {
      SkipComments();
      BinaryOp op;
      if (MatchKeyword("OR") || MatchOperator("||")) {
        op = BinaryOp::kOr;
      } else if (MatchKeyword("XOR")) {
        op = BinaryOp::kXor;
      } else {
        break;
      }
      auto rhs = ParseAnd();
      if (!rhs.ok()) return rhs;
      lhs = MakeBinary(op, std::move(lhs.value()), std::move(rhs.value()));
    }
    return lhs;
  }

  StatusOr<ExprPtr> ParseAnd() {
    auto lhs = ParseNot();
    if (!lhs.ok()) return lhs;
    while (true) {
      SkipComments();
      if (MatchKeyword("AND") || MatchOperator("&&")) {
        auto rhs = ParseNot();
        if (!rhs.ok()) return rhs;
        lhs = MakeBinary(BinaryOp::kAnd, std::move(lhs.value()),
                         std::move(rhs.value()));
      } else {
        break;
      }
    }
    return lhs;
  }

  StatusOr<ExprPtr> ParseNot() {
    SkipComments();
    if (MatchKeyword("NOT") || MatchOperator("!")) {
      auto operand = ParseNot();
      if (!operand.ok()) return operand;
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kUnary;
      e->unary_op = UnaryOp::kNot;
      e->lhs = std::move(operand.value());
      return StatusOr<ExprPtr>(std::move(e));
    }
    return ParseComparison();
  }

  StatusOr<ExprPtr> ParseComparison() {
    auto lhs = ParseAdditive();
    if (!lhs.ok()) return lhs;
    SkipComments();

    // IS [NOT] NULL
    if (MatchKeyword("IS")) {
      bool negated = MatchKeyword("NOT");
      if (!MatchKeyword("NULL")) {
        return StatusOr<ExprPtr>(Status::ParseError("expected NULL after IS"));
      }
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kUnary;
      e->unary_op = negated ? UnaryOp::kIsNotNull : UnaryOp::kIsNull;
      e->lhs = std::move(lhs.value());
      return StatusOr<ExprPtr>(std::move(e));
    }

    bool negated = MatchKeyword("NOT");

    // [NOT] IN (...)
    if (MatchKeyword("IN")) {
      if (auto st = Expect(MatchPunct("("), "( after IN"); !st.ok()) {
        return StatusOr<ExprPtr>(st);
      }
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kInList;
      e->negated = negated;
      e->lhs = std::move(lhs.value());
      SkipComments();
      if (IsKeywordToken(Peek(), "SELECT")) {
        auto sub = ParseSelect();
        if (!sub.ok()) return StatusOr<ExprPtr>(sub.status());
        auto subexpr = std::make_unique<Expr>();
        subexpr->kind = ExprKind::kSubquery;
        subexpr->subquery =
            std::make_unique<SelectStmt>(std::move(sub.value()));
        e->in_list.push_back(std::move(subexpr));
      } else {
        do {
          auto item = ParseExpr();
          if (!item.ok()) return item;
          e->in_list.push_back(std::move(item.value()));
        } while (MatchPunct(","));
      }
      if (auto st = Expect(MatchPunct(")"), ") after IN list"); !st.ok()) {
        return StatusOr<ExprPtr>(st);
      }
      return StatusOr<ExprPtr>(std::move(e));
    }

    // [NOT] BETWEEN lo AND hi
    if (MatchKeyword("BETWEEN")) {
      auto lo = ParseAdditive();
      if (!lo.ok()) return lo;
      if (auto st = Expect(MatchKeyword("AND"), "AND in BETWEEN"); !st.ok()) {
        return StatusOr<ExprPtr>(st);
      }
      auto hi = ParseAdditive();
      if (!hi.ok()) return hi;
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kBetween;
      e->negated = negated;
      e->lhs = std::move(lhs.value());
      e->rhs = std::move(lo.value());
      e->extra = std::move(hi.value());
      return StatusOr<ExprPtr>(std::move(e));
    }

    // [NOT] LIKE / REGEXP
    if (MatchKeyword("LIKE")) {
      auto rhs = ParseAdditive();
      if (!rhs.ok()) return rhs;
      return StatusOr<ExprPtr>(
          MakeBinary(negated ? BinaryOp::kNotLike : BinaryOp::kLike,
                     std::move(lhs.value()), std::move(rhs.value())));
    }
    if (MatchKeyword("REGEXP")) {
      auto rhs = ParseAdditive();
      if (!rhs.ok()) return rhs;
      return StatusOr<ExprPtr>(MakeBinary(
          BinaryOp::kRegexp, std::move(lhs.value()), std::move(rhs.value())));
    }
    if (negated) {
      return StatusOr<ExprPtr>(
          Status::ParseError("dangling NOT in comparison"));
    }

    // Plain comparison operators.
    struct OpMap {
      std::string_view text;
      BinaryOp op;
    };
    static constexpr OpMap kOps[] = {
        {"<=", BinaryOp::kLe}, {">=", BinaryOp::kGe}, {"<>", BinaryOp::kNe},
        {"!=", BinaryOp::kNe}, {"=", BinaryOp::kEq},  {"<", BinaryOp::kLt},
        {">", BinaryOp::kGt},
    };
    for (const auto& m : kOps) {
      if (MatchOperator(m.text)) {
        auto rhs = ParseAdditive();
        if (!rhs.ok()) return rhs;
        return StatusOr<ExprPtr>(MakeBinary(m.op, std::move(lhs.value()),
                                            std::move(rhs.value())));
      }
    }
    return lhs;
  }

  StatusOr<ExprPtr> ParseAdditive() {
    auto lhs = ParseMultiplicative();
    if (!lhs.ok()) return lhs;
    for (;;) {
      SkipComments();
      BinaryOp op;
      if (MatchOperator("+")) {
        op = BinaryOp::kAdd;
      } else if (MatchOperator("-")) {
        op = BinaryOp::kSub;
      } else {
        break;
      }
      auto rhs = ParseMultiplicative();
      if (!rhs.ok()) return rhs;
      lhs = MakeBinary(op, std::move(lhs.value()), std::move(rhs.value()));
    }
    return lhs;
  }

  StatusOr<ExprPtr> ParseMultiplicative() {
    auto lhs = ParseUnary();
    if (!lhs.ok()) return lhs;
    for (;;) {
      SkipComments();
      BinaryOp op;
      if (MatchOperator("*")) {
        op = BinaryOp::kMul;
      } else if (MatchOperator("/")) {
        op = BinaryOp::kDiv;
      } else if (MatchOperator("%")) {
        op = BinaryOp::kMod;
      } else {
        break;
      }
      auto rhs = ParseUnary();
      if (!rhs.ok()) return rhs;
      lhs = MakeBinary(op, std::move(lhs.value()), std::move(rhs.value()));
    }
    return lhs;
  }

  StatusOr<ExprPtr> ParseUnary() {
    SkipComments();
    if (MatchOperator("-")) {
      auto operand = ParseUnary();
      if (!operand.ok()) return operand;
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kUnary;
      e->unary_op = UnaryOp::kNeg;
      e->lhs = std::move(operand.value());
      return StatusOr<ExprPtr>(std::move(e));
    }
    if (MatchOperator("+")) return ParseUnary();
    return ParsePrimary();
  }

  StatusOr<ExprPtr> ParsePrimary() {
    SkipComments();
    if (AtEnd()) return StatusOr<ExprPtr>(Status::ParseError("expected expression, got <eof>"));
    const Token& t = Peek();
    auto e = std::make_unique<Expr>();
    e->span = t.span;

    switch (t.kind) {
      case TokenKind::kNumber: {
        Advance();
        std::string_view text = t.text;
        if (text.find('.') != std::string_view::npos ||
            text.find('e') != std::string_view::npos ||
            text.find('E') != std::string_view::npos) {
          e->kind = ExprKind::kDoubleLiteral;
          e->double_value = std::strtod(std::string(text).c_str(), nullptr);
        } else if (text.size() > 2 && text[0] == '0' &&
                   (text[1] == 'x' || text[1] == 'X')) {
          e->kind = ExprKind::kIntLiteral;
          std::from_chars(text.data() + 2, text.data() + text.size(),
                          e->int_value, 16);
        } else {
          e->kind = ExprKind::kIntLiteral;
          auto [p, ec] = std::from_chars(text.data(),
                                         text.data() + text.size(),
                                         e->int_value);
          if (ec != std::errc()) {
            e->kind = ExprKind::kDoubleLiteral;
            e->double_value = std::strtod(std::string(text).c_str(), nullptr);
          }
        }
        return StatusOr<ExprPtr>(std::move(e));
      }
      case TokenKind::kString:
        Advance();
        e->kind = ExprKind::kStringLiteral;
        e->string_value = UnescapeStringToken(t.text);
        return StatusOr<ExprPtr>(std::move(e));
      case TokenKind::kPlaceholder:
        Advance();
        e->kind = ExprKind::kPlaceholder;
        e->placeholder_name = std::string(t.text);
        return StatusOr<ExprPtr>(std::move(e));
      case TokenKind::kKeyword:
        if (IsKeywordToken(t, "NULL")) {
          Advance();
          e->kind = ExprKind::kNullLiteral;
          return StatusOr<ExprPtr>(std::move(e));
        }
        if (IsKeywordToken(t, "TRUE") || IsKeywordToken(t, "FALSE")) {
          Advance();
          e->kind = ExprKind::kBoolLiteral;
          e->bool_value = IsKeywordToken(t, "TRUE");
          return StatusOr<ExprPtr>(std::move(e));
        }
        if (IsKeywordToken(t, "CASE")) return ParseCase();
        if (IsKeywordToken(t, "DISTINCT")) {
          // COUNT(DISTINCT x) — treat DISTINCT transparently inside calls.
          Advance();
          return ParsePrimary();
        }
        return StatusOr<ExprPtr>(Status::ParseError(
            "unexpected keyword in expression: " + std::string(t.text)));
      case TokenKind::kFunction: {
        Advance();
        e->kind = ExprKind::kFunctionCall;
        e->function_name = ToUpper(t.text);
        if (auto st = Expect(MatchPunct("("), "( after function name");
            !st.ok()) {
          return StatusOr<ExprPtr>(st);
        }
        // CAST(expr AS type) / CONVERT(expr, type): the type is captured as
        // a trailing string-literal argument for the evaluator.
        if (e->function_name == "CAST" || e->function_name == "CONVERT") {
          auto arg = ParseExpr();
          if (!arg.ok()) return arg;
          e->args.push_back(std::move(arg.value()));
          if (MatchKeyword("AS") || MatchPunct(",")) {
            std::string type;
            int depth = 0;
            SkipComments();
            while (!AtEnd() && !(depth == 0 && Peek().text == ")")) {
              const Token& t = Advance();
              if (t.text == "(") ++depth;
              if (t.text == ")") --depth;
              if (!type.empty()) type.push_back(' ');
              type.append(t.text);
            }
            e->args.push_back(MakeStringLiteral(std::move(type)));
          }
          if (auto st = Expect(MatchPunct(")"), ") after CAST"); !st.ok()) {
            return StatusOr<ExprPtr>(st);
          }
          return StatusOr<ExprPtr>(std::move(e));
        }
        SkipComments();
        if (!MatchPunct(")")) {
          do {
            SkipComments();
            // COUNT(*) style argument.
            if (Peek().kind == TokenKind::kOperator && Peek().text == "*") {
              Advance();
              auto star = std::make_unique<Expr>();
              star->kind = ExprKind::kColumnRef;
              star->column = "*";
              e->args.push_back(std::move(star));
            } else {
              auto arg = ParseExpr();
              if (!arg.ok()) return arg;
              e->args.push_back(std::move(arg.value()));
            }
          } while (MatchPunct(","));
          if (auto st = Expect(MatchPunct(")"), ") after arguments");
              !st.ok()) {
            return StatusOr<ExprPtr>(st);
          }
        }
        return StatusOr<ExprPtr>(std::move(e));
      }
      case TokenKind::kIdentifier: {
        Advance();
        // identifier(...) — user function call on a non-builtin name.
        if (!AtEnd() && Peek().kind == TokenKind::kPunct &&
            Peek().text == "(") {
          Advance();
          e->kind = ExprKind::kFunctionCall;
          e->function_name = ToUpper(UnquoteIdentifier(t.text));
          SkipComments();
          if (!MatchPunct(")")) {
            do {
              auto arg = ParseExpr();
              if (!arg.ok()) return arg;
              e->args.push_back(std::move(arg.value()));
            } while (MatchPunct(","));
            if (auto st = Expect(MatchPunct(")"), ") after arguments");
                !st.ok()) {
              return StatusOr<ExprPtr>(st);
            }
          }
          return StatusOr<ExprPtr>(std::move(e));
        }
        e->kind = ExprKind::kColumnRef;
        e->column = UnquoteIdentifier(t.text);
        if (MatchPunct(".")) {
          e->qualifier = std::move(e->column);
          SkipComments();
          if (!AtEnd() && Peek().kind == TokenKind::kOperator &&
              Peek().text == "*") {
            Advance();
            e->column = "*";
          } else {
            auto col = ExpectIdentifier();
            if (!col.ok()) return StatusOr<ExprPtr>(col.status());
            e->column = std::move(col.value());
          }
        }
        return StatusOr<ExprPtr>(std::move(e));
      }
      case TokenKind::kOperator:
        if (t.text == "*") {
          Advance();
          e->kind = ExprKind::kColumnRef;
          e->column = "*";
          return StatusOr<ExprPtr>(std::move(e));
        }
        break;
      case TokenKind::kPunct:
        if (t.text == "(") {
          Advance();
          SkipComments();
          if (IsKeywordToken(Peek(), "SELECT")) {
            auto sub = ParseSelect();
            if (!sub.ok()) return StatusOr<ExprPtr>(sub.status());
            e->kind = ExprKind::kSubquery;
            e->subquery = std::make_unique<SelectStmt>(std::move(sub.value()));
          } else {
            auto inner = ParseExpr();
            if (!inner.ok()) return inner;
            e = std::move(inner.value());
          }
          if (auto st = Expect(MatchPunct(")"), "closing )"); !st.ok()) {
            return StatusOr<ExprPtr>(st);
          }
          return StatusOr<ExprPtr>(std::move(e));
        }
        break;
      default:
        break;
    }
    return StatusOr<ExprPtr>(Status::ParseError(
        "unexpected token in expression: " + std::string(t.text)));
  }

  // CASE WHEN c THEN v [WHEN...] [ELSE v] END — desugared into nested IF().
  StatusOr<ExprPtr> ParseCase() {
    MatchKeyword("CASE");
    struct Arm {
      ExprPtr cond, value;
    };
    std::vector<Arm> arms;
    while (MatchKeyword("WHEN")) {
      auto c = ParseExpr();
      if (!c.ok()) return c;
      if (auto st = Expect(MatchKeyword("THEN"), "THEN"); !st.ok()) {
        return StatusOr<ExprPtr>(st);
      }
      auto v = ParseExpr();
      if (!v.ok()) return v;
      arms.push_back({std::move(c.value()), std::move(v.value())});
    }
    ExprPtr else_value;
    if (MatchKeyword("ELSE")) {
      auto v = ParseExpr();
      if (!v.ok()) return v;
      else_value = std::move(v.value());
    } else {
      else_value = std::make_unique<Expr>();
      else_value->kind = ExprKind::kNullLiteral;
    }
    if (auto st = Expect(MatchKeyword("END"), "END"); !st.ok()) {
      return StatusOr<ExprPtr>(st);
    }
    if (arms.empty()) {
      return StatusOr<ExprPtr>(Status::ParseError("CASE without WHEN"));
    }
    ExprPtr acc = std::move(else_value);
    for (auto it = arms.rbegin(); it != arms.rend(); ++it) {
      auto ife = std::make_unique<Expr>();
      ife->kind = ExprKind::kFunctionCall;
      ife->function_name = "IF";
      ife->args.push_back(std::move(it->cond));
      ife->args.push_back(std::move(it->value));
      ife->args.push_back(std::move(acc));
      acc = std::move(ife);
    }
    return StatusOr<ExprPtr>(std::move(acc));
  }

  ExprPtr MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kBinary;
    e->binary_op = op;
    e->span = {lhs->span.begin, rhs->span.end};
    e->lhs = std::move(lhs);
    e->rhs = std::move(rhs);
    return e;
  }

  // --- statements ----------------------------------------------------------

  StatusOr<SelectStmt> ParseSelect() {
    SelectStmt stmt;
    for (;;) {
      auto core = ParseSelectCore();
      if (!core.ok()) return core.status();
      stmt.cores.push_back(std::move(core.value()));
      SkipComments();
      if (MatchKeyword("UNION")) {
        stmt.union_all.push_back(MatchKeyword("ALL"));
        if (auto st = Expect(MatchKeyword("SELECT") || IsNextSelect(),
                             "SELECT after UNION");
            !st.ok()) {
          return st;
        }
        continue;
      }
      break;
    }
    if (MatchKeyword("ORDER")) {
      if (auto st = Expect(MatchKeyword("BY"), "BY after ORDER"); !st.ok()) {
        return st;
      }
      do {
        OrderItem item;
        auto e = ParseExpr();
        if (!e.ok()) return e.status();
        item.expr = std::move(e.value());
        if (MatchKeyword("DESC")) {
          item.descending = true;
        } else {
          MatchKeyword("ASC");
        }
        stmt.order_by.push_back(std::move(item));
      } while (MatchPunct(","));
    }
    if (MatchKeyword("LIMIT")) {
      auto n = ParseIntValue();
      if (!n.ok()) return n.status();
      stmt.limit = n.value();
      if (MatchPunct(",")) {
        // LIMIT offset, count
        auto m = ParseIntValue();
        if (!m.ok()) return m.status();
        stmt.offset = stmt.limit;
        stmt.limit = m.value();
      } else if (MatchKeyword("OFFSET")) {
        auto m = ParseIntValue();
        if (!m.ok()) return m.status();
        stmt.offset = m.value();
      }
    }
    return stmt;
  }

  // After UNION the SELECT keyword may already have been consumed by
  // MatchKeyword in the caller; this checks the lookahead case.
  bool IsNextSelect() {
    SkipComments();
    return !AtEnd() && IsKeywordToken(Peek(), "SELECT");
  }

  StatusOr<SelectCore> ParseSelectCore() {
    // The SELECT keyword may or may not be consumed yet.
    MatchKeyword("SELECT");
    SelectCore core;
    core.distinct = MatchKeyword("DISTINCT");
    MatchKeyword("ALL");

    do {
      SelectItem item;
      auto e = ParseExpr();
      if (!e.ok()) return e.status();
      item.expr = std::move(e.value());
      if (MatchKeyword("AS")) {
        auto a = ExpectIdentifier();
        if (!a.ok()) return a.status();
        item.alias = std::move(a.value());
      } else {
        SkipComments();
        if (!AtEnd() && Peek().kind == TokenKind::kIdentifier) {
          item.alias = UnquoteIdentifier(Advance().text);
        }
      }
      core.items.push_back(std::move(item));
    } while (MatchPunct(","));

    if (MatchKeyword("FROM")) {
      auto tr = ParseTableRef();
      if (!tr.ok()) return tr.status();
      core.from = std::move(tr.value());
      // JOINs and comma-joins.
      for (;;) {
        SkipComments();
        if (MatchPunct(",")) {
          JoinClause jc;
          jc.kind = JoinClause::Kind::kCross;
          auto t2 = ParseTableRef();
          if (!t2.ok()) return t2.status();
          jc.table = std::move(t2.value());
          core.joins.push_back(std::move(jc));
          continue;
        }
        JoinClause jc;
        bool is_join = false;
        if (MatchKeyword("INNER")) {
          jc.kind = JoinClause::Kind::kInner;
          is_join = true;
        } else if (MatchKeyword("LEFT")) {
          MatchKeyword("OUTER");
          jc.kind = JoinClause::Kind::kLeft;
          is_join = true;
        } else if (MatchKeyword("CROSS")) {
          jc.kind = JoinClause::Kind::kCross;
          is_join = true;
        }
        if (is_join || IsKeywordToken(Peek(), "JOIN")) {
          if (auto st = Expect(MatchKeyword("JOIN"), "JOIN"); !st.ok()) {
            return st;
          }
          auto t2 = ParseTableRef();
          if (!t2.ok()) return t2.status();
          jc.table = std::move(t2.value());
          if (MatchKeyword("ON")) {
            auto on = ParseExpr();
            if (!on.ok()) return on.status();
            jc.on = std::move(on.value());
          }
          core.joins.push_back(std::move(jc));
          continue;
        }
        break;
      }
    }

    if (MatchKeyword("WHERE")) {
      auto w = ParseExpr();
      if (!w.ok()) return w.status();
      core.where = std::move(w.value());
    }
    if (MatchKeyword("GROUP")) {
      if (auto st = Expect(MatchKeyword("BY"), "BY after GROUP"); !st.ok()) {
        return st;
      }
      do {
        auto g = ParseExpr();
        if (!g.ok()) return g.status();
        core.group_by.push_back(std::move(g.value()));
      } while (MatchPunct(","));
    }
    if (MatchKeyword("HAVING")) {
      auto h = ParseExpr();
      if (!h.ok()) return h.status();
      core.having = std::move(h.value());
    }
    return core;
  }

  StatusOr<TableRef> ParseTableRef() {
    TableRef tr;
    auto name = ExpectIdentifier();
    if (!name.ok()) return name.status();
    tr.table = std::move(name.value());
    // Qualified names: schema.table (information_schema.tables etc.).
    if (MatchPunct(".")) {
      auto part = ExpectIdentifier();
      if (!part.ok()) return part.status();
      tr.table += "." + part.value();
    }
    if (MatchKeyword("AS")) {
      auto a = ExpectIdentifier();
      if (!a.ok()) return a.status();
      tr.alias = std::move(a.value());
    } else {
      SkipComments();
      if (!AtEnd() && Peek().kind == TokenKind::kIdentifier) {
        tr.alias = UnquoteIdentifier(Advance().text);
      }
    }
    return tr;
  }

  StatusOr<std::int64_t> ParseIntValue() {
    SkipComments();
    bool neg = MatchOperator("-");
    if (AtEnd() || Peek().kind != TokenKind::kNumber) {
      return Status::ParseError("expected integer");
    }
    const Token& t = Advance();
    std::int64_t v = 0;
    std::from_chars(t.text.data(), t.text.data() + t.text.size(), v);
    return neg ? -v : v;
  }

  StatusOr<InsertStmt> ParseInsert() {
    if (!MatchKeyword("INSERT")) MatchKeyword("REPLACE");
    MatchKeyword("INTO");
    InsertStmt stmt;
    auto name = ExpectIdentifier();
    if (!name.ok()) return name.status();
    stmt.table = std::move(name.value());
    if (MatchPunct("(")) {
      do {
        auto col = ExpectIdentifier();
        if (!col.ok()) return col.status();
        stmt.columns.push_back(std::move(col.value()));
      } while (MatchPunct(","));
      if (auto st = Expect(MatchPunct(")"), ") after column list"); !st.ok()) {
        return st;
      }
    }
    if (auto st = Expect(MatchKeyword("VALUES"), "VALUES"); !st.ok()) {
      return st;
    }
    do {
      if (auto st = Expect(MatchPunct("("), "( before row values"); !st.ok()) {
        return st;
      }
      std::vector<ExprPtr> row;
      do {
        auto e = ParseExpr();
        if (!e.ok()) return e.status();
        row.push_back(std::move(e.value()));
      } while (MatchPunct(","));
      if (auto st = Expect(MatchPunct(")"), ") after row values"); !st.ok()) {
        return st;
      }
      stmt.rows.push_back(std::move(row));
    } while (MatchPunct(","));
    return stmt;
  }

  StatusOr<UpdateStmt> ParseUpdate() {
    MatchKeyword("UPDATE");
    UpdateStmt stmt;
    auto name = ExpectIdentifier();
    if (!name.ok()) return name.status();
    stmt.table = std::move(name.value());
    if (auto st = Expect(MatchKeyword("SET"), "SET"); !st.ok()) return st;
    do {
      auto col = ExpectIdentifier();
      if (!col.ok()) return col.status();
      if (auto st = Expect(MatchOperator("="), "= in assignment"); !st.ok()) {
        return st;
      }
      auto e = ParseExpr();
      if (!e.ok()) return e.status();
      stmt.assignments.emplace_back(std::move(col.value()),
                                    std::move(e.value()));
    } while (MatchPunct(","));
    if (MatchKeyword("WHERE")) {
      auto w = ParseExpr();
      if (!w.ok()) return w.status();
      stmt.where = std::move(w.value());
    }
    if (MatchKeyword("LIMIT")) {
      auto n = ParseIntValue();
      if (!n.ok()) return n.status();
      stmt.limit = n.value();
    }
    return stmt;
  }

  StatusOr<DeleteStmt> ParseDelete() {
    MatchKeyword("DELETE");
    if (auto st = Expect(MatchKeyword("FROM"), "FROM after DELETE");
        !st.ok()) {
      return st;
    }
    DeleteStmt stmt;
    auto name = ExpectIdentifier();
    if (!name.ok()) return name.status();
    stmt.table = std::move(name.value());
    if (MatchKeyword("WHERE")) {
      auto w = ParseExpr();
      if (!w.ok()) return w.status();
      stmt.where = std::move(w.value());
    }
    if (MatchKeyword("LIMIT")) {
      auto n = ParseIntValue();
      if (!n.ok()) return n.status();
      stmt.limit = n.value();
    }
    return stmt;
  }

  StatusOr<CreateTableStmt> ParseCreateTable() {
    MatchKeyword("CREATE");
    if (auto st = Expect(MatchKeyword("TABLE"), "TABLE after CREATE");
        !st.ok()) {
      return st;
    }
    CreateTableStmt stmt;
    if (MatchWord("IF")) {
      if (auto st = Expect(MatchKeyword("NOT") && MatchKeyword("EXISTS"),
                           "NOT EXISTS");
          !st.ok()) {
        return st;
      }
      stmt.if_not_exists = true;
    }
    auto name = ExpectIdentifier();
    if (!name.ok()) return name.status();
    stmt.table = std::move(name.value());
    if (auto st = Expect(MatchPunct("("), "( after table name"); !st.ok()) {
      return st;
    }
    do {
      SkipComments();
      // Skip constraint clauses like PRIMARY KEY (...)
      if (MatchKeyword("PRIMARY") || MatchKeyword("UNIQUE") ||
          MatchKeyword("KEY") || MatchKeyword("INDEX")) {
        MatchKeyword("KEY");
        // consume optional name and parenthesized column list
        SkipComments();
        if (!AtEnd() && Peek().kind == TokenKind::kIdentifier) Advance();
        if (MatchPunct("(")) {
          int depth = 1;
          while (!AtEnd() && depth > 0) {
            const Token& t = Advance();
            if (t.text == "(") ++depth;
            if (t.text == ")") --depth;
          }
        }
        continue;
      }
      ColumnDef def;
      auto col = ExpectIdentifier();
      if (!col.ok()) return col.status();
      def.name = std::move(col.value());
      SkipComments();
      // Type name: identifier or keyword-ish word; tolerate common types.
      if (!AtEnd() && (Peek().kind == TokenKind::kIdentifier ||
                       Peek().kind == TokenKind::kFunction ||
                       Peek().kind == TokenKind::kKeyword)) {
        std::string type = ToUpper(Advance().text);
        if (type.find("INT") != std::string::npos) {
          def.type = ColumnDef::Type::kInt;
        } else if (type == "DOUBLE" || type == "FLOAT" || type == "REAL" ||
                   type == "DECIMAL" || type == "NUMERIC") {
          def.type = ColumnDef::Type::kDouble;
        } else {
          def.type = ColumnDef::Type::kText;
        }
        // Optional (size) and column attributes.
        if (MatchPunct("(")) {
          while (!AtEnd() && Peek().text != ")") Advance();
          MatchPunct(")");
        }
        while (MatchKeyword("NOT") || MatchKeyword("NULL") ||
               MatchKeyword("PRIMARY") || MatchKeyword("KEY") ||
               MatchKeyword("AUTO_INCREMENT") || MatchKeyword("UNIQUE") ||
               MatchKeyword("DEFAULT")) {
          SkipComments();
          if (!AtEnd() && (Peek().kind == TokenKind::kNumber ||
                           Peek().kind == TokenKind::kString)) {
            Advance();  // DEFAULT value
          }
        }
      }
      stmt.columns.push_back(def);
    } while (MatchPunct(","));
    if (auto st = Expect(MatchPunct(")"), ") after column defs"); !st.ok()) {
      return st;
    }
    return stmt;
  }

  StatusOr<DropTableStmt> ParseDropTable() {
    MatchKeyword("DROP");
    if (auto st = Expect(MatchKeyword("TABLE"), "TABLE after DROP");
        !st.ok()) {
      return st;
    }
    DropTableStmt stmt;
    if (MatchWord("IF")) {
      if (auto st = Expect(MatchKeyword("EXISTS"), "EXISTS"); !st.ok()) {
        return st;
      }
      stmt.if_exists = true;
    }
    auto name = ExpectIdentifier();
    if (!name.ok()) return name.status();
    stmt.table = std::move(name.value());
    return stmt;
  }

  std::string_view src_;
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

}  // namespace

StatusOr<Statement> Parse(std::string_view query) {
  return Parser(query).ParseStatement();
}

StatusOr<ExprPtr> ParseExpression(std::string_view text) {
  return Parser(text).ParseExpressionOnly();
}

ExprPtr MakeIntLiteral(std::int64_t v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kIntLiteral;
  e->int_value = v;
  return e;
}

ExprPtr MakeStringLiteral(std::string v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kStringLiteral;
  e->string_value = std::move(v);
  return e;
}

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kOr: return "OR";
    case BinaryOp::kAnd: return "AND";
    case BinaryOp::kXor: return "XOR";
    case BinaryOp::kEq: return "=";
    case BinaryOp::kNe: return "<>";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kLike: return "LIKE";
    case BinaryOp::kNotLike: return "NOT LIKE";
    case BinaryOp::kRegexp: return "REGEXP";
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kMod: return "%";
    case BinaryOp::kConcatPipes: return "||";
  }
  return "?";
}

const char* UnaryOpName(UnaryOp op) {
  switch (op) {
    case UnaryOp::kNot: return "NOT";
    case UnaryOp::kNeg: return "-";
    case UnaryOp::kIsNull: return "IS NULL";
    case UnaryOp::kIsNotNull: return "IS NOT NULL";
  }
  return "?";
}

}  // namespace joza::sql
