#include "sqlparse/structure.h"

#include "sqlparse/parser.h"
#include "util/hash.h"
#include "util/strings.h"

namespace joza::sql {

namespace {

class StructureHasher {
 public:
  std::uint64_t Hash(const Statement& stmt) {
    Mix(static_cast<std::uint64_t>(stmt.kind));
    switch (stmt.kind) {
      case StatementKind::kSelect: HashSelect(*stmt.select); break;
      case StatementKind::kInsert: HashInsert(*stmt.insert); break;
      case StatementKind::kUpdate: HashUpdate(*stmt.update); break;
      case StatementKind::kDelete: HashDelete(*stmt.del); break;
      case StatementKind::kCreateTable:
        MixString(stmt.create->table);
        for (const auto& c : stmt.create->columns) MixString(c.name);
        break;
      case StatementKind::kDropTable:
        MixString(stmt.drop->table);
        break;
      case StatementKind::kShowTables:
        break;  // no payload beyond the kind itself
    }
    return h_;
  }

 private:
  void Mix(std::uint64_t v) { h_ = HashCombine(h_, v); }
  void MixString(std::string_view s) { Mix(Fnv1a64(s)); }

  void HashSelect(const SelectStmt& s) {
    Mix(0x5e1ec7);
    for (std::size_t i = 0; i < s.cores.size(); ++i) {
      HashCore(s.cores[i]);
      if (i > 0) Mix(s.union_all[i - 1] ? 0xa11 : 0xd15);
    }
    for (const auto& o : s.order_by) {
      HashExpr(o.expr.get());
      Mix(o.descending ? 2 : 1);
    }
    // LIMIT/OFFSET values are data, but their *presence* is structure.
    Mix(s.limit.has_value() ? 0x11 : 0x10);
    Mix(s.offset.has_value() ? 0x21 : 0x20);
  }

  void HashCore(const SelectCore& c) {
    Mix(c.distinct ? 0xd1 : 0xd0);
    for (const auto& item : c.items) {
      HashExpr(item.expr.get());
      MixString(item.alias);
    }
    if (c.from) {
      MixString(ToLower(c.from->table));
    }
    for (const auto& j : c.joins) {
      Mix(static_cast<std::uint64_t>(j.kind));
      MixString(ToLower(j.table.table));
      HashExpr(j.on.get());
    }
    Mix(0x3e1);
    HashExpr(c.where.get());
    for (const auto& g : c.group_by) HashExpr(g.get());
    Mix(0x3e2);
    HashExpr(c.having.get());
  }

  void HashInsert(const InsertStmt& s) {
    Mix(0x41);
    MixString(ToLower(s.table));
    for (const auto& c : s.columns) MixString(ToLower(c));
    Mix(s.rows.size());
    for (const auto& row : s.rows) {
      Mix(0x70);
      for (const auto& e : row) HashExpr(e.get());
    }
  }

  void HashUpdate(const UpdateStmt& s) {
    Mix(0x42);
    MixString(ToLower(s.table));
    for (const auto& [col, e] : s.assignments) {
      MixString(ToLower(col));
      HashExpr(e.get());
    }
    HashExpr(s.where.get());
  }

  void HashDelete(const DeleteStmt& s) {
    Mix(0x43);
    MixString(ToLower(s.table));
    HashExpr(s.where.get());
  }

  void HashExpr(const Expr* e) {
    if (e == nullptr) {
      Mix(0);
      return;
    }
    Mix(static_cast<std::uint64_t>(e->kind) + 0x100);
    switch (e->kind) {
      case ExprKind::kNullLiteral:
      case ExprKind::kIntLiteral:
      case ExprKind::kDoubleLiteral:
      case ExprKind::kStringLiteral:
      case ExprKind::kBoolLiteral:
        // Data node: value deliberately NOT hashed.
        break;
      case ExprKind::kColumnRef:
        MixString(ToLower(e->qualifier));
        MixString(ToLower(e->column));
        break;
      case ExprKind::kBinary:
        Mix(static_cast<std::uint64_t>(e->binary_op) + 0x200);
        HashExpr(e->lhs.get());
        HashExpr(e->rhs.get());
        break;
      case ExprKind::kUnary:
        Mix(static_cast<std::uint64_t>(e->unary_op) + 0x300);
        HashExpr(e->lhs.get());
        break;
      case ExprKind::kFunctionCall:
        MixString(e->function_name);
        Mix(e->args.size());
        for (const auto& a : e->args) HashExpr(a.get());
        break;
      case ExprKind::kInList:
        Mix(e->negated ? 0x401 : 0x400);
        HashExpr(e->lhs.get());
        Mix(e->in_list.size());
        for (const auto& a : e->in_list) HashExpr(a.get());
        break;
      case ExprKind::kBetween:
        Mix(e->negated ? 0x501 : 0x500);
        HashExpr(e->lhs.get());
        HashExpr(e->rhs.get());
        HashExpr(e->extra.get());
        break;
      case ExprKind::kSubquery: {
        Mix(0x600);
        StructureHasher sub;
        sub.HashSelect(*e->subquery);
        Mix(sub.h_);
        break;
      }
      case ExprKind::kPlaceholder:
        MixString(e->placeholder_name);
        break;
    }
  }

  std::uint64_t h_ = kFnvOffset;
};

}  // namespace

std::uint64_t StructureHash(const Statement& stmt) {
  return StructureHasher().Hash(stmt);
}

StatusOr<std::uint64_t> StructureHashOf(std::string_view query) {
  auto stmt = Parse(query);
  if (!stmt.ok()) return stmt.status();
  return StructureHash(stmt.value());
}

StatusOr<std::uint64_t> StructureHashOf(std::string_view query,
                                        const std::vector<Token>& tokens) {
  auto stmt = Parse(query, tokens);
  if (!stmt.ok()) return stmt.status();
  return StructureHash(stmt.value());
}

}  // namespace joza::sql
