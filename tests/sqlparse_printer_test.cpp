#include "sqlparse/printer.h"

#include <gtest/gtest.h>

#include "sqlparse/parser.h"
#include "util/rng.h"

namespace joza::sql {
namespace {

// Parse -> print -> parse must preserve the statement: the printed form
// parses back to a statement that prints the same text, values included.
void ExpectRoundTrip(const std::string& query) {
  auto first = Parse(query);
  ASSERT_TRUE(first.ok()) << query << ": " << first.status().ToString();
  const std::string printed = Print(first.value());
  auto second = Parse(printed);
  ASSERT_TRUE(second.ok()) << "printed form unparseable: " << printed;
  EXPECT_EQ(Print(second.value()), printed) << query;
}

TEST(Printer, SelectRoundTrips) {
  ExpectRoundTrip("SELECT * FROM t WHERE id = 5 LIMIT 5");
  ExpectRoundTrip("SELECT a, b AS x FROM t WHERE a > 1 AND b < 2");
  ExpectRoundTrip("SELECT DISTINCT a FROM t ORDER BY a DESC LIMIT 3 OFFSET 1");
  ExpectRoundTrip("SELECT a FROM t UNION ALL SELECT b FROM u UNION SELECT 1");
  ExpectRoundTrip(
      "SELECT p.a, q.b FROM t p LEFT JOIN u q ON p.id = q.id WHERE p.x = 'v'");
  ExpectRoundTrip("SELECT COUNT(*), MAX(v) FROM t GROUP BY k HAVING COUNT(*) > 2");
  ExpectRoundTrip("SELECT * FROM t WHERE a IN (1, 2, 3) OR b NOT IN (4)");
  ExpectRoundTrip("SELECT * FROM t WHERE a BETWEEN 1 AND 9");
  ExpectRoundTrip("SELECT * FROM t WHERE a IS NULL OR b IS NOT NULL");
  ExpectRoundTrip("SELECT * FROM t WHERE name LIKE '%x%' OR name NOT LIKE 'y'");
  ExpectRoundTrip("SELECT (SELECT MAX(id) FROM u) + 1 FROM t");
  ExpectRoundTrip("SELECT * FROM t WHERE id IN (SELECT id FROM u)");
}

TEST(Printer, DmlRoundTrips) {
  ExpectRoundTrip("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')");
  ExpectRoundTrip("INSERT INTO t VALUES (NULL, 3.5, TRUE)");
  ExpectRoundTrip("UPDATE t SET a = a + 1, b = 'z' WHERE id = 4 LIMIT 1");
  ExpectRoundTrip("DELETE FROM t WHERE id = 9");
  ExpectRoundTrip("CREATE TABLE IF NOT EXISTS t (a INT, b DOUBLE, c TEXT)");
  ExpectRoundTrip("DROP TABLE IF EXISTS t");
}

TEST(Printer, InjectionShapedQueriesRoundTrip) {
  ExpectRoundTrip("SELECT * FROM data WHERE ID = -1 OR 1 = 1");
  ExpectRoundTrip(
      "SELECT title FROM wp_posts WHERE id = -1 "
      "UNION SELECT pass FROM wp_users");
  ExpectRoundTrip("SELECT IF(1 = 1, SLEEP(2), 0)");
}

TEST(Printer, StringEscapesSurvive) {
  auto stmt = Parse(R"(SELECT 'it\'s a \\ test')");
  ASSERT_TRUE(stmt.ok());
  std::string printed = Print(stmt.value());
  auto again = Parse(printed);
  ASSERT_TRUE(again.ok()) << printed;
  EXPECT_EQ(again.value().select->cores[0].items[0].expr->string_value,
            "it's a \\ test");
}

TEST(Printer, Placeholders) {
  ExpectRoundTrip("SELECT * FROM t WHERE a = ? AND b = :uid");
}

// Property: randomly generated expressions round-trip through print and
// parse.
class PrinterPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  ExprPtr RandomExpr(Rng& rng, int depth) {
    auto e = std::make_unique<Expr>();
    if (depth <= 0 || rng.NextBool(0.3)) {
      switch (rng.NextBelow(4)) {
        case 0:
          e->kind = ExprKind::kIntLiteral;
          e->int_value = rng.NextInRange(-100, 100);
          break;
        case 1:
          e->kind = ExprKind::kStringLiteral;
          e->string_value = rng.NextToken(rng.NextBelow(6));
          break;
        case 2:
          e->kind = ExprKind::kColumnRef;
          e->column = "c" + rng.NextToken(3);
          break;
        default:
          e->kind = ExprKind::kNullLiteral;
          break;
      }
      return e;
    }
    switch (rng.NextBelow(4)) {
      case 0: {
        e->kind = ExprKind::kBinary;
        static constexpr BinaryOp kOps[] = {
            BinaryOp::kOr,  BinaryOp::kAnd, BinaryOp::kEq, BinaryOp::kNe,
            BinaryOp::kLt,  BinaryOp::kGt,  BinaryOp::kAdd, BinaryOp::kSub,
            BinaryOp::kMul, BinaryOp::kLike};
        e->binary_op = kOps[rng.NextBelow(std::size(kOps))];
        e->lhs = RandomExpr(rng, depth - 1);
        e->rhs = RandomExpr(rng, depth - 1);
        break;
      }
      case 1: {
        e->kind = ExprKind::kUnary;
        static constexpr UnaryOp kOps[] = {UnaryOp::kNot, UnaryOp::kNeg,
                                           UnaryOp::kIsNull,
                                           UnaryOp::kIsNotNull};
        e->unary_op = kOps[rng.NextBelow(std::size(kOps))];
        e->lhs = RandomExpr(rng, depth - 1);
        break;
      }
      case 2: {
        e->kind = ExprKind::kFunctionCall;
        e->function_name = rng.NextBool() ? "CONCAT" : "IFNULL";
        e->args.push_back(RandomExpr(rng, depth - 1));
        e->args.push_back(RandomExpr(rng, depth - 1));
        break;
      }
      default: {
        e->kind = ExprKind::kInList;
        e->negated = rng.NextBool();
        e->lhs = RandomExpr(rng, depth - 1);
        std::size_t n = 1 + rng.NextBelow(3);
        for (std::size_t i = 0; i < n; ++i) {
          e->in_list.push_back(RandomExpr(rng, depth - 1));
        }
        break;
      }
    }
    return e;
  }
};

TEST_P(PrinterPropertyTest, RandomExpressionsRoundTrip) {
  Rng rng(GetParam());
  for (int i = 0; i < 40; ++i) {
    ExprPtr e = RandomExpr(rng, 4);
    const std::string printed = Print(*e);
    auto reparsed = ParseExpression(printed);
    ASSERT_TRUE(reparsed.ok()) << printed;
    // A negative literal prints as "-7" and parses back as a negation, so
    // compare from the reparsed form on: it prints text that parses back
    // to the same text, values included.
    const std::string canonical = Print(*reparsed.value());
    auto again = ParseExpression(canonical);
    ASSERT_TRUE(again.ok()) << canonical;
    EXPECT_EQ(Print(*again.value()), canonical) << printed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrinterPropertyTest,
                         ::testing::Values(3, 1415, 926, 535, 89, 793));

}  // namespace
}  // namespace joza::sql
