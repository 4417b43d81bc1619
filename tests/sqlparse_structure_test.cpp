#include "sqlparse/structure.h"

#include <gtest/gtest.h>

namespace joza::sql {
namespace {

std::uint64_t MustHash(std::string_view q) {
  auto h = StructureHashOf(q);
  EXPECT_TRUE(h.ok()) << q;
  return h.ok() ? h.value() : 0;
}

TEST(Structure, DataChangesPreserveHash) {
  // The structure cache's core guarantee: literal values don't affect shape.
  EXPECT_EQ(MustHash("SELECT * FROM t WHERE id = 5"),
            MustHash("SELECT * FROM t WHERE id = 99999"));
  EXPECT_EQ(MustHash("SELECT * FROM t WHERE name = 'alice'"),
            MustHash("SELECT * FROM t WHERE name = 'bob the builder'"));
  EXPECT_EQ(MustHash("INSERT INTO t (a) VALUES ('x')"),
            MustHash("INSERT INTO t (a) VALUES ('completely different')"));
  // Integer or decimal, a number is data.
  EXPECT_EQ(MustHash("SELECT * FROM t WHERE id = 5"),
            MustHash("SELECT * FROM t WHERE id = 2.5"));
}

TEST(Structure, InjectionChangesHash) {
  const auto benign = MustHash("SELECT * FROM t WHERE id = 5");
  EXPECT_NE(benign, MustHash("SELECT * FROM t WHERE id = 5 OR 1 = 1"));
  EXPECT_NE(benign,
            MustHash("SELECT * FROM t WHERE id = 5 UNION SELECT version()"));
}

TEST(Structure, DifferentTablesDiffer) {
  EXPECT_NE(MustHash("SELECT * FROM a"), MustHash("SELECT * FROM b"));
}

TEST(Structure, DifferentColumnsDiffer) {
  EXPECT_NE(MustHash("SELECT x FROM t"), MustHash("SELECT y FROM t"));
}

TEST(Structure, OperatorMatters) {
  EXPECT_NE(MustHash("SELECT * FROM t WHERE a = 1"),
            MustHash("SELECT * FROM t WHERE a < 1"));
}

TEST(Structure, LimitPresenceMattersButValueDoesNot) {
  EXPECT_EQ(MustHash("SELECT a FROM t LIMIT 5"),
            MustHash("SELECT a FROM t LIMIT 10"));
  EXPECT_NE(MustHash("SELECT a FROM t LIMIT 5"), MustHash("SELECT a FROM t"));
}

// PTI matches fragments byte for byte, so the shape keeps every
// non-literal token's exact text.
TEST(Structure, CaseIsPartOfTheShape) {
  EXPECT_NE(MustHash("SELECT * FROM Users"), MustHash("SELECT * FROM users"));
  EXPECT_NE(MustHash("SELECT * FROM t ORDER BY id ASC"),
            MustHash("SELECT * FROM t ORDER BY id asc"));
}

TEST(Structure, CommentsAndParenthesesArePartOfTheShape) {
  const auto plain = MustHash("SELECT * FROM t WHERE id = 5");
  EXPECT_NE(plain, MustHash("SELECT * FROM t WHERE id = 5 -- x"));
  EXPECT_NE(plain, MustHash("SELECT * FROM t WHERE (id) = 5"));
  EXPECT_NE(MustHash("SELECT * FROM t WHERE id = 5 /* a */"),
            MustHash("SELECT * FROM t WHERE id = 5 /* b */"));
}

TEST(Structure, IntVsStringLiteralSameSlotDiffers) {
  // Changing the literal *kind* is a structural change.
  EXPECT_NE(MustHash("SELECT * FROM t WHERE a = 1"),
            MustHash("SELECT * FROM t WHERE a = '1'"));
}

TEST(Structure, UnionAllVsUnionDiffers) {
  EXPECT_NE(MustHash("SELECT a FROM t UNION SELECT b FROM u"),
            MustHash("SELECT a FROM t UNION ALL SELECT b FROM u"));
}

TEST(Structure, SubqueryStructureCounts) {
  EXPECT_NE(MustHash("SELECT * FROM t WHERE id IN (SELECT id FROM u)"),
            MustHash("SELECT * FROM t WHERE id IN (SELECT pid FROM u)"));
  EXPECT_EQ(
      MustHash("SELECT * FROM t WHERE id IN (SELECT id FROM u WHERE x = 1)"),
      MustHash("SELECT * FROM t WHERE id IN (SELECT id FROM u WHERE x = 2)"));
}

TEST(Structure, LexErrorHasNoShape) {
  EXPECT_FALSE(StructureHashOf("SELECT * FROM t WHERE a = 'open").ok());
  EXPECT_FALSE(StructureHashOf("SELECT * FROM t /* open").ok());
  // The parser models MySQL's grammar; it is no safety check, and a query
  // it rejects still has a shape.
  EXPECT_TRUE(StructureHashOf("SELECT FROM WHERE").ok());
}

}  // namespace
}  // namespace joza::sql
