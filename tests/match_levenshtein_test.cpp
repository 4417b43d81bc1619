#include "match/levenshtein.h"

#include <gtest/gtest.h>

#include <string>

#include "util/rng.h"

namespace joza::match {
namespace {

TEST(Levenshtein, KnownDistances) {
  EXPECT_EQ(LevenshteinTwoRow("kitten", "sitting"), 3u);
  EXPECT_EQ(LevenshteinTwoRow("flaw", "lawn"), 2u);
  EXPECT_EQ(LevenshteinTwoRow("", ""), 0u);
  EXPECT_EQ(LevenshteinTwoRow("abc", ""), 3u);
  EXPECT_EQ(LevenshteinTwoRow("", "abc"), 3u);
  EXPECT_EQ(LevenshteinTwoRow("same", "same"), 0u);
}

TEST(Levenshtein, MagicQuotesDistance) {
  // The NTI evasion math from the paper: each escaped quote adds one
  // backslash, i.e. one unit of edit distance.
  std::string original = "-1' OR '1'='1";
  std::string escaped = "-1\\' OR \\'1\\'=\\'1";
  EXPECT_EQ(LevenshteinTwoRow(original, escaped), 4u);  // four quotes escaped
}

// Metric properties of the oracle that the substring matchers' tests
// compare against.
class LevenshteinVariantEquivalence
    : public ::testing::TestWithParam<std::uint64_t> {};

// Property: symmetry d(a,b) == d(b,a).
TEST_P(LevenshteinVariantEquivalence, Symmetry) {
  Rng rng(GetParam() * 31 + 7);
  for (int i = 0; i < 50; ++i) {
    std::string a = rng.NextToken(rng.NextBelow(24));
    std::string b = rng.NextToken(rng.NextBelow(24));
    EXPECT_EQ(LevenshteinTwoRow(a, b), LevenshteinTwoRow(b, a));
  }
}

// Property: triangle inequality d(a,c) <= d(a,b) + d(b,c).
TEST_P(LevenshteinVariantEquivalence, TriangleInequality) {
  Rng rng(GetParam() * 131 + 17);
  for (int i = 0; i < 30; ++i) {
    std::string a = rng.NextToken(rng.NextBelow(20));
    std::string b = rng.NextToken(rng.NextBelow(20));
    std::string c = rng.NextToken(rng.NextBelow(20));
    EXPECT_LE(LevenshteinTwoRow(a, c),
              LevenshteinTwoRow(a, b) + LevenshteinTwoRow(b, c));
  }
}

// Property: bounds |len(a)-len(b)| <= d <= max(len).
TEST_P(LevenshteinVariantEquivalence, DistanceBounds) {
  Rng rng(GetParam() * 733 + 3);
  for (int i = 0; i < 50; ++i) {
    std::string a = rng.NextToken(rng.NextBelow(32));
    std::string b = rng.NextToken(rng.NextBelow(32));
    std::size_t d = LevenshteinTwoRow(a, b);
    std::size_t lo = a.size() > b.size() ? a.size() - b.size()
                                         : b.size() - a.size();
    EXPECT_GE(d, lo);
    EXPECT_LE(d, std::max(a.size(), b.size()));
  }
}

// Property: single edit always yields distance exactly 1.
TEST_P(LevenshteinVariantEquivalence, SingleEditDistanceOne) {
  Rng rng(GetParam() * 97 + 1);
  for (int i = 0; i < 50; ++i) {
    std::string a = rng.NextToken(10 + rng.NextBelow(20));
    std::string b = a;
    switch (rng.NextBelow(3)) {
      case 0:  // substitution with a char not in the alphabet position
        b[rng.NextBelow(b.size())] = 'Z';
        break;
      case 1:  // insertion
        b.insert(b.begin() + rng.NextBelow(b.size() + 1), 'Z');
        break;
      default:  // deletion
        b.erase(b.begin() + rng.NextBelow(b.size()));
        break;
    }
    if (a == b) continue;  // substitution may have been a no-op
    EXPECT_EQ(LevenshteinTwoRow(a, b), 1u) << a << " -> " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LevenshteinVariantEquivalence,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace joza::match
