#include "util/rng.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>

#include "util/hash.h"

namespace joza {
namespace {

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    auto v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit over 500 draws
}

TEST(Rng, NextDoubleUnit) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, TokenAlphabet) {
  Rng rng(3);
  std::string t = rng.NextToken(64);
  EXPECT_EQ(t.size(), 64u);
  for (char c : t) {
    EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) << c;
  }
}

TEST(Hash, Fnv1aKnownValue) {
  // FNV-1a of empty input is the offset basis.
  EXPECT_EQ(Fnv1a64(""), kFnvOffset);
  EXPECT_NE(Fnv1a64("a"), Fnv1a64("b"));
  EXPECT_NE(Fnv1a64("ab"), Fnv1a64("ba"));
}

// Every length takes one of WordHash64's load patterns (under 4 bytes,
// 4..16, 16-byte stripes plus an overlapping tail): flipping any bit of
// any byte, or dropping the last byte, changes the key at every length.
TEST(WordHash, SeesEveryByteAtEveryLength) {
  Rng rng(64);
  const std::string text = rng.NextToken(80);
  for (std::size_t n = 1; n <= text.size(); ++n) {
    const std::string_view s(text.data(), n);
    const std::uint64_t key = WordHash64(s, 3);
    EXPECT_NE(key, WordHash64(s.substr(0, n - 1), 3)) << n;
    for (std::size_t i = 0; i < n; ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string flipped(s);
        flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
        EXPECT_NE(WordHash64(flipped, 3), key) << n << " " << i << " " << bit;
      }
    }
  }
}

TEST(Hash, CombineOrderSensitive) {
  auto h1 = HashCombine(HashCombine(1, 2), 3);
  auto h2 = HashCombine(HashCombine(1, 3), 2);
  EXPECT_NE(h1, h2);
}

}  // namespace
}  // namespace joza
