#include "match/aho_corasick.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "util/rng.h"

namespace joza::match {
namespace {

using Hit = AhoCorasick::Hit;

std::vector<Hit> NaiveFindAll(const std::vector<std::string>& patterns,
                              std::string_view text) {
  std::vector<Hit> hits;
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    const std::string& pat = patterns[p];
    if (pat.empty()) continue;
    std::size_t pos = text.find(pat);
    while (pos != std::string_view::npos) {
      hits.push_back({pos, pat.size(), static_cast<std::int32_t>(p)});
      pos = text.find(pat, pos + 1);
    }
  }
  return hits;
}

void SortHits(std::vector<Hit>& hits) {
  std::sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
    return std::tie(a.begin, a.length, a.pattern_id) <
           std::tie(b.begin, b.length, b.pattern_id);
  });
}

TEST(AhoCorasick, BasicMatches) {
  AhoCorasick ac;
  ac.Add("he", 0);
  ac.Add("she", 1);
  ac.Add("his", 2);
  ac.Add("hers", 3);
  ac.Build();
  auto hits = ac.FindAll("ushers");
  SortHits(hits);
  // "ushers" contains she@1, he@2, hers@2.
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].pattern_id, 1);
  EXPECT_EQ(hits[0].begin, 1u);
  EXPECT_EQ(hits[1].pattern_id, 0);
  EXPECT_EQ(hits[1].begin, 2u);
  EXPECT_EQ(hits[2].pattern_id, 3);
  EXPECT_EQ(hits[2].begin, 2u);
}

TEST(AhoCorasick, OverlappingOccurrences) {
  AhoCorasick ac;
  ac.Add("aa", 7);
  ac.Build();
  auto hits = ac.FindAll("aaaa");
  EXPECT_EQ(hits.size(), 3u);
}

TEST(AhoCorasick, NoMatches) {
  AhoCorasick ac;
  ac.Add("xyz", 0);
  ac.Build();
  EXPECT_TRUE(ac.FindAll("abcabc").empty());
}

TEST(AhoCorasick, EmptyPatternIgnored) {
  AhoCorasick ac;
  EXPECT_EQ(ac.Add("", 0), -1);
  ac.Add("a", 1);
  ac.Build();
  EXPECT_EQ(ac.FindAll("aa").size(), 2u);
}

TEST(AhoCorasick, EmptyText) {
  AhoCorasick ac;
  ac.Add("a", 0);
  ac.Build();
  EXPECT_TRUE(ac.FindAll("").empty());
}

TEST(AhoCorasick, SqlFragmentScenario) {
  // PTI's actual use: fragments from an application matched against a query.
  AhoCorasick ac;
  std::vector<std::string> fragments = {
      "SELECT * FROM records WHERE ID=", " LIMIT 5", "OR", "="};
  for (std::size_t i = 0; i < fragments.size(); ++i) {
    ac.Add(fragments[i], static_cast<std::int32_t>(i));
  }
  ac.Build();
  std::string query = "SELECT * FROM records WHERE ID=5 LIMIT 5";
  auto hits = ac.FindAll(query);
  // The long prefix fragment must be found at position 0.
  bool prefix_found = false;
  for (const auto& h : hits) {
    if (h.pattern_id == 0 && h.begin == 0) prefix_found = true;
    EXPECT_EQ(query.substr(h.begin, h.length),
              fragments[static_cast<std::size_t>(h.pattern_id)]);
  }
  EXPECT_TRUE(prefix_found);
}

TEST(AhoCorasick, BinaryBytes) {
  AhoCorasick ac;
  std::string pat;
  pat.push_back('\0');
  pat.push_back('\xff');
  ac.Add(pat, 0);
  ac.Build();
  std::string text = "x" + pat + "y" + pat;
  EXPECT_EQ(ac.FindAll(text).size(), 2u);
}

class AhoPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

// Property: agrees with naive multi-pattern search on random inputs.
TEST_P(AhoPropertyTest, MatchesNaiveSearch) {
  Rng rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    std::vector<std::string> patterns;
    std::set<std::string> seen;
    const std::size_t np = 1 + rng.NextBelow(12);
    for (std::size_t i = 0; i < np; ++i) {
      // Tiny alphabet to force overlaps and shared prefixes/suffixes.
      std::string p;
      std::size_t len = 1 + rng.NextBelow(5);
      for (std::size_t j = 0; j < len; ++j) {
        p.push_back(static_cast<char>('a' + rng.NextBelow(3)));
      }
      if (!seen.insert(p).second) continue;  // AC dedupes; keep sets equal
      patterns.push_back(p);
    }
    AhoCorasick ac;
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      ac.Add(patterns[i], static_cast<std::int32_t>(i));
    }
    ac.Build();
    std::string text;
    std::size_t tlen = rng.NextBelow(120);
    for (std::size_t j = 0; j < tlen; ++j) {
      text.push_back(static_cast<char>('a' + rng.NextBelow(3)));
    }
    auto got = ac.FindAll(text);
    auto want = NaiveFindAll(patterns, text);
    SortHits(got);
    SortHits(want);
    ASSERT_EQ(got.size(), want.size()) << "text=" << text;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].begin, want[i].begin);
      EXPECT_EQ(got[i].length, want[i].length);
      EXPECT_EQ(got[i].pattern_id, want[i].pattern_id);
    }
  }
}

std::string RandomBytes(Rng& rng, const std::string& alphabet,
                        std::size_t length) {
  std::string out;
  for (std::size_t j = 0; j < length; ++j) {
    out.push_back(alphabet[rng.NextBelow(alphabet.size())]);
  }
  return out;
}

void ExpectSameHits(const AhoCorasick& ac,
                    const std::vector<std::string>& patterns,
                    std::string_view text) {
  auto got = ac.FindAll(text);
  auto want = NaiveFindAll(patterns, text);
  SortHits(got);
  SortHits(want);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].begin, want[i].begin);
    EXPECT_EQ(got[i].length, want[i].length);
    EXPECT_EQ(got[i].pattern_id, want[i].pattern_id);
  }
}

// Property: bytes no pattern contains share one class that leads back to
// the root. Texts draw from a wider alphabet than the patterns, so such
// bytes ('\0' and '\xff' among them) land between matches and inside
// would-be matches, where they must break the partial match.
TEST_P(AhoPropertyTest, BytesOutsideThePatternsResetMatching) {
  Rng rng(GetParam());
  const std::string pattern_alphabet = std::string("ab") + '\x80' + '\x01';
  const std::string text_alphabet =
      pattern_alphabet + std::string("z\0", 2) + '\xff' + '\x7f';
  for (int round = 0; round < 20; ++round) {
    std::vector<std::string> patterns;
    std::set<std::string> seen;
    std::set<unsigned char> used;
    const std::size_t np = 1 + rng.NextBelow(10);
    for (std::size_t i = 0; i < np; ++i) {
      std::string p = RandomBytes(rng, pattern_alphabet, 1 + rng.NextBelow(5));
      if (!seen.insert(p).second) continue;
      used.insert(p.begin(), p.end());
      patterns.push_back(p);
    }
    AhoCorasick ac;
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      ac.Add(patterns[i], static_cast<std::int32_t>(i));
    }
    ac.Build();
    EXPECT_EQ(ac.class_count(), used.size() + 1);
    std::size_t pattern_bytes = 0;
    for (const std::string& p : patterns) pattern_bytes += p.size();
    EXPECT_LE(ac.memory_bytes(),
              AhoCorasick::EstimateMemoryBytes(pattern_bytes, used.size()));

    std::string text = RandomBytes(rng, text_alphabet, rng.NextBelow(160));
    // Also splice a foreign byte into the middle of a pattern occurrence.
    const std::string& victim = patterns[rng.NextBelow(patterns.size())];
    if (victim.size() >= 2) {
      std::string broken = victim;
      broken.insert(broken.begin() + 1, rng.NextBelow(2) == 0 ? '\0' : '\xff');
      text += broken + victim;
    }
    ExpectSameHits(ac, patterns, text);
  }
}

// Boundary: a vocabulary that uses all 256 byte values has 257 classes,
// the most the class map ever names.
TEST_P(AhoPropertyTest, VocabularyOverEveryByteValue) {
  Rng rng(GetParam());
  std::string all_bytes;
  for (int b = 0; b < 256; ++b) all_bytes.push_back(static_cast<char>(b));
  std::vector<std::string> patterns;
  std::set<std::string> seen;
  // Every byte value appears: one pattern per 8-byte slice of 0..255, plus
  // random short patterns that overlap them.
  for (std::size_t start = 0; start < all_bytes.size(); start += 8) {
    patterns.push_back(all_bytes.substr(start, 8));
    seen.insert(patterns.back());
  }
  for (int i = 0; i < 40; ++i) {
    std::string p = RandomBytes(rng, all_bytes, 1 + rng.NextBelow(3));
    if (seen.insert(p).second) patterns.push_back(p);
  }
  AhoCorasick ac;
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    ac.Add(patterns[i], static_cast<std::int32_t>(i));
  }
  ac.Build();
  EXPECT_EQ(ac.class_count(), 257u);
  std::size_t pattern_bytes = 0;
  for (const std::string& p : patterns) pattern_bytes += p.size();
  EXPECT_LE(ac.memory_bytes(),
            AhoCorasick::EstimateMemoryBytes(pattern_bytes, 256));

  for (int round = 0; round < 10; ++round) {
    std::string text = RandomBytes(rng, all_bytes, rng.NextBelow(400));
    text += patterns[rng.NextBelow(patterns.size())];
    text += all_bytes;
    ExpectSameHits(ac, patterns, text);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AhoPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace joza::match
