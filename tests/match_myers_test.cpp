// The staged NTI matcher's filter kernels: the bit-parallel Myers distance
// must agree exactly with the Sellers reference (it is used as a REJECT
// filter, so any disagreement would change verdicts), and the bigram block
// filter must be sound (never reject an input that has a within-bound
// match, never hide a window that holds one).
#include "match/myers.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "match/bigram_filter.h"
#include "match/levenshtein.h"
#include "match/substring.h"
#include "util/rng.h"

namespace joza::match {
namespace {

TEST(Myers, Eligibility) {
  EXPECT_FALSE(MyersEligible(""));
  EXPECT_TRUE(MyersEligible("a"));
  EXPECT_TRUE(MyersEligible(std::string(64, 'x')));
  EXPECT_FALSE(MyersEligible(std::string(65, 'x')));
  EXPECT_FALSE(MyersEligible("caf\xC3\xA9"));  // non-ASCII falls back
}

TEST(Myers, ExactOccurrenceIsZero) {
  EXPECT_EQ(MyersPattern("-1 OR 1=1")
                .MinDistance("SELECT * FROM t WHERE id=-1 OR 1=1"),
            0u);
}

TEST(Myers, EmptyQueryCostsWholeInput) {
  // The only substring of "" is "": distance = |input|.
  EXPECT_EQ(MyersPattern("abc").MinDistance(""), 3u);
}

TEST(Myers, KnownDistances) {
  // One backslash inserted by escaping.
  EXPECT_EQ(MyersPattern("x' OR 1").MinDistance("WHERE a = 'x\\' OR 1'"),
            1u);
  // Nothing in common: best is the empty substring.
  EXPECT_EQ(MyersPattern("qq").MinDistance("zzzz"), 2u);
}

// Property: the kernel computes exactly the Sellers minimum — same value
// the reference matcher reports. Random strings over small alphabets to
// force interesting alignments.
TEST(MyersProperty, AgreesWithSellersReference) {
  Rng rng(2024);
  for (int i = 0; i < 400; ++i) {
    const std::size_t qlen = rng.NextBelow(60);
    const std::size_t plen = 1 + rng.NextBelow(64);
    std::string q, p;
    const char base = rng.NextBool(0.5) ? 'a' : 'x';
    for (std::size_t j = 0; j < qlen; ++j) {
      q += static_cast<char>(base + rng.NextBelow(4));
    }
    for (std::size_t j = 0; j < plen; ++j) {
      p += static_cast<char>(base + rng.NextBelow(4));
    }
    ASSERT_TRUE(MyersEligible(p));
    EXPECT_EQ(MyersPattern(p).MinDistance(q),
              BestSubstringMatch(q, p).distance)
        << q << " / " << p;
  }
}

TEST(MyersProperty, WordBoundaryPatterns) {
  // Exactly 64 pattern bytes: the high-bit bookkeeping has no slack.
  Rng rng(31);
  for (int i = 0; i < 60; ++i) {
    std::string p = rng.NextToken(64);
    std::string q = rng.NextToken(20 + rng.NextBelow(80));
    EXPECT_EQ(MyersPattern(p).MinDistance(q),
              BestSubstringMatch(q, p).distance);
    // Embedding the pattern drives the minimum to zero.
    std::string q2 = rng.NextToken(10) + p + rng.NextToken(10);
    EXPECT_EQ(MyersPattern(p).MinDistance(q2), 0u);
  }
}

// The early-deciding form answers exactly "MinDistance <= k".
TEST(MyersProperty, WithinAgreesWithMinDistance) {
  Rng rng(909);
  for (int i = 0; i < 400; ++i) {
    std::string q, p;
    const std::size_t qlen = rng.NextBelow(70);
    const std::size_t plen = 1 + rng.NextBelow(64);
    for (std::size_t j = 0; j < qlen; ++j) {
      q += static_cast<char>('a' + rng.NextBelow(4));
    }
    for (std::size_t j = 0; j < plen; ++j) {
      p += static_cast<char>('a' + rng.NextBelow(4));
    }
    const MyersPattern pattern(p);
    const std::size_t d = pattern.MinDistance(q);
    for (std::size_t k : {std::size_t{0}, d > 0 ? d - 1 : 0, d, d + 1,
                          static_cast<std::size_t>(rng.NextBelow(plen + 2))}) {
      EXPECT_EQ(pattern.Within(q, k), d <= k)
          << q << " / " << p << " k=" << k << " d=" << d;
    }
  }
}

TEST(MyersPattern, ReusedAcrossTexts) {
  const MyersPattern pattern("x' OR 1");
  EXPECT_EQ(pattern.MinDistance("WHERE a = 'x\\' OR 1'"), 1u);
  EXPECT_EQ(pattern.MinDistance("x' OR 1"), 0u);
  EXPECT_EQ(pattern.MinDistance(""), 7u);
}

// One pattern's filter over one text.
BigramBlockFilter ScannedFilter(std::string_view pattern, std::size_t k,
                                std::string_view text) {
  BigramBlockFilter filter;
  filter.Add(pattern, k);
  filter.Scan(text);
  return filter;
}

TEST(BigramFilter, ShortInputsNeverRejected) {
  // One byte has no bigram; two bytes with k=1 need (2-1) - 2 < 0 of them.
  BigramBlockFilter filter;
  filter.Add("a", 0);
  filter.Add("qz", 1);
  filter.Scan("SELECT 1");
  EXPECT_TRUE(filter.MayContain(0));
  EXPECT_TRUE(filter.MayMatch(0));
  EXPECT_TRUE(filter.MayMatch(1));
}

TEST(BigramFilter, DisjointInputRejected) {
  // No bigram of "zzzzzzzz" occurs in the text; (8-1) - 2*1 = 5 needed.
  const auto strict = ScannedFilter("zzzzzzzz", 1, "SELECT name FROM users");
  EXPECT_FALSE(strict.MayMatch(0));
  EXPECT_FALSE(strict.MayContain(0));
  // A large enough bound always disables the filter: (8-1) - 2*4 < 0.
  EXPECT_TRUE(ScannedFilter("zzzzzzzz", 4, "SELECT name FROM users")
                  .MayMatch(0));
}

TEST(BigramFilter, ExactOccurrenceNeedsAllPositions) {
  EXPECT_TRUE(ScannedFilter("abcd", 0, "abcd").MayContain(0));
  // ab and cd are present, bx and xc are not: 2 of 4 positions, enough for
  // k = 1 but not for an exact occurrence.
  const auto partial = ScannedFilter("abxcd", 1, "abcd");
  EXPECT_FALSE(partial.MayContain(0));
  EXPECT_TRUE(partial.MayMatch(0));
  EXPECT_FALSE(ScannedFilter("zz", 0, "abcd").MayMatch(0));
}

TEST(BigramFilter, PositionsInDistantBlocksDoNotAdd) {
  // "abcdef", k = 1: blocks of 7 bytes, (6-1) - 2 = 3 positions needed in
  // one adjacent pair. ab/bc sit at the start and de/ef 30 bytes later, so
  // no pair holds more than two, although four are present in the text.
  const std::string text = "abc" + std::string(30, 'x') + "def";
  const auto filter = ScannedFilter("abcdef", 1, text);
  EXPECT_FALSE(filter.MayMatch(0));
  EXPECT_TRUE(filter.Window(0, text).empty());
}

TEST(BigramFilter, WindowSpansQualifyingPairs) {
  // "abcd", k = 0: blocks of 4 bytes. The occurrence at 9 has all its
  // bigrams in block 2, so pairs 1-2 and 2-3 qualify: blocks 1-3,
  // text[4, 16).
  const std::string one = std::string(9, '.') + "abcd" + std::string(20, '.');
  EXPECT_EQ(ScannedFilter("abcd", 0, one).Window(0, one), one.substr(4, 12));
  // A second occurrence at 29 (block 7) stretches the window through
  // pair 7-8: text[4, 36), the gap between them included.
  const std::string two = one.substr(0, 29) + "abcd" + std::string(10, '.');
  EXPECT_EQ(ScannedFilter("abcd", 0, two).Window(0, two), two.substr(4, 32));
  // A window never runs past the text, and a pattern that needs no
  // position at all gets the whole text.
  const std::string tail = std::string(6, '.') + "ab";
  EXPECT_EQ(ScannedFilter("ab", 0, tail).Window(0, tail), tail.substr(4));
  EXPECT_EQ(ScannedFilter("qz", 1, tail).Window(0, tail), tail);
}

// The windowed kernel's answer: is the window within `k` of `pattern`?
bool WindowedWithin(const BigramBlockFilter& filter, std::size_t index,
                    std::string_view text, std::string_view pattern,
                    std::size_t k) {
  return MyersPattern(pattern).MinDistance(filter.Window(index, text)) <= k;
}

// Soundness: whenever the true best substring distance is d, a filter
// built with bound d must pass the input, its window must hold a match
// within d, and a distance-0 input must be allowed its exact find.
TEST(BigramFilterProperty, NeverRejectsAWithinBoundMatch) {
  Rng rng(77);
  for (int i = 0; i < 300; ++i) {
    std::string q, p;
    const std::size_t qlen = rng.NextBelow(50);
    const std::size_t plen = 1 + rng.NextBelow(20);
    for (std::size_t j = 0; j < qlen; ++j) {
      q += static_cast<char>('a' + rng.NextBelow(5));
    }
    for (std::size_t j = 0; j < plen; ++j) {
      p += static_cast<char>('a' + rng.NextBelow(5));
    }
    const std::size_t d = BestSubstringMatch(q, p).distance;
    const auto filter = ScannedFilter(p, d, q);
    EXPECT_TRUE(filter.MayMatch(0)) << q << " / " << p << " d=" << d;
    EXPECT_TRUE(WindowedWithin(filter, 0, q, p, d))
        << q << " / " << p << " d=" << d;
    if (d == 0) {
      EXPECT_TRUE(filter.MayContain(0)) << q << " / " << p;
    }
  }
}

// Approximate copies of <=64-byte inputs planted across block boundaries,
// several inputs per filter, at NTI's threshold bounds: the filter and its
// windowed kernel reject an input exactly when the reference minimum
// distance exceeds k, and never deny an exact occurrence its find.
TEST(BigramFilterProperty, PlantedAcrossBlockBoundaries) {
  Rng rng(4242);
  const std::string alphabet = "abcdefgh '=-1()OR";
  auto random_text = [&](std::size_t n) {
    std::string out;
    for (std::size_t j = 0; j < n; ++j) {
      out += alphabet[rng.NextBelow(alphabet.size())];
    }
    return out;
  };
  int planted_within = 0;
  for (int round = 0; round < 400; ++round) {
    const double threshold = 0.1 * static_cast<double>(1 + round % 4);
    std::vector<std::string> inputs;
    std::vector<std::size_t> bounds;
    for (std::size_t i = 0, n = 1 + rng.NextBelow(3); i < n; ++i) {
      const std::size_t m = 3 + rng.NextBelow(62);  // 3..64 bytes
      inputs.push_back(random_text(m));
      bounds.push_back(static_cast<std::size_t>(std::ceil(
          threshold * static_cast<double>(m) / (1.0 - threshold))));
    }
    // The query: random filler with a copy of one input, up to k edits
    // away, planted so that it straddles a boundary of that input's blocks.
    const std::size_t target = rng.NextBelow(inputs.size());
    const std::size_t m = inputs[target].size();
    const std::size_t k = bounds[target];
    std::string copy = inputs[target];
    for (std::size_t e = rng.NextBelow(k + 1); e > 0 && !copy.empty(); --e) {
      const std::size_t at = rng.NextBelow(copy.size());
      switch (rng.NextBelow(3)) {
        case 0: copy[at] = alphabet[rng.NextBelow(alphabet.size())]; break;
        case 1: copy.erase(at, 1); break;
        default:
          copy.insert(copy.begin() + static_cast<std::ptrdiff_t>(at),
                      alphabet[rng.NextBelow(alphabet.size())]);
      }
    }
    const std::size_t block = m + k;
    const std::size_t boundary = block * (1 + rng.NextBelow(3));
    const std::size_t lead = boundary - 1 - rng.NextBelow(
                                               std::min(copy.size(), block));
    std::string query = random_text(lead) + copy +
                        random_text(rng.NextBelow(2 * block));

    BigramBlockFilter filter;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      filter.Add(inputs[i], bounds[i]);
    }
    filter.Scan(query);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const std::size_t d = BestSubstringMatch(query, inputs[i]).distance;
      const bool within = d <= bounds[i];
      if (i == target && within) ++planted_within;
      if (within) {
        EXPECT_TRUE(filter.MayMatch(i))
            << "query: " << query << "  input: " << inputs[i];
      }
      if (filter.MayMatch(i)) {
        EXPECT_EQ(WindowedWithin(filter, i, query, inputs[i], bounds[i]),
                  within)
            << "query: " << query << "  input: " << inputs[i];
      }
      if (query.find(inputs[i]) != std::string::npos) {
        EXPECT_TRUE(filter.MayContain(i))
            << "query: " << query << "  input: " << inputs[i];
      }
    }
  }
  // At most k edits were planted, so every planted copy is within bound.
  EXPECT_EQ(planted_within, 400);
}

}  // namespace
}  // namespace joza::match
