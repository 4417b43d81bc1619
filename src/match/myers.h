// Bit-parallel approximate matching kernel (Myers' algorithm).
//
// Computes the semi-global edit-distance profile of a short pattern
// against a text in O(|text|) word operations: column j of the Sellers DP
// is encoded as two 64-bit delta vectors, so one loop iteration advances
// all |pattern| rows at once. NTI's staged matcher uses it as an exact
// *reject* filter: if the minimum distance over every text substring
// already exceeds the threshold bound, the full Sellers verification (and
// its span recovery) is skipped entirely. The kernel never decides a
// match by itself — accepts are re-verified by the reference DP — so the
// staged pipeline stays verdict-identical to the reference tier.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace joza::match {

// Word width of the kernel: patterns longer than this take the Sellers
// fallback tier.
inline constexpr std::size_t kMyersMaxPattern = 64;

// Eligibility policy for the bit-parallel tier: 1..64 bytes, plain ASCII.
// (The kernel itself is byte-clean; the ASCII restriction keeps the staged
// tier conservative on multi-byte encodings, whose bigram statistics the
// block filter was not tuned for.)
bool MyersEligible(std::string_view input);

// One pattern's match table (1 KiB), built once for any number of texts.
class MyersPattern {
 public:
  // Requires MyersEligible(pattern).
  explicit MyersPattern(std::string_view pattern);

  // Minimum edit distance between the pattern and any substring of
  // `text` — exactly min_j of Sellers' final DP row (including the empty
  // substring, distance |pattern|). |text| is unbounded.
  std::size_t MinDistance(std::string_view text) const;

  // MinDistance(text) <= k, decided as soon as the answer is known: at the
  // first cell within k, or once the cells left cannot fall that far
  // (adjacent cells of a DP row differ by at most one).
  bool Within(std::string_view text, std::size_t k) const;

 private:
  // peq_[c]: bit i set iff pattern[i] == c. An eligible pattern is ASCII,
  // so a text byte >= 0x80 simply matches nothing.
  std::array<std::uint64_t, 128> peq_{};
  std::size_t length_;
};

}  // namespace joza::match
