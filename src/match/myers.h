// Bit-parallel approximate matching kernel (Myers' algorithm).
//
// Computes the semi-global edit-distance profile of a pattern against a
// text in O(|text| · ⌈|pattern|/64⌉) word operations. Column j of the
// Sellers DP is encoded as two delta vectors per 64-row block of the
// pattern, so one step advances 64 rows at once. A pattern longer than 64
// bytes spans several blocks (Myers' block formulation, JACM 1999): each
// block hands the horizontal delta leaving its bottom row to the block
// below as a carry. The kernel is byte-clean: any pattern and text bytes.
//
// NTI uses it as an exact *reject* gate in front of every bounded Sellers
// verification: if the minimum distance over every text substring already
// exceeds the threshold bound, the DP (and its span recovery) is skipped.
// The kernel never decides a match by itself — accepts are re-verified by
// the reference DP — so the staged pipeline stays verdict-identical to the
// reference tier.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace joza::match {

// One pattern's match table, built once for any number of texts. A
// pattern of at most 64 bytes keeps it inline (no heap); a longer one asks
// the heap for (σ+1)·⌈m/64⌉ words, σ its distinct bytes, and each call on
// it for two words per block of scan state.
class MyersPattern {
 public:
  // Requires a non-empty pattern.
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
  // `visit(j, score)` sees D[m][j] for j = 1..|text| and returns false to
  // stop.
  template <typename Visit>
  void ForEachBottomCell(std::string_view text, Visit&& visit) const;

  std::size_t length_;
  std::size_t words_;  // ⌈length_ / 64⌉
  // row_[c]: the table row holding byte c's match words (bit i of word w
  // set iff pattern[64w + i] == c); row 0 is all zero, for every byte the
  // pattern lacks.
  std::array<std::uint16_t, 256> row_{};
  // A one-word pattern's rows (at most 64 distinct bytes and the zero
  // row); a longer pattern's rows, words_ words each, are on the heap.
  std::array<std::uint64_t, 65> short_rows_{};
  std::vector<std::uint64_t> long_rows_;
};

}  // namespace joza::match
