#include "match/myers.h"

#include <algorithm>

namespace joza::match {

namespace {

constexpr std::uint64_t kTopBit = std::uint64_t{1} << 63;

// One 64-row block's step over one text byte, in Myers' block formulation
// (Hyyrö's notation). VP/VN encode the vertical deltas of the block's
// previous DP column, `eq` its rows' matches against the byte, and the
// carry (hp_in, hn_in) the horizontal delta entering its top row: +1, -1
// or (both 0) none. Returns the delta leaving the row at `bottom` as
// +1 / -1 / 0. Bits above the bottom row are garbage but never flow
// downward: the only upward-propagating operation is the carry in the
// addition.
inline int Advance(std::uint64_t& vp, std::uint64_t& vn, std::uint64_t eq,
                   std::uint64_t hp_in, std::uint64_t hn_in,
                   std::uint64_t bottom) {
  const std::uint64_t xv = eq | vn;
  eq |= hn_in;  // a -1 entering the top row matches it diagonally
  const std::uint64_t xh = (((eq & vp) + vp) ^ vp) | eq;
  std::uint64_t hp = vn | ~(xh | vp);
  std::uint64_t hn = vp & xh;
  // hp and hn never share a bit: a cell moves by at most one.
  const int out = static_cast<int>((hp & bottom) != 0) -
                  static_cast<int>((hn & bottom) != 0);
  hp = (hp << 1) | hp_in;
  hn = (hn << 1) | hn_in;
  vp = hn | ~(xv | hp);
  vn = hp & xv;
  return out;
}

}  // namespace

MyersPattern::MyersPattern(std::string_view pattern)
    : length_(pattern.size()), words_((pattern.size() + 63) / 64) {
  // The table has a row per distinct byte: count them first.
  std::uint16_t rows = 1;  // row 0 stays zero
  for (unsigned char c : pattern) {
    if (row_[c] == 0) row_[c] = rows++;
  }
  std::uint64_t* table = short_rows_.data();
  if (words_ > 1) {
    long_rows_.assign(std::size_t{rows} * words_, 0);
    table = long_rows_.data();
  }
  for (std::size_t i = 0; i < length_; ++i) {
    const auto c = static_cast<unsigned char>(pattern[i]);
    table[row_[c] * words_ + i / 64] |= std::uint64_t{1} << (i % 64);
  }
}

template <typename Visit>
void MyersPattern::ForEachBottomCell(std::string_view text,
                                     Visit&& visit) const {
  const std::uint64_t bottom = std::uint64_t{1} << ((length_ - 1) % 64);
  std::size_t score = length_;  // D[m][0]
  // The top row is free (semi-global): no carry enters the first block.
  if (words_ == 1) {
    std::uint64_t vp = ~std::uint64_t{0};
    std::uint64_t vn = 0;
    for (std::size_t j = 0; j < text.size(); ++j) {
      const std::uint64_t eq =
          short_rows_[row_[static_cast<unsigned char>(text[j])]];
      score += Advance(vp, vn, eq, 0, 0, bottom);
      if (!visit(j + 1, score)) return;
    }
    return;
  }
  // Scan state: each block's VP, then each block's VN.
  std::vector<std::uint64_t> state(2 * words_, 0);
  std::uint64_t* vp = state.data();
  std::uint64_t* vn = vp + words_;
  std::fill(vp, vn, ~std::uint64_t{0});
  const std::size_t last = words_ - 1;
  for (std::size_t j = 0; j < text.size(); ++j) {
    const std::uint64_t* eq =
        long_rows_.data() + row_[static_cast<unsigned char>(text[j])] * words_;
    int carry = 0;
    for (std::size_t b = 0; b < last; ++b) {
      carry = Advance(vp[b], vn[b], eq[b], carry > 0, carry < 0, kTopBit);
    }
    carry = Advance(vp[last], vn[last], eq[last], carry > 0, carry < 0,
                    bottom);
    score += carry;
    if (!visit(j + 1, score)) return;
  }
}

std::size_t MyersPattern::MinDistance(std::string_view text) const {
  std::size_t best = length_;  // D[m][0]: the empty substring
  ForEachBottomCell(text, [&best](std::size_t, std::size_t d) {
    best = std::min(best, d);
    return best > 0;
  });
  return best;
}

bool MyersPattern::Within(std::string_view text, std::size_t k) const {
  if (length_ <= k) return true;  // the empty substring already is
  bool within = false;
  ForEachBottomCell(text, [&](std::size_t j, std::size_t d) {
    within = d <= k;
    // Later cells fall by at most one per byte left.
    return !within && d <= k + (text.size() - j);
  });
  return within;
}

}  // namespace joza::match
