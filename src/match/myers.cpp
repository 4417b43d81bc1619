#include "match/myers.h"

#include <algorithm>

namespace joza::match {

namespace {

// Hyyrö's formulation of Myers' algorithm. VP/VN encode the vertical
// deltas of the previous DP column; the score tracks the bottom cell
// D[n][j]. The top row is free (semi-global), so the horizontal vectors
// shift in zeros. Bits above n-1 are garbage but never flow downward: the
// only upward-propagating operation is the carry in the D0 addition.
// `visit(j, score)` sees D[n][j] for j = 1..|text| and returns false to
// stop.
template <typename Visit>
void ForEachBottomCell(const std::array<std::uint64_t, 128>& peq,
                       std::size_t length, std::string_view text,
                       Visit&& visit) {
  const std::uint64_t high = std::uint64_t{1} << (length - 1);
  std::uint64_t vp = ~std::uint64_t{0};
  std::uint64_t vn = 0;
  std::size_t score = length;
  for (std::size_t j = 0; j < text.size(); ++j) {
    const auto c = static_cast<unsigned char>(text[j]);
    const std::uint64_t eq = c < peq.size() ? peq[c] : 0;
    const std::uint64_t d0 = (((eq & vp) + vp) ^ vp) | eq | vn;
    const std::uint64_t hp = vn | ~(d0 | vp);
    const std::uint64_t hn = vp & d0;
    // hp and hn never share a bit: the bottom cell moves by at most one.
    score += ((hp & high) != 0);
    score -= ((hn & high) != 0);
    const std::uint64_t hp_shift = hp << 1;
    const std::uint64_t hn_shift = hn << 1;
    vp = hn_shift | ~(d0 | hp_shift);
    vn = hp_shift & d0;
    if (!visit(j + 1, score)) return;
  }
}

}  // namespace

bool MyersEligible(std::string_view input) {
  if (input.empty() || input.size() > kMyersMaxPattern) return false;
  for (unsigned char c : input) {
    if (c >= 0x80) return false;
  }
  return true;
}

MyersPattern::MyersPattern(std::string_view pattern)
    : length_(pattern.size()) {
  for (std::size_t i = 0; i < length_; ++i) {
    peq_[static_cast<unsigned char>(pattern[i])] |= std::uint64_t{1} << i;
  }
}

std::size_t MyersPattern::MinDistance(std::string_view text) const {
  std::size_t best = length_;  // D[n][0]: the empty substring
  ForEachBottomCell(peq_, length_, text, [&best](std::size_t, std::size_t d) {
    best = std::min(best, d);
    return best > 0;
  });
  return best;
}

bool MyersPattern::Within(std::string_view text, std::size_t k) const {
  if (length_ <= k) return true;  // the empty substring already is
  bool within = false;
  ForEachBottomCell(peq_, length_, text,
                    [&](std::size_t j, std::size_t d) {
                      within = d <= k;
                      // Later cells fall by at most one per byte left.
                      return !within && d <= k + (text.size() - j);
                    });
  return within;
}

}  // namespace joza::match
