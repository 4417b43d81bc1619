// Whole-string Levenshtein edit distance.
//
// NTI's matcher computes substring distance (Sellers' bounded DP and Myers'
// bit-parallel kernel, match/substring.h and match/myers.h). This
// two-row whole-string distance is their brute-force test oracle.
#pragma once

#include <cstddef>
#include <string_view>

namespace joza::match {

// Two-row O(n*m) time, O(min(n,m)) space.
std::size_t LevenshteinTwoRow(std::string_view a, std::string_view b);

}  // namespace joza::match
