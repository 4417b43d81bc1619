#include "match/levenshtein.h"

#include <algorithm>
#include <vector>

namespace joza::match {

std::size_t LevenshteinTwoRow(std::string_view a, std::string_view b) {
  // Iterate over the longer string, keep rows over the shorter one.
  if (a.size() < b.size()) std::swap(a, b);
  const std::size_t n = a.size(), m = b.size();
  if (m == 0) return n;
  std::vector<std::size_t> prev(m + 1), cur(m + 1);
  for (std::size_t j = 0; j <= m; ++j) prev[j] = j;
  for (std::size_t i = 1; i <= n; ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= m; ++j) {
      std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

}  // namespace joza::match
