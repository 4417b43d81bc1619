#include "match/bigram_filter.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace joza::match {

namespace {

// A bigram as the 16-bit word at `at`, in native byte order (patterns and
// texts are packed alike), loaded in one go.
std::uint16_t GramAt(const char* at) {
  std::uint16_t gram;
  std::memcpy(&gram, at, sizeof gram);
  return gram;
}

}  // namespace

bool BlockFilterEligible(std::string_view pattern) {
  if (pattern.empty() || pattern.size() > kBlockFilterMaxPattern) {
    return false;
  }
  for (unsigned char c : pattern) {
    if (c >= 0x80) return false;
  }
  return true;
}

std::size_t BigramBlockFilter::Add(std::string_view pattern,
                                   std::size_t max_distance) {
  const auto index = static_cast<std::uint32_t>(info_.size());
  Info& info = info_.emplace_back();
  info.block = pattern.size() + max_distance;
  info.positions = static_cast<std::uint32_t>(pattern.size() - 1);
  info.required = static_cast<std::int64_t>(info.positions) -
                  2 * static_cast<std::int64_t>(max_distance);
  // One entry per position: a bigram the pattern repeats gets one entry
  // per occurrence, and Scan ORs them all.
  for (std::size_t i = 0; i < info.positions; ++i) {
    const std::uint16_t gram = GramAt(pattern.data() + i);
    const std::uint32_t h = Hash(gram);
    present_[h >> 6] |= std::uint64_t{1} << (h & 63);
    std::uint32_t& head = heads_[h % heads_.size()];
    entries_.push_back({index, head, gram, static_cast<std::uint8_t>(i)});
    head = static_cast<std::uint32_t>(entries_.size());
  }
  return index;
}

void BigramBlockFilter::Info::StartScan() {
  cursor = 0;
  next_start = block;
  current = 0;
  previous = 0;
  best = 0;
  window_begin = 0;
  window_end = 0;
}

void BigramBlockFilter::Info::Close() {
  if (current == 0) return;  // nothing scored that earlier closes did not
  const auto pair =
      static_cast<std::uint32_t>(std::popcount(previous | current));
  best = std::max(best, pair);
  if (pair >= required) {
    Extend(cursor == 0 ? 0 : (cursor - 1) * block, (cursor + 1) * block);
  }
  if (std::popcount(current) >= required) {
    Extend(cursor * block, (cursor + 2) * block);
  }
}

void BigramBlockFilter::Info::MoveTo(std::size_t at) {
  Close();
  // Hits come in text order, so blocks only move forward; the next block
  // needs no division.
  const std::size_t next = at < next_start + block ? cursor + 1 : at / block;
  previous = next == cursor + 1 ? current : 0;
  current = 0;
  cursor = next;
  next_start = (next + 1) * block;
}

void BigramBlockFilter::Info::Extend(std::size_t begin, std::size_t end) {
  if (window_end == 0) window_begin = begin;
  window_end = end;
}

void BigramBlockFilter::Scan(std::string_view text) {
  for (Info& info : info_) info.StartScan();
  const std::size_t n = text.size();
  for (std::size_t j = 0; j + 1 < n; ++j) {
    const std::uint16_t gram = GramAt(text.data() + j);
    const std::uint32_t h = Hash(gram);
    if (((present_[h >> 6] >> (h & 63)) & 1) == 0) continue;
    for (std::uint32_t e = heads_[h % heads_.size()]; e != 0;) {
      const Entry& entry = entries_[e - 1];
      if (entry.gram == gram) {
        Info& info = info_[entry.pattern];
        if (j >= info.next_start) info.MoveTo(j);
        info.current |= std::uint64_t{1} << entry.position;
      }
      e = entry.next;
    }
  }
  for (Info& info : info_) {
    info.Close();
    if (info.required <= 0) {
      // Every pair holds, the empty ones too.
      info.window_begin = 0;
      info.window_end = n;
    }
    info.window_end = std::min(info.window_end, n);
  }
}

}  // namespace joza::match
