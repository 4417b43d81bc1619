// Bigram block filter: a multi-pattern reject filter for approximate
// substring matching, built once for a set of short patterns and then run
// over many texts, one pass over each text's bigrams.
//
// Counting lemma (q = 2): every edit destroys at most two of a pattern's
// m-1 bigram positions, so a text substring within k edits of an m-byte
// pattern contains the bigrams of at least (m-1) - 2k of those positions.
// Such a substring is at most m+k bytes long, so if the text is cut into
// blocks of m+k bytes, each of its bigrams starts in one of two adjacent
// blocks. Scan ORs, per pattern and block, the positions whose bigram
// starts in that block; a pattern none of whose adjacent block pairs holds
// (m-1) - 2k positions has no substring within k edits, and one none of
// whose pairs holds all m-1 has no exact occurrence. Like the Myers kernel
// this only ever rejects, so it cannot change a verdict.
//
// A pattern's scan state is its current and previous block, whatever the
// text's length: a Scan allocates nothing, and the filter's memory grows
// with its patterns alone.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace joza::match {

// Longest pattern the filter takes: a pattern's bigram positions fit one
// 64-bit mask.
inline constexpr std::size_t kBlockFilterMaxPattern = 64;

// Which patterns NTI hands the filter: 1..64 bytes, plain ASCII. (The
// filter itself is byte-clean; the ASCII restriction keeps the staged tier
// conservative on multi-byte encodings, whose bigram statistics the filter
// was not tuned for.) Every other pattern goes to the Myers kernel over
// the whole text.
bool BlockFilterEligible(std::string_view pattern);

class BigramBlockFilter {
 public:
  // Sizes the index for `patterns` more patterns holding `grams` bigram
  // positions in all. Optional; saves regrowth.
  void Reserve(std::size_t patterns, std::size_t grams) {
    info_.reserve(info_.size() + patterns);
    entries_.reserve(entries_.size() + grams);
  }

  // Indexes one more pattern (1..kBlockFilterMaxPattern bytes) with its
  // bound k, one entry per bigram position. Returns the pattern's index.
  std::size_t Add(std::string_view pattern, std::size_t max_distance);

  // One pass over `text`'s bigrams. The accessors below then answer for
  // this text until the next Scan.
  void Scan(std::string_view text);

  // Some adjacent block pair holds all m-1 positions of pattern `p`:
  // necessary for an exact occurrence.
  bool MayContain(std::size_t p) const {
    return info_[p].best == info_[p].positions;
  }
  // Some adjacent block pair holds (m-1) - 2k positions of pattern `p`:
  // necessary for a substring within k edits.
  bool MayMatch(std::size_t p) const {
    return static_cast<std::int64_t>(info_[p].best) >= info_[p].required;
  }

  // The part of the scanned `text` from the first adjacent block pair that
  // holds (m-1) - 2k positions of pattern `p` through the last one (all of
  // it when that count is <= 0); empty when no pair does. Every substring
  // within k edits of the pattern lies inside it.
  std::string_view Window(std::size_t p, std::string_view text) const {
    const Info& info = info_[p];
    return text.substr(info.window_begin,
                       info.window_end - info.window_begin);
  }

 private:
  struct Info {
    std::size_t block = 0;        // m + k
    std::uint32_t positions = 0;  // m - 1
    std::int64_t required = 0;    // (m-1) - 2k, may be <= 0
    // Per Scan: the block being filled (its index, its positions, where
    // the next one starts) and the one before it, the most positions any
    // adjacent pair holds, and the window.
    std::size_t cursor = 0;
    std::size_t next_start = 0;
    std::uint64_t current = 0;
    std::uint64_t previous = 0;
    std::uint32_t best = 0;
    std::size_t window_begin = 0;
    std::size_t window_end = 0;

    void StartScan();
    // Scores the block being filled: the pair it closes with the previous
    // block, and the pair it opens as far as it alone decides it (a
    // populated next block re-scores that pair when it closes).
    void Close();
    // Closes the block being filled and moves to the one holding text
    // position `at`, a later block.
    void MoveTo(std::size_t at);
    void Extend(std::size_t begin, std::size_t end);
  };
  // One pattern's position of one bigram, chained per hash bucket.
  struct Entry {
    std::uint32_t pattern;
    std::uint32_t next;  // 1-based, 0 ends the chain
    std::uint16_t gram;
    std::uint8_t position;
  };

  // 12 hash bits: the presence filter's bit, and (low 7) the bucket.
  static std::uint32_t Hash(std::uint16_t gram) {
    return (static_cast<std::uint32_t>(gram) * 0x9E3779B1u) >> 20;
  }

  std::vector<Info> info_;
  std::vector<Entry> entries_;
  // Which hashes some pattern's bigram has: most text bigrams stop here,
  // on a branch that is rarely taken.
  std::array<std::uint64_t, 64> present_{};
  std::array<std::uint32_t, 128> heads_{};  // 1-based chain heads
};

}  // namespace joza::match
