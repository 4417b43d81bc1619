#include "match/aho_corasick.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <limits>

namespace joza::match {

std::int32_t AhoCorasick::Child(std::int32_t node, unsigned char byte) const {
  for (std::int32_t c = trie_[node].first_child; c >= 0;
       c = trie_[c].next_sibling) {
    if (trie_[c].byte == byte) return c;
  }
  return -1;
}

std::int32_t AhoCorasick::Add(std::string_view pattern, std::int32_t id) {
  assert(!built_ && "Add() after Build()");
  if (pattern.empty()) return -1;
  std::int32_t node = 0;
  for (unsigned char c : pattern) {
    std::int32_t child = Child(node, c);
    if (child < 0) {
      child = static_cast<std::int32_t>(trie_.size());
      TrieNode fresh;
      fresh.byte = c;
      fresh.next_sibling = trie_[node].first_child;
      trie_[node].first_child = child;
      trie_.push_back(fresh);
    }
    node = child;
  }
  // If multiple identical patterns are added, keep the first.
  if (trie_[node].pattern_length == 0) {
    trie_[node].pattern_id = id;
    trie_[node].pattern_length = static_cast<std::uint32_t>(pattern.size());
  }
  node_count_ = trie_.size();
  return static_cast<std::int32_t>(pattern_count_++);
}

void AhoCorasick::Build() {
  assert(!built_);
  const std::size_t n = trie_.size();

  // Byte classes: each byte that labels a trie edge gets its own class, in
  // byte order from 1; every other byte shares class 0.
  std::array<bool, 256> used{};
  for (std::size_t v = 1; v < n; ++v) used[trie_[v].byte] = true;
  classes_ = 1;
  for (std::size_t b = 0; b < used.size(); ++b) {
    class_of_[b] = used[b] ? static_cast<std::uint16_t>(classes_++) : 0;
  }
  // Row offsets are 32-bit. Wrapping them takes over 16M nodes even at 257
  // classes, a table past 16 GiB; stop in every build rather than wrap.
  if (n * classes_ > std::numeric_limits<std::uint32_t>::max()) std::abort();

  // Breadth-first: failure links (longest proper suffix that is a trie
  // node) and output links (longest proper suffix that is a pattern).
  std::vector<std::int32_t> order;
  order.reserve(n);
  order.push_back(0);
  std::vector<std::int32_t> fail(n, 0);
  std::vector<std::int32_t> out(n, -1);
  for (std::size_t head = 0; head < order.size(); ++head) {
    const std::int32_t u = order[head];
    for (std::int32_t v = trie_[u].first_child; v >= 0;
         v = trie_[v].next_sibling) {
      order.push_back(v);
      if (u == 0) continue;  // depth-1 nodes fail to the root
      const unsigned char byte = trie_[v].byte;
      std::int32_t f = fail[u];
      std::int32_t g = Child(f, byte);
      while (g < 0 && f != 0) {
        f = fail[f];
        g = Child(f, byte);
      }
      fail[v] = std::max(g, 0);
      out[v] = trie_[fail[v]].pattern_length > 0 ? fail[v] : out[fail[v]];
    }
  }

  // Reporting nodes (a pattern ends here or at a suffix) are numbered
  // last, so Scan's hit test is `row >= first_output_row_`. The root is
  // never reporting and keeps row 0.
  auto reports = [&](std::int32_t v) {
    return trie_[v].pattern_length > 0 || out[v] >= 0;
  };
  std::size_t reporting = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (reports(static_cast<std::int32_t>(v))) ++reporting;
  }
  const auto first_output = static_cast<std::uint32_t>(n - reporting);
  std::vector<std::uint32_t> id(n);
  std::uint32_t next_plain = 0;
  std::uint32_t next_reporting = first_output;
  for (const std::int32_t v : order) {
    id[v] = reports(v) ? next_reporting++ : next_plain++;
  }
  first_output_row_ = first_output * classes_;

  // Rows in BFS order: a node's row is its failure node's row, complete
  // because that node is shallower, with the node's own edges written
  // over it. Class 0 is never written, so it always leads to the root.
  next_.assign(n * classes_, 0);
  for (const std::int32_t u : order) {
    std::uint32_t* row = next_.data() + id[u] * classes_;
    if (u != 0) {
      std::copy_n(next_.data() + id[fail[u]] * classes_, classes_, row);
    }
    for (std::int32_t v = trie_[u].first_child; v >= 0;
         v = trie_[v].next_sibling) {
      row[class_of_[trie_[v].byte]] = id[v] * classes_;
    }
  }

  outputs_.resize(reporting);
  for (std::size_t v = 0; v < n; ++v) {
    const auto node = static_cast<std::int32_t>(v);
    if (!reports(node)) continue;
    Output& o = outputs_[id[v] - first_output];
    o.id = trie_[v].pattern_id;
    o.length = trie_[v].pattern_length;
    if (out[v] >= 0) {
      o.next = static_cast<std::int32_t>(id[out[v]] - first_output);
    }
  }

  trie_ = std::vector<TrieNode>();
  built_ = true;
}

std::size_t AhoCorasick::memory_bytes() const {
  return sizeof(*this) + trie_.capacity() * sizeof(TrieNode) +
         next_.capacity() * sizeof(std::uint32_t) +
         outputs_.capacity() * sizeof(Output);
}

std::size_t AhoCorasick::EstimateMemoryBytes(std::size_t pattern_bytes,
                                             std::size_t distinct_bytes) {
  const std::size_t nodes = pattern_bytes + 1;
  const std::size_t classes = distinct_bytes + 1;
  // Vector growth at most doubles the trie's capacity; Build() holds four
  // per-node scratch arrays beside the trie and the table.
  const std::size_t per_node = classes * sizeof(std::uint32_t) +
                               sizeof(Output) + 2 * sizeof(TrieNode) +
                               4 * sizeof(std::int32_t);
  return sizeof(AhoCorasick) + nodes * per_node;
}

void AhoCorasick::FindAll(
    std::string_view text,
    const std::function<void(const Hit&)>& on_hit) const {
  assert(built_ && "FindAll() before Build()");
  Scan(text, on_hit);
}

std::vector<AhoCorasick::Hit> AhoCorasick::FindAll(
    std::string_view text) const {
  std::vector<Hit> hits;
  FindAll(text, [&hits](const Hit& h) { hits.push_back(h); });
  return hits;
}

}  // namespace joza::match
