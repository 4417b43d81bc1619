// Aho–Corasick multi-pattern matcher.
//
// PTI must find every occurrence of every application fragment inside a
// query. A naive per-fragment scan is O(fragments × query²); Aho–Corasick
// does all fragments in one O(query + hits) pass. The naive path is kept in
// pti/ for the ablation bench.
//
// Layout: a byte-class DFA. Build() gives every byte that occurs in some
// pattern its own class and maps all other bytes to one shared class,
// class 0, whose transitions always lead back to the root. Transitions
// live in one node-major `nodes × classes` table whose entries are target
// row offsets, so Scan does one class lookup, one add and one load per
// byte. Nodes that report hits are numbered last, which makes the hit test
// one compare. The testbed vocabulary (62 distinct bytes, 989 nodes) fills
// 63 columns per node, ~0.25 MB, where a 256-column table takes ~1 MB.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace joza::match {

class AhoCorasick {
 public:
  struct Hit {
    std::size_t begin = 0;  // byte offset of the match start in the text
    std::size_t length = 0;
    std::int32_t pattern_id = -1;
  };

  // Adds a pattern; empty patterns are ignored. Must be called before
  // Build(). Returns the internal pattern index (== insertion order).
  std::int32_t Add(std::string_view pattern, std::int32_t id);

  // Finalizes the transition table and output links. Must be called
  // exactly once, after all Add() calls and before FindAll().
  void Build();

  bool built() const { return built_; }
  std::size_t pattern_count() const { return pattern_count_; }
  std::size_t node_count() const { return node_count_; }
  // Byte classes of the built table: distinct pattern bytes + 1.
  std::size_t class_count() const { return classes_; }

  // Bytes this automaton owns: the object plus its heap arrays.
  std::size_t memory_bytes() const;

  // Upper bound on the heap an automaton over patterns totalling
  // `pattern_bytes` bytes, drawn from `distinct_bytes` distinct byte
  // values, holds at any point: memory_bytes() during Add() and after
  // Build(), and Build()'s peak with its scratch. That is at most one node
  // per pattern byte plus the root, each with a row of
  // `distinct_bytes + 1` transitions, an output record and its share of
  // the trie and scratch Build() consumes.
  static std::size_t EstimateMemoryBytes(std::size_t pattern_bytes,
                                         std::size_t distinct_bytes);

  // Invokes `on_hit` for every occurrence of every pattern in `text`.
  void FindAll(std::string_view text,
               const std::function<void(const Hit&)>& on_hit) const;

  // Convenience: collects all hits.
  std::vector<Hit> FindAll(std::string_view text) const;

  // Statically-dispatched matching loop: identical semantics to FindAll but
  // the callback inlines, so the per-request serving path pays no
  // std::function indirection per hit. FindAll delegates here.
  template <typename Fn>
  void Scan(std::string_view text, Fn&& on_hit) const {
    const std::uint32_t* next = next_.data();
    std::uint32_t row = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
      row = next[row + class_of_[static_cast<unsigned char>(text[i])]];
      if (row < first_output_row_) continue;
      // The node's own pattern (if any) first, then every shorter pattern
      // that is a suffix of it.
      auto o = static_cast<std::int32_t>((row - first_output_row_) / classes_);
      for (; o >= 0; o = outputs_[o].next) {
        const Output& out = outputs_[o];
        if (out.length == 0) continue;
        Hit hit;
        hit.length = out.length;
        hit.begin = i + 1 - out.length;
        hit.pattern_id = out.id;
        on_hit(hit);
      }
    }
  }

 private:
  // Trie node as Add() grows it; Build() turns the trie into the table
  // and frees it.
  struct TrieNode {
    std::int32_t first_child = -1;
    std::int32_t next_sibling = -1;
    std::int32_t pattern_id = 0;
    std::uint32_t pattern_length = 0;  // 0: no pattern ends here
    unsigned char byte = 0;            // label of the edge into this node
  };

  // One per reporting node, indexed by its rank among reporting nodes.
  struct Output {
    std::int32_t id = 0;
    std::uint32_t length = 0;  // 0: only shorter suffix patterns end here
    std::int32_t next = -1;    // output link: next reporting rank, or -1
  };

  std::int32_t Child(std::int32_t node, unsigned char byte) const;

  std::vector<TrieNode> trie_{TrieNode{}};
  std::array<std::uint16_t, 256> class_of_{};
  std::vector<std::uint32_t> next_;
  std::vector<Output> outputs_;
  std::uint32_t classes_ = 1;
  std::uint32_t first_output_row_ = 0;
  std::size_t node_count_ = 1;
  std::size_t pattern_count_ = 0;
  bool built_ = false;
};

}  // namespace joza::match
