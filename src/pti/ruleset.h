// Immutable PTI ruleset snapshots.
//
// A Ruleset captures everything PTI needs to judge one query — the fragment
// vocabulary (Section IV-A), the prebuilt Aho–Corasick automaton over it,
// and the analysis configuration — as one immutable object published behind
// `std::shared_ptr<const Ruleset>`. Fragment updates (Section IV-B) never
// mutate a live ruleset: they Build() a successor with a higher version and
// atomically swap the pointer (RCU-style), so the analyze path is lock-free
// — readers pin a snapshot with one atomic load and analyze against it
// while writers rebuild off to the side.
//
// The version is the update-log position the snapshot corresponds to; it
// travels with every verdict and over the daemon wire so distributed
// replicas (the PTI daemon pool) can prove which vocabulary they used.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "match/aho_corasick.h"
#include "phpsrc/fragments.h"
#include "sqlparse/critical.h"
#include "sqlparse/token.h"
#include "util/span.h"

namespace joza::pti {

struct PtiConfig {
  // Scan the query once with the multi-pattern automaton; false runs the
  // paper's original per-fragment scan (ablated in the smoke suite).
  bool use_aho_corasick = true;

  // Paper optimization #2: parse the query for critical tokens first, then
  // match only until every critical token is covered (naive path only —
  // benign queries finish after a few fragments, malicious ones scan all).
  bool parse_first = true;

  // Paper optimization #1: most-recently-used fragment ordering exploiting
  // the application's SQL working set (naive path only).
  std::size_t mru_size = 64;

  // Strict Ray-Ligatti-style policy (Section II): identifiers must come
  // from fragments too, so user-supplied field/table names are rejected.
  // Breaks advanced-search applications; off by default like the paper.
  bool strict_tokens = false;
};

struct PtiResult {
  bool attack_detected = false;
  // Fragment occurrences found in the query (positive taint markings).
  std::vector<ByteSpan> positive_spans;
  // Critical tokens not covered by any single fragment (the evidence).
  std::vector<sql::Token> untrusted_critical_tokens;
  // Version of the ruleset snapshot this verdict was computed against.
  std::uint64_t ruleset_version = 0;
  // Diagnostics for the perf benches.
  std::size_t fragments_scanned = 0;
  std::size_t hits = 0;
};

class Ruleset {
 public:
  // Builds the automaton eagerly; after construction the object is never
  // mutated (every accessor is const, all analysis entry points take
  // `const Ruleset&`).
  Ruleset(php::FragmentSet fragments, PtiConfig config,
          std::uint64_t version);

  const php::FragmentSet& fragments() const { return fragments_; }
  const match::AhoCorasick& automaton() const { return automaton_; }
  const PtiConfig& config() const { return config_; }
  std::uint64_t version() const { return version_; }

  static std::shared_ptr<const Ruleset> Build(php::FragmentSet fragments,
                                              PtiConfig config = {},
                                              std::uint64_t version = 0);

  // Successor snapshot with `files`' fragments folded in, version() + 1.
  // `this` is untouched — in-flight analyses keep their pinned snapshot.
  std::shared_ptr<const Ruleset> WithSources(
      const std::vector<php::SourceFile>& files) const;

  // Successor snapshot with raw fragment texts folded in, stamped with an
  // externally-assigned version (the daemon applies updates at the version
  // the update frame names, so client and daemon agree by construction).
  std::shared_ptr<const Ruleset> WithRawFragments(
      const std::vector<std::string>& texts, std::uint64_t new_version) const;

 private:
  php::FragmentSet fragments_;
  PtiConfig config_;
  std::uint64_t version_ = 0;
  match::AhoCorasick automaton_;
};

// Pure analysis over an immutable ruleset: no locks, no mutable state, safe
// from any number of threads. `units` must be
// sql::BuildCriticalUnits(tokens, rs.config().strict_tokens) for the lex of
// `query` — computed once per request and shared across every analyzer.
PtiResult AnalyzeAho(const Ruleset& rs, std::string_view query,
                     const std::vector<sql::CriticalUnit>& units);

// The paper's original per-fragment scan. `mru` is optional caller-owned
// ordering state (performance only — results are order-independent);
// pass nullptr for a stateless, lock-free scan in vocabulary order.
PtiResult AnalyzeNaive(const Ruleset& rs, std::string_view query,
                       const std::vector<sql::CriticalUnit>& units,
                       std::vector<std::size_t>* mru);

// Dispatches on rs.config().use_aho_corasick (stateless: the naive path
// runs without MRU ordering). Builds the critical units from `tokens`,
// which must be the lex of `query`.
PtiResult Analyze(const Ruleset& rs, std::string_view query,
                  const std::vector<sql::Token>& tokens);

// Same, over prebuilt critical units (the single-pass hot path).
PtiResult AnalyzeUnits(const Ruleset& rs, std::string_view query,
                       const std::vector<sql::CriticalUnit>& units);

}  // namespace joza::pti
