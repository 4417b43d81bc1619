// Negative Taint Inference (Section III-A).
//
// NTI correlates every application input with the intercepted query using
// approximate substring matching. Query spans whose difference ratio
// (edit distance ÷ matched-span length) falls below the threshold are
// marked negatively tainted (untrusted). An attack is reported when one
// input's tainted span fully covers at least one whole critical SQL token.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "http/request.h"
#include "sqlparse/token.h"
#include "util/span.h"

namespace joza::nti {

// How the per-input approximate match is computed. Both tiers are
// verdict-identical — same attack bit, same tainted tokens, same marking
// spans — enforced by the differential suites; they differ only in cost.
enum class MatchTier {
  // One full unbounded Sellers DP per input: O(|input|·|query|) each. The
  // oracle every optimization is checked against.
  kReference = 0,
  // Staged engine, prepared once per request (see nti/pipeline.h): a
  // bigram block filter, an exact find only where the filter allows one,
  // then the bit-parallel Myers reject kernel and a bounded Sellers
  // verification of its accepts, both over the filter's window. Inputs
  // the filter cannot take (>64 bytes, non-ASCII) skip it: exact find,
  // then the multi-word kernel gating the bounded DP over the whole
  // query. A threshold of 1 has no finite bound to reject against: find +
  // unbounded Sellers.
  kStaged = 1,
};

const char* MatchTierName(MatchTier tier);

struct NtiConfig {
  // Maximum difference ratio that still counts as a match. The paper uses
  // 20% in its worked example (Figure 2C) and shows no fixed value is
  // attack-proof — the evasion benches sweep this.
  double threshold = 0.20;

  // Inputs shorter than this never produce taint markings: very short
  // inputs (single letters) would mark ubiquitous substrings and flood the
  // analysis with false positives (Section III-A).
  std::size_t min_input_length = 3;

  // Matching tier policy (see MatchTier). The default staged engine is an
  // optimization, never a policy change.
  MatchTier tier = MatchTier::kStaged;

  // Strict Ray-Ligatti-style policy (Section II): identifiers are critical
  // too, so user-supplied field/table names are treated as attacks. Breaks
  // applications with advanced-search features; off by default, matching
  // the paper's pragmatic stance.
  bool strict_tokens = false;
};

struct TaintMarking {
  ByteSpan span;             // tainted query byte range
  std::string input_name;    // which input produced it
  http::InputKind input_kind = http::InputKind::kGet;
  double ratio = 0.0;
  std::size_t distance = 0;
};

struct NtiResult {
  bool attack_detected = false;
  std::vector<TaintMarking> markings;
  // Critical tokens covered by a single input's marking (the evidence).
  std::vector<sql::Token> tainted_critical_tokens;
  // Diagnostics for the perf benches: how far each distinct input value
  // travelled through the staged pipeline before being resolved (a value
  // several inputs carry is matched, and counted, once).
  std::size_t inputs_considered = 0;
  std::size_t inputs_skipped = 0;
  std::size_t exact_hits = 0;       // resolved by an exact occurrence
  std::size_t seed_rejects = 0;     // bigram block counting proved no match
  std::size_t seed_candidates = 0;  // survived the filter into the kernel
  std::size_t kernel_rejects = 0;   // Myers bound proved no match
  std::size_t dp_runs = 0;          // full Sellers verifications
  // Tier histogram: which path decided each considered input (staged-tier
  // inputs that take the find + bounded Sellers fallback count as bounded).
  std::size_t tier_reference = 0;
  std::size_t tier_bounded = 0;
  std::size_t tier_staged = 0;
};

class NtiAnalyzer {
 public:
  explicit NtiAnalyzer(NtiConfig config = {}) : config_(config) {}

  const NtiConfig& config() const { return config_; }

  // Analyzes one query against the request's stored inputs. `tokens` must
  // be the lex of `query` (shared with PTI per Section IV-D: "reuses the
  // critical tokens and keywords previously obtained").
  NtiResult Analyze(std::string_view query,
                    const std::vector<sql::Token>& tokens,
                    const std::vector<http::Input>& inputs) const;

  // Convenience: lexes the query itself.
  NtiResult Analyze(std::string_view query,
                    const std::vector<http::Input>& inputs) const;

  // The single-pass entry: `critical` must be
  // sql::CriticalTokens(tokens, config().strict_tokens) for the lex of
  // `query` — computed once and shared, never re-derived here. The view
  // overload is the zero-copy entry: the views borrow from the stored
  // request and are only read during the call. Each call is a one-check
  // request: it prepares the inputs (nti::PreparedInputs) for this query
  // alone. Thread-safe.
  NtiResult AnalyzeCritical(std::string_view query,
                            const std::vector<sql::Token>& critical,
                            const std::vector<http::InputView>& inputs) const;

  // Compatibility shim over the view overload (no input copies: it only
  // builds views of the caller's vector).
  NtiResult AnalyzeCritical(std::string_view query,
                            const std::vector<sql::Token>& critical,
                            const std::vector<http::Input>& inputs) const;

  // The second half of AnalyzeCritical, after marking (PreparedInputs::
  // Mark): decides the attack bit and the evidence from `critical`. A
  // result with no markings has nothing to decide, so a caller may skip
  // lexing the query for it.
  static void ApplyWholeTokenRule(const std::vector<sql::Token>& critical,
                                  NtiResult& result);

 private:
  NtiConfig config_;
};

}  // namespace joza::nti
