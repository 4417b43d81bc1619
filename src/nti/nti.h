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

// How the per-input approximate match is computed. Every tier is
// verdict-identical — same attack bit, same tainted tokens, same marking
// spans — enforced by the differential suite; they differ only in cost.
enum class MatchTier {
  // One full unbounded Sellers DP per input: O(|input|·|query|) each. The
  // parity baseline every other tier is checked against.
  kReference = 0,
  // Exact-occurrence fast path (find) + threshold-bounded Sellers with
  // per-row pruning. The pre-staged production path.
  kBounded = 1,
  // Staged engine: a per-input exact find, q-gram candidate seeding,
  // bit-parallel Myers reject kernel, and a bounded Sellers verification
  // only for surviving candidates. Inputs the
  // kernel cannot take (>64 bytes, non-ASCII) fall back to kBounded.
  kStaged = 2,
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

  // kBounded knobs (kept for the ablation benches): prune the Sellers DP
  // as soon as no substring can match within the threshold, and try an
  // exact-substring fast path (std::string::find) before the DP.
  bool bounded_search = true;
  bool exact_fast_path = true;

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
  // Diagnostics for the perf benches: how far each input travelled through
  // the staged pipeline before being resolved.
  std::size_t inputs_considered = 0;
  std::size_t inputs_skipped = 0;
  std::size_t exact_hits = 0;       // resolved by an exact occurrence
  std::size_t seed_rejects = 0;     // q-gram counting proved no match
  std::size_t seed_candidates = 0;  // survived seeding into the kernel
  std::size_t kernel_rejects = 0;   // Myers bound proved no match
  std::size_t dp_runs = 0;          // full Sellers verifications
  // Tier histogram: which tier actually decided each considered input
  // (staged inputs that fall back are counted under kBounded).
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

  // The single-pass hot path: `critical` must be
  // sql::CriticalTokens(tokens, config().strict_tokens) for the lex of
  // `query` — computed once per request and shared, never re-derived here.
  // The view overload is the zero-copy entry: the views borrow from the
  // stored request and are only read during the call.
  NtiResult AnalyzeCritical(std::string_view query,
                            const std::vector<sql::Token>& critical,
                            const std::vector<http::InputView>& inputs) const;

  // Compatibility shim over the view overload (no input copies: it only
  // builds views of the caller's vector).
  NtiResult AnalyzeCritical(std::string_view query,
                            const std::vector<sql::Token>& critical,
                            const std::vector<http::Input>& inputs) const;

  // The two halves of AnalyzeCritical. Mark matches every eligible input
  // against the query and fills the markings and pipeline counters; it
  // never reads a token. ApplyWholeTokenRule then decides the attack bit
  // and the evidence from `critical`. A result with no markings is final
  // after Mark, so a caller may skip lexing the query for it.
  NtiResult Mark(std::string_view query,
                 const std::vector<http::InputView>& inputs) const;
  static void ApplyWholeTokenRule(const std::vector<sql::Token>& critical,
                                  NtiResult& result);

 private:
  NtiConfig config_;
};

}  // namespace joza::nti
