// Staged NTI matching engine (one instance per analyzed query).
//
// Mirrors the pti::Ruleset design: all per-query precomputation — each
// input's exact occurrence and the query's q-gram index — is hoisted out of
// the per-input loop, and each input then descends through progressively
// cheaper-to-pass / costlier-to-run stages:
//
//   exact scan  →  q-gram seeding  →  Myers reject kernel  →  Sellers DP
//
// Only candidates that survive every filter pay for the O(|input|·|query|)
// verification, and that verification is the reference DP itself — so the
// pipeline is verdict-identical to the reference tier by construction
// (filters are exact rejects, accepts are re-verified).
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>
#include <vector>

#include "match/qgram.h"
#include "match/substring.h"
#include "nti/nti.h"

namespace joza::nti {

class MatcherPipeline {
 public:
  // `query`, `config` and `inputs` must outlive the pipeline. `eligible`
  // holds the indices of inputs that passed the analyzer's pre-filters
  // (min length, overlong) — the only ones Match() may be asked about.
  // Construction runs the exact stage: one std::string::find per input.
  MatcherPipeline(std::string_view query, const NtiConfig& config,
                  const std::vector<http::InputView>& inputs,
                  const std::vector<std::size_t>& eligible);

  // Best approximate match for inputs[index]. Identical distance, span and
  // ratio to the reference tier; pipeline counters accumulate in `stats`.
  match::SubstringMatch Match(std::size_t index, NtiResult& stats) const;

 private:
  match::SubstringMatch MatchReference(std::string_view value,
                                       NtiResult& stats) const;
  match::SubstringMatch MatchBounded(std::string_view value,
                                     NtiResult& stats) const;
  match::SubstringMatch MatchStaged(std::size_t index, NtiResult& stats) const;

  // Tightest sound DP bound for the ratio threshold: ratio <= t and
  // span_len <= |input| + dist imply dist <= t*|input| / (1-t).
  std::size_t ThresholdBound(std::size_t input_length) const;

  std::string_view query_;
  const NtiConfig& config_;
  const std::vector<http::InputView>& inputs_;
  // Earliest exact occurrence of each input's value in the query (npos =
  // none), filled by per-input find(). Staged tier only.
  std::vector<std::size_t> exact_pos_;
  // Query q-gram index, built only when some input survives the exact
  // stage. Staged tier only.
  std::optional<match::QGramIndex> qgrams_;
};

}  // namespace joza::nti
