// Staged NTI matching, prepared once per request.
//
// Everything the matcher derives from a request's inputs is independent of
// the query, and the paper's interceptor records the inputs once per
// request (Section IV-D). So PreparedInputs derives it once, per distinct
// value: for every value the block filter takes (1..64 bytes, ASCII), its
// threshold bound k, its bigram positions in one request-level
// match::BigramBlockFilter. Each query then costs one pass over its
// bigrams, and each value descends through progressively cheaper-to-pass /
// costlier-to-run stages:
//
//   block filter  →  exact find  →  windowed Myers kernel  →  windowed DP
//
// The find runs only when one adjacent block pair holds all of the input's
// bigram positions, and the kernel and the bounded Sellers DP only over
// the filter's window, the stretch of the query between the first and the
// last block pair that passes the counting bound. Values the filter cannot
// take (over 64 bytes, non-ASCII) skip it: exact find, then the multi-word
// kernel and the DP over the whole query. Every filter is an exact reject
// and every accept is re-verified by the bounded Sellers DP, the reference
// DP itself, so markings and evidence are those of the reference tier.
// With the threshold at 1 there is no finite bound to reject against, and
// every value takes find + unbounded Sellers. A value is matched once per
// query however many inputs carry it (the stage counters count values),
// and each of those inputs gets its own marking (the tier counters count
// inputs).
#pragma once

#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

#include "http/request.h"
#include "match/bigram_filter.h"
#include "match/myers.h"
#include "match/substring.h"
#include "nti/nti.h"

namespace joza::nti {

class PreparedInputs {
 public:
  // Prepares every input of `request`, in NTI analysis order.
  PreparedInputs(const NtiConfig& config, const http::Request& request);
  // Prepares `inputs`.
  PreparedInputs(const NtiConfig& config,
                 std::span<const http::InputView> inputs);
  // Either way the inputs' strings are borrowed: they must outlive this
  // object.
  PreparedInputs(const PreparedInputs&) = delete;
  PreparedInputs& operator=(const PreparedInputs&) = delete;

  // Matches every eligible input against `query` and fills the markings
  // and pipeline counters of an NtiResult; never reads a token (the attack
  // bit is NtiAnalyzer::ApplyWholeTokenRule's). Not thread-safe: the
  // filter's scan state and each value's match are per-request scratch.
  NtiResult Mark(std::string_view query);

 private:
  struct Prepared {
    http::InputView input;
    // Staged tier: the first input carrying this input's value, whose
    // index, bound and match serve every input carrying it (itself when
    // it is that first one).
    std::size_t source = 0;
    // Index into the block filter; -1 for inputs the filter cannot take
    // or that share another input's value (and for every input of the
    // reference tier).
    int filter_index = -1;
    std::size_t bound = 0;       // the threshold bound k
    match::SubstringMatch best;  // per Mark, on a source: its match
  };

  // Gives each staged input its source, and each source its bound and
  // filter index. Constructors only, once inputs_ holds the views.
  void IndexStagedInputs();
  match::SubstringMatch MatchStaged(std::string_view query,
                                    const Prepared& prepared,
                                    NtiResult& stats) const;
  match::SubstringMatch MatchFallback(std::string_view query,
                                      std::string_view value,
                                      NtiResult& stats) const;

  // Tightest sound DP bound for the ratio threshold: ratio <= t and
  // span_len <= |input| + dist imply dist <= t*|input| / (1-t), and a
  // distance is an integer, so its floor.
  std::size_t ThresholdBound(std::size_t input_length) const;

  NtiConfig config_;
  std::vector<Prepared> inputs_;  // one per input, in order
  match::BigramBlockFilter filter_;
};

}  // namespace joza::nti
