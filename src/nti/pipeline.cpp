#include "nti/pipeline.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace joza::nti {

namespace {

constexpr std::size_t kNpos = std::string_view::npos;

// A match object meaning "no substring within the bound" — identical to
// what the pruned Sellers DP reports.
match::SubstringMatch NoMatch(std::size_t bound) {
  match::SubstringMatch none;
  none.distance = bound + 1;
  none.ratio = 1.0;
  return none;
}

match::SubstringMatch ExactMatch(std::size_t pos, std::size_t length) {
  match::SubstringMatch m;
  m.distance = 0;
  m.span = {pos, pos + length};
  m.ratio = 0.0;
  return m;
}

}  // namespace

PreparedInputs::PreparedInputs(const NtiConfig& config,
                               const http::Request& request)
    : config_(config) {
  inputs_.reserve(request.get_params.size() + request.post_params.size() +
                  request.cookies.size() + request.headers.size());
  request.ForEachInput([this](const http::InputView& input) {
    inputs_.emplace_back().input = input;
  });
  IndexStagedInputs();
}

PreparedInputs::PreparedInputs(const NtiConfig& config,
                               std::span<const http::InputView> inputs)
    : config_(config) {
  inputs_.reserve(inputs.size());
  for (const http::InputView& input : inputs) {
    inputs_.emplace_back().input = input;
  }
  IndexStagedInputs();
}

void PreparedInputs::IndexStagedInputs() {
  if (config_.tier != MatchTier::kStaged) return;
  // A request may repeat one value under many inputs. Sorted by value, ties
  // by position, equal values line up behind the first input carrying
  // them, which alone is indexed and matched.
  std::vector<std::size_t> order(inputs_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    const int c = inputs_[a].input.value.compare(inputs_[b].input.value);
    return c < 0 || (c == 0 && a < b);
  });
  for (std::size_t k = 0; k < order.size(); ++k) {
    Prepared& prep = inputs_[order[k]];
    const bool repeat =
        k > 0 && inputs_[order[k - 1]].input.value == prep.input.value;
    prep.source = repeat ? inputs_[order[k - 1]].source : order[k];
  }
  if (config_.threshold >= 1.0) return;
  // Every input the staged path takes: 1..64 ASCII bytes, and long enough
  // to be considered at all. Marked and counted first, so the filter is
  // sized once: a one-check scope builds it for a single query.
  std::size_t staged = 0;
  std::size_t grams = 0;
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    Prepared& prep = inputs_[i];
    const std::string_view value = prep.input.value;
    if (prep.source != i || value.size() < config_.min_input_length ||
        !match::MyersEligible(value)) {
      continue;
    }
    prep.filter_index = 0;
    ++staged;
    grams += value.size() - 1;
  }
  filter_.Reserve(staged, grams);
  for (Prepared& prep : inputs_) {
    if (prep.filter_index < 0) continue;
    prep.bound = ThresholdBound(prep.input.value.size());
    prep.filter_index =
        static_cast<int>(filter_.Add(prep.input.value, prep.bound));
  }
}

std::size_t PreparedInputs::ThresholdBound(std::size_t input_length) const {
  // The epsilon lets floating-point error only loosen the bound, never cut
  // an integer t*m/(1-t) to the integer below it.
  return static_cast<std::size_t>(
      std::floor(config_.threshold * static_cast<double>(input_length) /
                     (1.0 - config_.threshold) +
                 1e-9));
}

NtiResult PreparedInputs::Mark(std::string_view query) {
  NtiResult result;
  bool scanned = false;
  for (Prepared& prep : inputs_) {
    const http::InputView& input = prep.input;
    // Plausibility pruning (identical across tiers): inputs too short to
    // mark safely, or too long to fit any query substring within the
    // threshold, are skipped outright.
    if (input.value.size() < config_.min_input_length ||
        static_cast<double>(input.value.size()) >
            static_cast<double>(query.size()) * (1.0 + config_.threshold)) {
      ++result.inputs_skipped;
      continue;
    }
    ++result.inputs_considered;

    match::SubstringMatch best;
    if (config_.tier == MatchTier::kReference) {
      ++result.tier_reference;
      ++result.dp_runs;
      best = match::BestSubstringMatch(query, input.value);
    } else {
      // The first input carrying a value matches it; the pruning above
      // keeps or skips every input carrying it alike, so the later ones
      // find its match already made for this query.
      const Prepared& source = inputs_[prep.source];
      const bool staged = source.filter_index >= 0;
      ++(staged ? result.tier_staged : result.tier_bounded);
      if (&source == &prep && !staged) {
        prep.best = MatchFallback(query, input.value, result);
      } else if (&source == &prep) {
        // One pass over the query's bigrams serves every staged input.
        if (!scanned) {
          filter_.Scan(query);
          scanned = true;
        }
        prep.best = MatchStaged(query, prep, result);
      }
      best = source.best;
    }
    if (best.span.empty() || best.ratio > config_.threshold) continue;

    TaintMarking marking;
    marking.span = best.span;
    marking.input_name = std::string(input.name);
    marking.input_kind = input.kind;
    marking.ratio = best.ratio;
    marking.distance = best.distance;
    result.markings.push_back(std::move(marking));
  }
  return result;
}

match::SubstringMatch PreparedInputs::MatchFallback(std::string_view query,
                                                    std::string_view value,
                                                    NtiResult& stats) const {
  const std::size_t pos = query.find(value);
  if (pos != kNpos) {
    ++stats.exact_hits;
    return ExactMatch(pos, value.size());
  }
  ++stats.dp_runs;
  if (config_.threshold < 1.0) {
    return match::BestSubstringMatchBounded(query, value,
                                            ThresholdBound(value.size()));
  }
  return match::BestSubstringMatch(query, value);
}

match::SubstringMatch PreparedInputs::MatchStaged(std::string_view query,
                                                  const Prepared& prep,
                                                  NtiResult& stats) const {
  const std::string_view value = prep.input.value;
  const auto p = static_cast<std::size_t>(prep.filter_index);
  // An exact occurrence puts all of the input's bigram positions in one
  // block pair; the earliest one is the span the reference DP's
  // tie-breaking reports for a distance-0 match.
  if (filter_.MayContain(p)) {
    const std::size_t pos = query.find(value);
    if (pos != kNpos) {
      ++stats.exact_hits;
      return ExactMatch(pos, value.size());
    }
  }
  // No exact occurrence and only distance-0 matches can pass the ratio
  // threshold: nothing to find.
  if (prep.bound == 0) return NoMatch(prep.bound);
  if (!filter_.MayMatch(p)) {
    ++stats.seed_rejects;
    return NoMatch(prep.bound);
  }
  ++stats.seed_candidates;
  const match::MyersPattern kernel(value);
  const std::size_t bound = prep.bound;
  if (!kernel.Within(filter_.Window(p, query), bound)) {
    ++stats.kernel_rejects;
    return NoMatch(bound);
  }
  // A sub-bound match exists: run the reference DP for exact distance,
  // span and tie-breaking. The bound can never prune it away (row minima
  // are monotone, and the best final distance is <= bound).
  ++stats.dp_runs;
  return match::BestSubstringMatchBounded(query, value, bound);
}

}  // namespace joza::nti
