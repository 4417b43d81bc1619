#include "nti/pipeline.h"

#include <cmath>

#include "match/myers.h"

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

MatcherPipeline::MatcherPipeline(std::string_view query,
                                 const NtiConfig& config,
                                 const std::vector<http::InputView>& inputs,
                                 const std::vector<std::size_t>& eligible)
    : query_(query), config_(config), inputs_(inputs) {
  if (config_.tier != MatchTier::kStaged || eligible.empty()) return;

  // Stage 1 (exact): each input's earliest exact occurrence — the same
  // span the reference DP's tie-breaking reports for a distance-0 match.
  exact_pos_.assign(inputs_.size(), kNpos);
  bool any_unresolved = false;
  for (std::size_t index : eligible) {
    exact_pos_[index] = query_.find(inputs_[index].value);
    if (exact_pos_[index] == kNpos) any_unresolved = true;
  }

  // Stage 2 precomputation (seeding): the q-gram index is shared by every
  // input that was not resolved exactly. Skip it when none needs it.
  if (any_unresolved) qgrams_.emplace(query_);
}

std::size_t MatcherPipeline::ThresholdBound(std::size_t input_length) const {
  return static_cast<std::size_t>(
      std::ceil(config_.threshold * static_cast<double>(input_length) /
                (1.0 - config_.threshold)));
}

match::SubstringMatch MatcherPipeline::Match(std::size_t index,
                                             NtiResult& stats) const {
  switch (config_.tier) {
    case MatchTier::kReference:
      ++stats.tier_reference;
      return MatchReference(inputs_[index].value, stats);
    case MatchTier::kBounded:
      ++stats.tier_bounded;
      return MatchBounded(inputs_[index].value, stats);
    case MatchTier::kStaged: {
      const std::string_view value = inputs_[index].value;
      // Kernel eligibility and a well-defined bound gate the staged path;
      // everything else takes the existing Sellers tier.
      if (!match::MyersEligible(value) || config_.threshold >= 1.0) {
        ++stats.tier_bounded;
        return MatchBounded(value, stats);
      }
      ++stats.tier_staged;
      return MatchStaged(index, stats);
    }
  }
  ++stats.tier_reference;
  return MatchReference(inputs_[index].value, stats);
}

match::SubstringMatch MatcherPipeline::MatchReference(std::string_view value,
                                                      NtiResult& stats) const {
  ++stats.dp_runs;
  return match::BestSubstringMatch(query_, value);
}

match::SubstringMatch MatcherPipeline::MatchBounded(std::string_view value,
                                                    NtiResult& stats) const {
  if (config_.exact_fast_path) {
    const std::size_t pos = query_.find(value);
    if (pos != kNpos) {
      ++stats.exact_hits;
      return ExactMatch(pos, value.size());
    }
  }
  ++stats.dp_runs;
  if (config_.bounded_search && config_.threshold < 1.0) {
    return match::BestSubstringMatchBounded(query_, value,
                                            ThresholdBound(value.size()));
  }
  return match::BestSubstringMatch(query_, value);
}

match::SubstringMatch MatcherPipeline::MatchStaged(std::size_t index,
                                                   NtiResult& stats) const {
  const std::string_view value = inputs_[index].value;
  if (exact_pos_[index] != kNpos) {
    ++stats.exact_hits;
    return ExactMatch(exact_pos_[index], value.size());
  }
  const std::size_t bound = ThresholdBound(value.size());
  // No exact occurrence and only distance-0 matches can pass the ratio
  // threshold: nothing to find.
  if (bound == 0) return NoMatch(bound);
  if (qgrams_ && qgrams_->Rejects(value, bound)) {
    ++stats.seed_rejects;
    return NoMatch(bound);
  }
  ++stats.seed_candidates;
  if (match::MyersMinDistance(query_, value) > bound) {
    ++stats.kernel_rejects;
    return NoMatch(bound);
  }
  // A sub-bound match exists: run the reference DP for exact distance,
  // span and tie-breaking. The bound can never prune it away (row minima
  // are monotone, and the best final distance is <= bound).
  ++stats.dp_runs;
  return match::BestSubstringMatchBounded(query_, value, bound);
}

}  // namespace joza::nti
