#include "nti/nti.h"

#include "nti/pipeline.h"
#include "sqlparse/critical.h"
#include "sqlparse/lexer.h"

namespace joza::nti {

const char* MatchTierName(MatchTier tier) {
  switch (tier) {
    case MatchTier::kReference: return "reference";
    case MatchTier::kBounded: return "bounded";
    case MatchTier::kStaged: return "staged";
  }
  return "?";
}

NtiResult NtiAnalyzer::Analyze(std::string_view query,
                               const std::vector<http::Input>& inputs) const {
  return Analyze(query, sql::Lex(query), inputs);
}

NtiResult NtiAnalyzer::Analyze(std::string_view query,
                               const std::vector<sql::Token>& tokens,
                               const std::vector<http::Input>& inputs) const {
  return AnalyzeCritical(
      query, sql::CriticalTokens(tokens, config_.strict_tokens), inputs);
}

NtiResult NtiAnalyzer::AnalyzeCritical(
    std::string_view query, const std::vector<sql::Token>& critical,
    const std::vector<http::Input>& inputs) const {
  return AnalyzeCritical(query, critical, http::ViewsOf(inputs));
}

NtiResult NtiAnalyzer::AnalyzeCritical(
    std::string_view query, const std::vector<sql::Token>& critical,
    const std::vector<http::InputView>& inputs) const {
  NtiResult result = Mark(query, inputs);
  ApplyWholeTokenRule(critical, result);
  return result;
}

NtiResult NtiAnalyzer::Mark(std::string_view query,
                            const std::vector<http::InputView>& inputs) const {
  NtiResult result;

  // Plausibility pruning (identical across tiers): inputs too short to
  // mark safely, or too long to fit any query substring within the
  // threshold, are skipped outright.
  std::vector<std::size_t> eligible;
  eligible.reserve(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (inputs[i].value.size() < config_.min_input_length ||
        static_cast<double>(inputs[i].value.size()) >
            static_cast<double>(query.size()) * (1.0 + config_.threshold)) {
      ++result.inputs_skipped;
      continue;
    }
    eligible.push_back(i);
  }
  result.inputs_considered = eligible.size();
  if (eligible.empty()) return result;

  const MatcherPipeline pipeline(query, config_, inputs, eligible);
  for (std::size_t index : eligible) {
    const match::SubstringMatch best = pipeline.Match(index, result);
    if (best.span.empty() || best.ratio > config_.threshold) continue;

    const http::InputView& input = inputs[index];
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

void NtiAnalyzer::ApplyWholeTokenRule(const std::vector<sql::Token>& critical,
                                      NtiResult& result) {
  // Whole-token rule: one input's marking is an attack only if it fully
  // covers at least one critical token. Markings from different inputs
  // are never combined (that would flood false positives; Section III-A).
  for (const TaintMarking& marking : result.markings) {
    for (const sql::Token& t : critical) {
      if (marking.span.contains(t.span)) {
        result.attack_detected = true;
        result.tainted_critical_tokens.push_back(t);
      }
    }
  }
}

}  // namespace joza::nti
