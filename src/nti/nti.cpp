#include "nti/nti.h"

#include "nti/pipeline.h"
#include "sqlparse/critical.h"
#include "sqlparse/lexer.h"

namespace joza::nti {

const char* MatchTierName(MatchTier tier) {
  switch (tier) {
    case MatchTier::kReference: return "reference";
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
  NtiResult result = PreparedInputs(config_, inputs).Mark(query);
  ApplyWholeTokenRule(critical, result);
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
