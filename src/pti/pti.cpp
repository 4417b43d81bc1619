#include "pti/pti.h"

#include <utility>

#include "sqlparse/critical.h"
#include "sqlparse/lexer.h"

namespace joza::pti {

PtiAnalyzer::PtiAnalyzer(php::FragmentSet fragments, PtiConfig config)
    : ruleset_(Ruleset::Build(std::move(fragments), config, /*version=*/0)) {
  ResetMru();
}

void PtiAnalyzer::ResetMru() {
  mru_.resize(ruleset_->fragments().size());
  for (std::size_t i = 0; i < mru_.size(); ++i) mru_[i] = i;
}

void PtiAnalyzer::AddFragments(const std::vector<php::SourceFile>& files) {
  ruleset_ = ruleset_->WithSources(files);
  ResetMru();
}

void PtiAnalyzer::AddRawFragments(const std::vector<std::string>& texts,
                                  std::uint64_t new_version) {
  ruleset_ = ruleset_->WithRawFragments(texts, new_version);
  ResetMru();
}

PtiResult PtiAnalyzer::Analyze(std::string_view query) const {
  return Analyze(query, sql::Lex(query));
}

PtiResult PtiAnalyzer::Analyze(std::string_view query,
                               const std::vector<sql::Token>& tokens) const {
  return config().use_aho_corasick ? AnalyzeAho(query, tokens)
                                   : AnalyzeNaive(query, tokens);
}

PtiResult PtiAnalyzer::AnalyzeAho(
    std::string_view query, const std::vector<sql::Token>& tokens) const {
  return pti::AnalyzeAho(
      *ruleset_, query,
      sql::BuildCriticalUnits(tokens, config().strict_tokens));
}

PtiResult PtiAnalyzer::AnalyzeNaive(
    std::string_view query, const std::vector<sql::Token>& tokens) const {
  return pti::AnalyzeNaive(
      *ruleset_, query,
      sql::BuildCriticalUnits(tokens, config().strict_tokens), &mru_);
}

}  // namespace joza::pti
