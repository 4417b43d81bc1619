#include "pti/ruleset.h"

#include <algorithm>
#include <utility>

#include "sqlparse/lexer.h"

namespace joza::pti {

Ruleset::Ruleset(php::FragmentSet fragments, PtiConfig config,
                 std::uint64_t version)
    : fragments_(std::move(fragments)), config_(config), version_(version) {
  const auto& frags = fragments_.fragments();
  for (std::size_t i = 0; i < frags.size(); ++i) {
    automaton_.Add(frags[i].text, static_cast<std::int32_t>(i));
  }
  automaton_.Build();
}

std::shared_ptr<const Ruleset> Ruleset::Build(php::FragmentSet fragments,
                                              PtiConfig config,
                                              std::uint64_t version) {
  return std::make_shared<const Ruleset>(std::move(fragments), config,
                                         version);
}

std::shared_ptr<const Ruleset> Ruleset::WithSources(
    const std::vector<php::SourceFile>& files) const {
  php::FragmentSet next = fragments_;
  for (const auto& f : files) next.AddSource(f);
  return Build(std::move(next), config_, version_ + 1);
}

std::shared_ptr<const Ruleset> Ruleset::WithRawFragments(
    const std::vector<std::string>& texts, std::uint64_t new_version) const {
  php::FragmentSet next = fragments_;
  for (const auto& t : texts) next.AddRaw(t);
  return Build(std::move(next), config_, new_version);
}

namespace {

// Marks units covered by `span`; returns how many were newly covered.
std::size_t MarkCovered(const ByteSpan& span,
                        const std::vector<sql::CriticalUnit>& units,
                        std::vector<bool>& covered) {
  std::size_t newly = 0;
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (!covered[i] && span.contains(units[i].span)) {
      covered[i] = true;
      ++newly;
    }
  }
  return newly;
}

void FillVerdict(PtiResult& result,
                 const std::vector<sql::CriticalUnit>& units,
                 const std::vector<bool>& covered) {
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (!covered[i]) {
      result.attack_detected = true;
      result.untrusted_critical_tokens.push_back(units[i].token);
    }
  }
}

}  // namespace

PtiResult AnalyzeAho(const Ruleset& rs, std::string_view query,
                     const std::vector<sql::CriticalUnit>& units) {
  PtiResult result;
  result.ruleset_version = rs.version();
  std::vector<bool> covered(units.size(), false);

  rs.automaton().Scan(query, [&](const match::AhoCorasick::Hit& hit) {
    ++result.hits;
    ByteSpan span{hit.begin, hit.begin + hit.length};
    MarkCovered(span, units, covered);
    result.positive_spans.push_back(span);
  });
  result.fragments_scanned = rs.fragments().size();  // one automaton pass
  FillVerdict(result, units, covered);
  return result;
}

PtiResult AnalyzeNaive(const Ruleset& rs, std::string_view query,
                       const std::vector<sql::CriticalUnit>& units,
                       std::vector<std::size_t>* mru) {
  PtiResult result;
  result.ruleset_version = rs.version();
  std::vector<bool> covered(units.size(), false);
  std::size_t remaining = units.size();

  const auto& frags = rs.fragments().fragments();
  const PtiConfig& config = rs.config();

  // Scan order: the caller's MRU permutation when supplied (single-owner
  // performance state, results are order-independent), vocabulary order
  // otherwise — the lock-free stateless mode used by the serving hot path.
  std::vector<std::size_t> order;
  if (mru != nullptr && mru->size() == frags.size()) {
    order = *mru;
  } else {
    order.resize(frags.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  }
  std::vector<std::size_t> matched_fragments;

  for (std::size_t oi = 0; oi < order.size(); ++oi) {
    const std::size_t fi = order[oi];
    const std::string& pattern = frags[fi].text;
    ++result.fragments_scanned;
    bool fragment_matched = false;
    std::size_t pos = query.find(pattern);
    while (pos != std::string_view::npos) {
      ++result.hits;
      fragment_matched = true;
      ByteSpan span{pos, pos + pattern.size()};
      result.positive_spans.push_back(span);
      remaining -= MarkCovered(span, units, covered);
      pos = query.find(pattern, pos + 1);
    }
    if (fragment_matched) matched_fragments.push_back(fi);
    // Paper optimization: with the critical set known up front, stop as
    // soon as every critical token is trusted. Benign queries exit after a
    // handful of fragments; attack queries scan the whole set.
    if (config.parse_first && remaining == 0) break;
  }

  // MRU update: move fragments that matched to the front of the ordering.
  if (mru != nullptr && config.mru_size > 0 && !matched_fragments.empty()) {
    std::vector<std::size_t> next;
    next.reserve(order.size());
    const std::size_t take =
        std::min(matched_fragments.size(), config.mru_size);
    for (std::size_t i = 0; i < take; ++i) {
      next.push_back(matched_fragments[i]);
    }
    for (std::size_t fi : order) {
      if (std::find(next.begin(),
                    next.begin() + static_cast<std::ptrdiff_t>(take),
                    fi) == next.begin() + static_cast<std::ptrdiff_t>(take)) {
        next.push_back(fi);
      }
    }
    *mru = std::move(next);
  }

  FillVerdict(result, units, covered);
  return result;
}

PtiResult AnalyzeUnits(const Ruleset& rs, std::string_view query,
                       const std::vector<sql::CriticalUnit>& units) {
  return rs.config().use_aho_corasick
             ? AnalyzeAho(rs, query, units)
             : AnalyzeNaive(rs, query, units, /*mru=*/nullptr);
}

PtiResult Analyze(const Ruleset& rs, std::string_view query,
                  const std::vector<sql::Token>& tokens) {
  return AnalyzeUnits(
      rs, query, sql::BuildCriticalUnits(tokens, rs.config().strict_tokens));
}

}  // namespace joza::pti
