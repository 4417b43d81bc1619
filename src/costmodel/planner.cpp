#include "costmodel/planner.h"

#include <algorithm>

namespace joza::costmodel {

namespace {

// Nominal per-request shapes for decisions that run before any request is
// parsed (batch admission) or before any query exists (ruleset build).
// These stand in for the live features the calibrated curves are applied
// to; they only need to be the right order of magnitude.
constexpr double kNominalQueryBytes = 128.0;
constexpr double kNominalValueBytes = 16.0;
constexpr double kNominalInputsPerRequest = 4.0;

}  // namespace

const char* ExactStrategyName(ExactStrategy strategy) {
  switch (strategy) {
    case ExactStrategy::kPerInputFind: return "find";
    case ExactStrategy::kAutomaton: return "automaton";
  }
  return "?";
}

ExactStrategy Planner::PlanExactStage(
    const ExactStageFeatures& features) const {
  if (!model_) {
    // Legacy heuristic, bit-for-bit: at least the multi-pattern input
    // floor, and enough scanned query bytes per input to amortize the
    // automaton build (a conservative ratio since the byte-class layout,
    // see kDefaultAutomatonAmortization).
    const bool automaton =
        features.input_count >= kDefaultMultiPatternMinInputs &&
        features.input_count * features.query_bytes >=
            kDefaultAutomatonAmortization * features.total_value_bytes;
    return automaton ? ExactStrategy::kAutomaton
                     : ExactStrategy::kPerInputFind;
  }
  // Calibrated: build one automaton over every unresolved value and scan
  // the query once, vs one find() pass over the query per input. A single
  // input can never amortize a build, whatever the curves say.
  if (features.input_count < 2) return ExactStrategy::kPerInputFind;
  const double automaton_ns =
      model_->curve(Stage::kAcBuild)
          .Eval(static_cast<double>(features.total_value_bytes)) +
      model_->curve(Stage::kAcScan)
          .Eval(static_cast<double>(features.query_bytes));
  const double find_ns =
      static_cast<double>(features.input_count) *
      model_->curve(Stage::kFind)
          .Eval(static_cast<double>(features.query_bytes));
  return automaton_ns <= find_ns ? ExactStrategy::kAutomaton
                                 : ExactStrategy::kPerInputFind;
}

bool Planner::PlanBatchScope(std::size_t requests) const {
  // A batch of one amortizes nothing under any model.
  if (requests < 2) return false;
  if (!model_) return requests >= kDefaultBatchScopeMinRequests;
  // One shared automaton build over the whole batch plus one cached scan,
  // vs each of the `requests` checks paying its own build + scan. The
  // build is linear in pattern bytes, so sharing saves (n-1) base
  // overheads and (n-1) scans of repeated queries.
  const double n = static_cast<double>(requests);
  const double per_request_value_bytes =
      kNominalInputsPerRequest * kNominalValueBytes;
  const double shared_ns =
      model_->curve(Stage::kAcBuild).Eval(n * per_request_value_bytes) +
      model_->curve(Stage::kAcScan).Eval(kNominalQueryBytes);
  const double per_check_ns =
      n * (model_->curve(Stage::kAcBuild).Eval(per_request_value_bytes) +
           model_->curve(Stage::kAcScan).Eval(kNominalQueryBytes));
  return shared_ns <= per_check_ns;
}

RulesetPlan Planner::PlanRuleset(
    const std::vector<std::size_t>& pattern_lengths,
    bool allow_automaton) const {
  RulesetPlan plan;
  plan.calibrated = calibrated();
  plan.vocabulary = pattern_lengths.size();
  for (const std::size_t len : pattern_lengths) {
    plan.total_pattern_bytes += len;
    plan.min_pattern_len =
        plan.min_pattern_len == 0 ? len : std::min(plan.min_pattern_len, len);
    plan.max_pattern_len = std::max(plan.max_pattern_len, len);
    const std::size_t bucket = len <= 2   ? 0
                               : len <= 4  ? 1
                               : len <= 8  ? 2
                               : len <= 16 ? 3
                               : len <= 32 ? 4
                                           : 5;
    ++plan.length_histogram[bucket];
  }
  if (!allow_automaton) {
    // Ablation override (PtiConfig::use_aho_corasick = false): the naive
    // per-fragment scan is forced regardless of cost.
    plan.use_automaton = false;
  } else if (!model_) {
    // Legacy default: the eagerly built automaton always serves.
    plan.use_automaton = true;
  } else {
    // One automaton pass over the query vs one find() pass per fragment.
    const double automaton_ns =
        model_->curve(Stage::kAcScan).Eval(kNominalQueryBytes);
    const double naive_ns =
        static_cast<double>(plan.vocabulary) *
        model_->curve(Stage::kFind).Eval(kNominalQueryBytes);
    plan.use_automaton = plan.vocabulary > 0 && automaton_ns <= naive_ns;
    plan.predicted_scan_ns = plan.use_automaton ? automaton_ns : naive_ns;
  }
  return plan;
}

}  // namespace joza::costmodel
