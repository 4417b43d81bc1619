#include "core/joza.h"

#include <algorithm>
#include <utility>

#include "sqlparse/lexer.h"
#include "sqlparse/structure.h"
#include "util/hash.h"

namespace joza::core {

const char* DetectedByName(DetectedBy d) {
  switch (d) {
    case DetectedBy::kNone: return "none";
    case DetectedBy::kNti: return "NTI";
    case DetectedBy::kPti: return "PTI";
    case DetectedBy::kBoth: return "NTI+PTI";
  }
  return "?";
}

const char* DegradedModeName(DegradedMode mode) {
  switch (mode) {
    case DegradedMode::kFailClosed: return "fail-closed";
    case DegradedMode::kNtiOnly: return "nti-only";
  }
  return "?";
}

JozaStats& JozaStats::operator+=(const JozaStats& other) {
  for (const CounterField<JozaStats>& row : kJozaCounters) {
    std::uint64_t& mine = this->*row.field;
    const std::uint64_t theirs = other.*row.field;
    mine = row.keeps_max ? std::max(mine, theirs) : mine + theirs;
  }
  return *this;
}

CounterList JozaStats::Counters() const {
  return ExportCounters(*this, kJozaCounters);
}

Joza::Joza(php::FragmentSet fragments, JozaConfig config)
    : config_(config),
      state_(std::make_unique<SharedState>(config.cache_capacity,
                                           config.breaker)) {
  auto ruleset = pti::Ruleset::Build(std::move(fragments), config_.pti,
                                     config_.initial_ruleset_version);
  state_->snapshot.Publish(std::make_shared<const RulesetSnapshot>(
      RulesetSnapshot{std::move(ruleset), config_.nti,
                      config_.initial_ruleset_version}));
}

Joza Joza::Install(const webapp::Application& app, JozaConfig config) {
  return Joza(php::FragmentSet::FromSources(app.sources()), config);
}

std::shared_ptr<const RulesetSnapshot> Joza::ruleset() const {
  return state_->snapshot.Load();
}

std::uint64_t Joza::ruleset_version() const {
  return state_->snapshot.Load()->version;
}

JozaStats Joza::stats() const {
  JozaStats out = LoadCounters(state_->stats, kJozaCounters);
  out.cache_evictions =
      state_->query_cache.evictions() + state_->structure_cache.evictions();
  out.ruleset_version = state_->snapshot.Load()->version;
  return out;
}

void Joza::OnSourcesChanged(const std::vector<php::SourceFile>& files) {
  // Writers serialize against each other only. Readers are never blocked:
  // a check already in flight finishes against the snapshot it pinned, and
  // the successor is built entirely off the hot path.
  std::lock_guard<std::mutex> lock(state_->swap_mu);
  const auto current = state_->snapshot.Load();
  auto next_pti = current->pti->WithSources(files);
  const std::uint64_t next_version = next_pti->version();
  const std::shared_ptr<const pti::Ruleset> published = next_pti;
  state_->snapshot.Publish(std::make_shared<const RulesetSnapshot>(
      RulesetSnapshot{std::move(next_pti), current->nti, next_version}));
  Bump(state_->stats.ruleset_swaps);
  // Cache keys are salted with the snapshot version, so entries proven
  // under the old vocabulary can never satisfy a lookup against the new
  // one — including entries a racing reader inserts after this swap (it
  // inserts under the old version's keys). Clearing just reclaims the now
  // unreachable entries' memory.
  state_->query_cache.Clear();
  state_->structure_cache.Clear();
  // Best-effort crash durability: persist the generation just published.
  // Still under swap_mu, so snapshots land on disk in version order; a
  // failed persist is counted but never rolls back the publish.
  if (snapshot_sink_) {
    const Status persisted =
        snapshot_sink_(published->fragments(), next_version);
    Bump(persisted.ok() ? state_->stats.snapshot_saves
                        : state_->stats.snapshot_save_failures);
  }
}

const std::vector<sql::Token>& Joza::AnalysisContext::Tokens() {
  if (!tokens) tokens = sql::Lex(query);
  return *tokens;
}

StatusOr<pti::PtiResult> Joza::RunPti(AnalysisContext& ctx) {
  Bump(state_->stats.pti_full_runs);
  if (pti_backend_) {
    if (!state_->breaker.Allow()) {
      Bump(state_->stats.breaker_fast_rejects);
      Bump(state_->stats.pti_failures);
      return Status::Unavailable("PTI circuit breaker open");
    }
    auto result = pti_backend_(ctx.query, ctx.Tokens(), ctx.deadline);
    if (!result.ok()) {
      state_->breaker.RecordFailure();
      Bump(state_->stats.pti_failures);
      return result.status();
    }
    state_->breaker.RecordSuccess();
    return result;
  }
  // In-process: pure functions over the pinned immutable snapshot. No
  // locks on either strategy — the naive path runs stateless here (MRU
  // ordering is a single-owner optimization; results are identical).
  return pti::AnalyzeUnits(*ctx.snapshot->pti, ctx.query, ctx.pti_units);
}

RequestScope Joza::BeginRequest(const http::Request& request,
                                util::Deadline deadline) {
  return RequestScope(*this, request, deadline);
}

Verdict Joza::Check(std::string_view query,
                    const std::vector<http::Input>& inputs,
                    util::Deadline deadline) {
  const std::vector<http::InputView> views = http::ViewsOf(inputs);
  return RequestScope(*this, std::span<const http::InputView>(views),
                      deadline)
      .Check(query);
}

Verdict Joza::CheckRequest(std::string_view query,
                           const http::Request& request,
                           util::Deadline deadline) {
  return BeginRequest(request, deadline).Check(query);
}

Verdict RequestScope::Check(std::string_view query) {
  return engine_->CheckPinned(*snapshot_, nti_ ? &*nti_ : nullptr, query,
                              deadline_);
}

webapp::QueryGate RequestScope::MakeGate() {
  // The application hands the gate the request this scope was begun with;
  // its inputs are already prepared here.
  return [this](std::string_view sql, const http::Request&) {
    return engine_->Decide(Check(sql));
  };
}

Verdict Joza::CheckPinned(const RulesetSnapshot& snap,
                          nti::PreparedInputs* nti, std::string_view query,
                          util::Deadline deadline) {
  // Single-pass pipeline over the scope's pinned snapshot: thread the
  // shared working set through caches, PTI and NTI. The query is lexed on
  // first need: a query-cache hit whose inputs NTI does not mark never
  // lexes.
  AnalysisContext ctx;
  ctx.query = query;
  ctx.snapshot = &snap;
  ctx.deadline = deadline;

  Bump(state_->stats.queries_checked);
  Verdict verdict;
  verdict.ruleset_version = snap.version;

  // --- PTI (with caches) ---------------------------------------------------
  bool pti_safe = true;
  if (config_.enable_pti) {
    bool resolved = false;
    // Both cache keys are salted with the snapshot version: a hit proves
    // safety under *this* vocabulary, never an older one.
    const std::uint64_t qhash = HashCombine(Fnv1a64(query), snap.version);
    if (config_.query_cache && state_->query_cache.Lookup(qhash)) {
      Bump(state_->stats.query_cache_hits);
      verdict.query_cache_hit = true;
      resolved = true;  // safe
    }

    // A query that does not lex cleanly has no shape and runs PTI.
    std::uint64_t shash = 0;
    bool have_shash = false;
    if (!resolved && config_.structure_cache) {
      auto shape = sql::StructureHashOf(query, ctx.Tokens());
      if (shape.ok()) {
        shash = HashCombine(shape.value(), snap.version);
        have_shash = true;
        if (state_->structure_cache.Lookup(shash)) {
          Bump(state_->stats.structure_cache_hits);
          verdict.structure_cache_hit = true;
          resolved = true;  // same shape as a previously PTI-safe query
          // This exact text would hit the same entry again, so promote it:
          // unless NTI marks an input, its next check skips the lex.
          if (config_.query_cache) state_->query_cache.Insert(qhash);
        }
      }
    }

    if (!resolved) {
      const bool strict = snap.pti->config().strict_tokens;
      ctx.pti_units = sql::BuildCriticalUnits(ctx.Tokens(), strict);
      auto pti_or = RunPti(ctx);
      if (pti_or.ok()) {
        verdict.pti = std::move(pti_or).value();
        pti_safe = !verdict.pti.attack_detected;
        if (pti_safe) {
          if (config_.query_cache) state_->query_cache.Insert(qhash);
          if (have_shash) state_->structure_cache.Insert(shash);
        }
      } else {
        // No PTI verdict: degraded-mode policy decides. Never cache —
        // nothing was proven safe.
        verdict.degraded = true;
        verdict.pti_unavailable = true;
        Bump(state_->stats.degraded_checks);
        if (config_.degraded_mode == DegradedMode::kNtiOnly &&
            config_.enable_nti) {
          // NTI alone decides; PTI treated as (unproven) safe.
        } else {
          // Fail closed — also the forced fallback for kNtiOnly when NTI
          // is disabled: with no analyzer at all, nothing may pass.
          pti_safe = false;
          verdict.pti.attack_detected = true;
        }
      }
    }
  }

  // --- NTI (never cached: depends on this request's inputs) ---------------
  bool nti_safe = true;
  if (nti != nullptr) {
    Bump(state_->stats.nti_runs);
    verdict.nti = nti->Mark(query);
    // Only the whole-token rule reads tokens, and with no marking it has
    // nothing to decide.
    if (!verdict.nti.markings.empty()) {
      ctx.nti_critical =
          sql::CriticalTokens(ctx.Tokens(), snap.nti.strict_tokens);
      nti::NtiAnalyzer::ApplyWholeTokenRule(ctx.nti_critical, verdict.nti);
    }
    nti_safe = !verdict.nti.attack_detected;
    // Most of these are zero on any one check; skip the atomic for those.
    auto add = [](std::uint64_t& counter, std::size_t value) {
      if (value != 0) Bump(counter, value);
    };
    JozaStats& s = state_->stats;
    const nti::NtiResult& r = verdict.nti;
    add(s.nti_exact_hits, r.exact_hits);
    add(s.nti_seed_candidates, r.seed_candidates);
    add(s.nti_dp_runs, r.dp_runs);
    add(s.nti_tier_reference, r.tier_reference);
    add(s.nti_tier_bounded, r.tier_bounded);
    add(s.nti_tier_staged, r.tier_staged);
  }

  verdict.attack = !pti_safe || !nti_safe;
  // A degraded fail-closed block is not a PTI *detection*: attribute only
  // what an analyzer actually found.
  const bool pti_detected = !pti_safe && !verdict.pti_unavailable;
  if (pti_detected && !nti_safe) {
    verdict.detected_by = DetectedBy::kBoth;
  } else if (pti_detected) {
    verdict.detected_by = DetectedBy::kPti;
  } else if (!nti_safe) {
    verdict.detected_by = DetectedBy::kNti;
  }
  // A block caused only by PTI being unavailable is counted separately and
  // kept out of the attack audit log (a daemon outage must not flood the
  // sink with one phantom attack per request).
  if (verdict.attack && verdict.detected_by == DetectedBy::kNone) {
    Bump(state_->stats.degraded_blocks);
    return verdict;
  }
  if (verdict.attack) {
    const std::size_t sequence = Bump(state_->stats.attacks_detected) + 1;
    // The structured report (string copies, token texts) is materialized
    // only when someone is listening.
    if (attack_sink_) EmitAttackReport(verdict, query, sequence);
  }
  return verdict;
}

void Joza::EmitAttackReport(const Verdict& verdict, std::string_view query,
                            std::size_t sequence) {
  AttackReport report;
  report.query = std::string(query);
  report.detected_by = verdict.detected_by;
  report.sequence = sequence;
  report.untrusted_tokens.reserve(verdict.pti.untrusted_critical_tokens.size());
  for (const sql::Token& t : verdict.pti.untrusted_critical_tokens) {
    report.untrusted_tokens.emplace_back(t.text);
  }
  // Report the marking that actually covered a critical token, if any.
  if (verdict.nti.attack_detected && !verdict.nti.markings.empty()) {
    for (const nti::TaintMarking& m : verdict.nti.markings) {
      bool covers = false;
      for (const sql::Token& t : verdict.nti.tainted_critical_tokens) {
        if (m.span.contains(t.span)) covers = true;
      }
      if (!covers) continue;
      report.matched_input_name = m.input_name;
      report.matched_input_kind = m.input_kind;
      report.matched_span = m.span;
      report.match_ratio = m.ratio;
      break;
    }
  }
  std::lock_guard<std::mutex> sink_lock(state_->sink_mu);
  attack_sink_(report);
}

std::string AttackReport::ToLogLine() const {
  std::string line;
  // One pre-sized buffer: fixed text + numbers comfortably fit in the
  // slack; the variable-length pieces are accounted for exactly.
  std::size_t cap = 96 + query.size() + matched_input_name.size();
  for (const std::string& t : untrusted_tokens) cap += t.size() + 3;
  line.reserve(cap);
  line.append("JOZA-ATTACK #").append(std::to_string(sequence));
  line.append(" by=").append(DetectedByName(detected_by));
  if (!matched_input_name.empty()) {
    line.append(" input=").append(http::InputKindName(matched_input_kind));
    line.append(":").append(matched_input_name);
    line.append(" span=[").append(std::to_string(matched_span.begin));
    line.append(",").append(std::to_string(matched_span.end));
    line.append(") ratio=").append(std::to_string(match_ratio));
  }
  if (!untrusted_tokens.empty()) {
    line.append(" untrusted=");
    for (std::size_t i = 0; i < untrusted_tokens.size(); ++i) {
      if (i > 0) line.append(",");
      line.append("\"").append(untrusted_tokens[i]).append("\"");
    }
  }
  line.append(" query=\"").append(query).append("\"");
  return line;
}

webapp::QueryGate Joza::MakeGate() {
  return [this](std::string_view sql, const http::Request& request) {
    // Zero-copy interception: the stored request's inputs are analyzed as
    // borrowed views, never materialized through AllInputs().
    return Decide(CheckRequest(sql, request));
  };
}

webapp::GateDecision Joza::Decide(const Verdict& verdict) const {
  webapp::GateDecision decision;
  if (!verdict.attack) {
    decision.action = webapp::GateDecision::Action::kAllow;
    return decision;
  }
  if (verdict.detected_by == DetectedBy::kNone) {
    // Degraded fail-closed block, not a detection: always virtualize the
    // error — the app sees a failed query and renders its own error page,
    // so an analyzer outage looks like a database hiccup, never a
    // site-wide hard 500 (and never an open door).
    decision.reason = "PTI unavailable: degraded fail-closed";
    decision.action = webapp::GateDecision::Action::kBlockError;
    return decision;
  }
  decision.reason = std::string("SQL injection detected by ") +
                    DetectedByName(verdict.detected_by);
  decision.action = config_.recovery == RecoveryPolicy::kTerminate
                        ? webapp::GateDecision::Action::kBlockTerminate
                        : webapp::GateDecision::Action::kBlockError;
  return decision;
}

}  // namespace joza::core
