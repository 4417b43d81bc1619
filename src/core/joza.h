// Joza: the hybrid taint-inference engine (Section IV).
//
// Every query the application issues is checked by PTI first, then NTI; it
// is safe iff both deem it safe. Two caches accelerate PTI: the query
// cache (exact texts proven safe by PTI or by a structure hit) and the
// structure cache (the token skeleton with number and string values
// blanked, sqlparse/structure.h — safe because injected SQL always alters
// the skeleton). NTI is never cached: its verdict depends on the request's
// inputs. A check lexes the query at most once, and only when a cache miss
// or an NTI marking needs tokens; it never parses it.
//
// Requests: BeginRequest opens a RequestScope, which pins one ruleset
// snapshot, holds the request's deadline and prepares the request's inputs
// for NTI once (Section IV-D's interceptor records a request's inputs
// once); every query of that request is then checked through the scope.
// Check() and CheckRequest() are one-check scopes over the same code.
//
// Thread safety: Check(), CheckRequest(), BeginRequest(), MakeGate()'s
// gate, stats() and OnSourcesChanged() may be called concurrently from any
// number of threads (the gateway shares one engine across its whole worker
// pool). A RequestScope belongs to one request and is used from one thread
// at a time. The analyze path is lock-free: a scope pins the current
// immutable RulesetSnapshot with one atomic load and runs entirely against
// it; OnSourcesChanged builds a successor snapshot off to the side and
// publishes it RCU-style, so updates never quiesce readers — a request
// already under way finishes on the snapshot it pinned. The caches are
// sharded with striped locks, and stats counters are relaxed atomic adds.
// The setters (SetPtiBackend, SetAttackSink, SetSnapshotSink) are
// setup-time operations: call them before concurrent checking starts.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/sharded_cache.h"
#include "resilience/circuit_breaker.h"
#include "http/request.h"
#include "nti/nti.h"
#include "nti/pipeline.h"
#include "phpsrc/fragments.h"
#include "pti/ruleset.h"
#include "sqlparse/critical.h"
#include "sqlparse/token.h"
#include "util/counters.h"
#include "util/deadline.h"
#include "util/rcu.h"
#include "util/span.h"
#include "util/status.h"
#include "webapp/application.h"

namespace joza::core {

enum class RecoveryPolicy {
  kTerminate,           // default: conservative, blank page
  kErrorVirtualization, // report a failed query, let the app handle it
};

// What the engine does while the PTI backend is unavailable (circuit
// breaker open, deadline misses, dead daemons).
enum class DegradedMode {
  // Every un-cached query is blocked via error virtualization: the app
  // sees a failed query, the attacker sees a database error. No request
  // is ever waved through without a PTI verdict (paper §IV-C policy).
  kFailClosed,
  // NTI alone decides while PTI is down. Trades the hybrid guarantee for
  // availability; every such check is loudly counted in JozaStats.
  kNtiOnly,
};

const char* DegradedModeName(DegradedMode mode);

struct JozaConfig {
  nti::NtiConfig nti;
  pti::PtiConfig pti;
  bool enable_nti = true;
  bool enable_pti = true;
  bool query_cache = true;
  bool structure_cache = true;
  RecoveryPolicy recovery = RecoveryPolicy::kTerminate;
  // Degraded-mode policy when the PTI backend fails or the breaker is
  // open. kNtiOnly silently behaves as kFailClosed when enable_nti is
  // false: with neither analyzer available nothing may pass.
  DegradedMode degraded_mode = DegradedMode::kFailClosed;
  // Circuit breaker wrapping the external PTI backend (ignored for the
  // in-process analyzer, which cannot fail). threshold 0 disables.
  resilience::CircuitBreakerOptions breaker;
  // Bound on each safety cache's entry count (at least 1), so memory stays
  // stable under unbounded distinct-query traffic. Eviction is CLOCK
  // (LRU-ish) and can only forget safe verdicts, never grant one.
  std::size_t cache_capacity = 1 << 16;
  // Version the seed fragment set corresponds to. A warm start from a
  // crash-durable snapshot passes the recovered version so the engine
  // continues the pre-crash version line (cache salts, verdict stamps,
  // daemon handshakes) instead of restarting at zero.
  std::uint64_t initial_ruleset_version = 0;
};

// Everything a check needs to judge one query, bundled as one immutable
// object behind a single shared_ptr. A check pins the snapshot with one
// atomic load; OnSourcesChanged builds a successor and swaps the pointer.
// Old snapshots retire when their last in-flight check drops its pin.
struct RulesetSnapshot {
  // PTI vocabulary + prebuilt Aho–Corasick automaton + PtiConfig.
  std::shared_ptr<const pti::Ruleset> pti;
  // NTI policy travels with the snapshot too, so every layer a check
  // touches agrees on one configuration generation.
  nti::NtiConfig nti;
  // Update-log position == pti->version(); salted into cache hashes and
  // carried through verdicts and the daemon wire protocol.
  std::uint64_t version = 0;
};

enum class DetectedBy { kNone, kNti, kPti, kBoth };

const char* DetectedByName(DetectedBy d);

struct Verdict {
  bool attack = false;
  DetectedBy detected_by = DetectedBy::kNone;
  bool query_cache_hit = false;
  bool structure_cache_hit = false;
  // This check ran without a PTI verdict (backend failure or breaker fast
  // reject) and the degraded-mode policy decided the outcome.
  bool degraded = false;
  bool pti_unavailable = false;
  // Version of the ruleset snapshot this check was pinned to.
  std::uint64_t ruleset_version = 0;
  nti::NtiResult nti;
  pti::PtiResult pti;
};

struct JozaStats {
  std::uint64_t queries_checked = 0;
  std::uint64_t attacks_detected = 0;
  std::uint64_t query_cache_hits = 0;
  std::uint64_t structure_cache_hits = 0;
  std::uint64_t pti_full_runs = 0;
  std::uint64_t nti_runs = 0;
  // NTI matcher-pipeline roll-up (sums of the per-check NtiResult
  // counters): values resolved by the exact stage, candidates that reached
  // the kernel past the bigram block filter, full Sellers verifications,
  // and the tier histogram of which path decided each considered input.
  std::uint64_t nti_exact_hits = 0;
  std::uint64_t nti_seed_candidates = 0;
  std::uint64_t nti_dp_runs = 0;
  std::uint64_t nti_tier_reference = 0;
  std::uint64_t nti_tier_bounded = 0;
  std::uint64_t nti_tier_staged = 0;
  std::uint64_t cache_evictions = 0;
  // Degraded-path accounting: backend calls that returned an error (incl.
  // deadline misses), calls the open breaker refused without trying, checks
  // decided without a PTI verdict, and checks blocked solely because of
  // degradation (not counted as attacks_detected — nothing was detected).
  std::uint64_t pti_failures = 0;
  std::uint64_t breaker_fast_rejects = 0;
  std::uint64_t degraded_checks = 0;
  std::uint64_t degraded_blocks = 0;
  // Snapshot lifecycle: version currently published and the number of
  // publishes since construction (version is an identity — aggregation
  // takes the max; swaps is a counter — aggregation sums).
  std::uint64_t ruleset_version = 0;
  std::uint64_t ruleset_swaps = 0;
  // Crash-durability accounting: successful/failed persists through the
  // snapshot sink, and warm starts recovered from a persisted snapshot.
  std::uint64_t snapshot_saves = 0;
  std::uint64_t snapshot_save_failures = 0;
  std::uint64_t snapshot_loads = 0;

  // Aggregation across engines / snapshot intervals (gateway roll-ups).
  JozaStats& operator+=(const JozaStats& other);

  // Name/value export of every counter, in kJozaCounters order: the one
  // source the benchmark subsystem and the shutdown dump read.
  CounterList Counters() const;
};

inline constexpr CounterField<JozaStats> kJozaCounters[] = {
    {"queries_checked", &JozaStats::queries_checked},
    {"attacks_detected", &JozaStats::attacks_detected},
    {"query_cache_hits", &JozaStats::query_cache_hits},
    {"structure_cache_hits", &JozaStats::structure_cache_hits},
    {"pti_full_runs", &JozaStats::pti_full_runs},
    {"nti_runs", &JozaStats::nti_runs},
    {"nti_exact_hits", &JozaStats::nti_exact_hits},
    {"nti_seed_candidates", &JozaStats::nti_seed_candidates},
    {"nti_dp_runs", &JozaStats::nti_dp_runs},
    {"nti_tier_reference", &JozaStats::nti_tier_reference},
    {"nti_tier_bounded", &JozaStats::nti_tier_bounded},
    {"nti_tier_staged", &JozaStats::nti_tier_staged},
    {"cache_evictions", &JozaStats::cache_evictions},
    {"pti_failures", &JozaStats::pti_failures},
    {"breaker_fast_rejects", &JozaStats::breaker_fast_rejects},
    {"degraded_checks", &JozaStats::degraded_checks},
    {"degraded_blocks", &JozaStats::degraded_blocks},
    {"ruleset_version", &JozaStats::ruleset_version, /*keeps_max=*/true},
    {"ruleset_swaps", &JozaStats::ruleset_swaps},
    {"snapshot_saves", &JozaStats::snapshot_saves},
    {"snapshot_save_failures", &JozaStats::snapshot_save_failures},
    {"snapshot_loads", &JozaStats::snapshot_loads},
};
static_assert(sizeof(JozaStats) ==
                  std::size(kJozaCounters) * sizeof(std::uint64_t),
              "every JozaStats field needs a row in kJozaCounters");

// Structured record of one detected attack, for audit logs / operators.
struct AttackReport {
  std::string query;
  DetectedBy detected_by = DetectedBy::kNone;
  // PTI evidence: critical-token texts that no fragment covered.
  std::vector<std::string> untrusted_tokens;
  // NTI evidence: which input matched, where, and how closely.
  std::string matched_input_name;
  http::InputKind matched_input_kind = http::InputKind::kGet;
  ByteSpan matched_span;
  double match_ratio = 0.0;
  std::size_t sequence = 0;  // detection counter at report time

  // One-line rendering for log files (single pre-sized buffer).
  std::string ToLogLine() const;
};

// Receives every attack the engine detects. Must not re-enter the engine.
using AttackSink = std::function<void(const AttackReport&)>;

// Persists one published ruleset generation (fragment vocabulary +
// version); wired to resilience::SaveRulesetSnapshot by the gateway CLI.
// Invoked after every publish, serialized with other writers. Must not
// re-enter the engine; the returned Status only feeds the save counters
// (a failed persist never blocks the publish — durability is best-effort,
// correctness does not depend on it).
using SnapshotSink =
    std::function<Status(const php::FragmentSet&, std::uint64_t version)>;

// Pluggable PTI execution: in-process by default, or the IPC daemon client
// (Section IV-C1) — the architecture the paper ships to avoid requiring a
// PHP extension. An error Status means "no verdict" (dead daemon, deadline
// miss, pool shut down); the engine's circuit breaker and degraded-mode
// policy decide what that means — backends must NOT bake in their own
// fail-closed fake verdicts. `deadline` bounds the whole call; backends
// that cannot honour it should return promptly on a best-effort basis.
using PtiFn = std::function<StatusOr<pti::PtiResult>(
    std::string_view query, const std::vector<sql::Token>& tokens,
    util::Deadline deadline)>;

class RequestScope;

class Joza {
 public:
  Joza(php::FragmentSet fragments, JozaConfig config = {});

  // Installation (Section IV-A): scans the application's source corpus for
  // fragments, exactly as the real installer recursively parses the
  // application directory.
  static Joza Install(const webapp::Application& app, JozaConfig config = {});

  const JozaConfig& config() const { return config_; }
  // Relaxed snapshot of the counters (each read atomically). Subtract two
  // snapshots to count an interval.
  JozaStats stats() const;

  // The currently-published ruleset snapshot (one atomic load). Callers
  // may hold it for as long as they like; it never mutates.
  std::shared_ptr<const RulesetSnapshot> ruleset() const;
  std::uint64_t ruleset_version() const;

  // Re-routes PTI analysis (e.g. through the daemon). Pass nullptr to
  // restore in-process analysis. Caches still apply in front of it.
  void SetPtiBackend(PtiFn fn) { pti_backend_ = std::move(fn); }

  // Installs an audit sink invoked for every detected attack.
  void SetAttackSink(AttackSink sink) { attack_sink_ = std::move(sink); }

  // Installs the crash-durability sink invoked after every snapshot
  // publish (setup-time, like the other setters).
  void SetSnapshotSink(SnapshotSink sink) { snapshot_sink_ = std::move(sink); }

  // Records that this engine was warm-started from a persisted snapshot
  // (exported as snapshot_loads; called by whoever performed the load).
  void NoteSnapshotLoad() { Bump(state_->stats.snapshot_loads); }

  // Circuit breaker guarding the external PTI backend. Exposed for stats
  // snapshots and tests; resetting it mid-traffic is safe.
  const resilience::CircuitBreaker& breaker() const { return state_->breaker; }
  resilience::CircuitBreaker& breaker() { return state_->breaker; }

  // Opens one request's scope: pins the current ruleset snapshot and
  // prepares the request's inputs for NTI, once. Every query the request
  // issues is then checked through the scope (see RequestScope), each
  // bounded by `deadline` (infinite by default), which bounds the external
  // PTI backend call. The request and this engine must outlive the scope.
  RequestScope BeginRequest(const http::Request& request,
                            util::Deadline deadline = {});

  // Checks one query against the stored request inputs: a one-check scope
  // with `deadline`. No input is copied: the analysis reads borrowed views
  // of the caller's vector.
  Verdict Check(std::string_view query,
                const std::vector<http::Input>& inputs,
                util::Deadline deadline = {});

  // Zero-copy entry over a whole stored request: a one-check scope,
  // BeginRequest(request, deadline).Check(query).
  Verdict CheckRequest(std::string_view query, const http::Request& request,
                       util::Deadline deadline = {});

  // Binds this engine as an application interception gate applying the
  // configured recovery policy; every gated query is a one-check scope.
  // The Joza object must outlive the gate. A server that sees request
  // boundaries installs RequestScope::MakeGate() per request instead.
  webapp::QueryGate MakeGate();

  // Preprocessing hook (Section IV-B): folds newly discovered sources into
  // a successor snapshot (built off the hot path) and publishes it; checks
  // already in flight finish against the snapshot they pinned.
  void OnSourcesChanged(const std::vector<php::SourceFile>& files);

 private:
  // Per-query working set of the single-pass pipeline: the query is lexed
  // at most once, and only when a cache miss or an NTI marking needs
  // tokens; every derived view (critical units for PTI, critical tokens
  // for NTI) is computed at most once and shared by all layers.
  struct AnalysisContext {
    std::string_view query;
    const RulesetSnapshot* snapshot = nullptr;
    util::Deadline deadline;
    // The lex of `query`, run on first call and reused after.
    const std::vector<sql::Token>& Tokens();
    std::optional<std::vector<sql::Token>> tokens;
    std::vector<sql::CriticalUnit> pti_units;  // per snapshot->pti policy
    std::vector<sql::Token> nti_critical;      // per snapshot->nti policy
  };

  // All concurrently-mutated state lives behind one pointer so Joza itself
  // stays movable (Install returns by value). Moving an engine while other
  // threads are checking through it is, of course, still undefined.
  struct SharedState {
    SharedState(std::size_t capacity,
                resilience::CircuitBreakerOptions breaker_options)
        : query_cache(capacity), structure_cache(capacity),
          breaker(breaker_options) {}
    // The published ruleset snapshot; readers pin it lock-free.
    RcuCell<RulesetSnapshot> snapshot;
    // Query cache: hashes of exact query strings proven safe by PTI or by
    // a structure-cache hit (salted with the snapshot version they were
    // proven under).
    ShardedSafetyCache query_cache;
    // Structure cache: token-skeleton hashes of previously PTI-safe
    // queries (same version salt).
    ShardedSafetyCache structure_cache;
    // Live counters, touched only through Bump and LoadCounters.
    // cache_evictions and ruleset_version stay 0 here: stats() reads them
    // from the caches and the published snapshot.
    JozaStats stats;
    // Serializes writers (OnSourcesChanged) against each other only;
    // checks never touch it.
    std::mutex swap_mu;
    // Attack sinks are user callbacks with no thread-safety contract.
    std::mutex sink_mu;
    // Guards the external PTI backend; the in-process path never consults
    // it (an in-process analyzer cannot fail).
    resilience::CircuitBreaker breaker;
  };

  friend class RequestScope;

  StatusOr<pti::PtiResult> RunPti(AnalysisContext& ctx);
  // The single-pass pipeline behind every entry: one query against a
  // pinned snapshot and the request's prepared NTI inputs (null with NTI
  // off).
  Verdict CheckPinned(const RulesetSnapshot& snap, nti::PreparedInputs* nti,
                      std::string_view query, util::Deadline deadline);
  // The gate's answer to a verdict, per the configured recovery policy.
  webapp::GateDecision Decide(const Verdict& verdict) const;
  void EmitAttackReport(const Verdict& verdict, std::string_view query,
                        std::size_t sequence);

  JozaConfig config_;
  PtiFn pti_backend_;  // empty -> in-process; must be thread-safe if the
                       // engine is checked from multiple threads
  AttackSink attack_sink_;
  SnapshotSink snapshot_sink_;
  std::unique_ptr<SharedState> state_;
};

// One HTTP request's view of the engine, from Joza::BeginRequest. It holds
// the ruleset snapshot pinned when the request began, the request's
// deadline, and the request's inputs as borrowed views, prepared for NTI
// once; every Check runs the engine's full pipeline (caches, PTI, degraded
// mode, NTI) against them.
// An OnSourcesChanged while the request is under way reaches the next
// request, never the rest of this one. One request, one thread: a scope
// is not safe to use from two threads at once.
class RequestScope {
 public:
  // Pinned, like its NTI preparation: BeginRequest hands it out by
  // guaranteed copy elision.
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

  Verdict Check(std::string_view query);

  // An interception gate answering for this scope's request; the scope
  // must outlive the gate.
  webapp::QueryGate MakeGate();

  std::uint64_t ruleset_version() const { return snapshot_->version; }

 private:
  friend class Joza;
  // `inputs` is a request or a span of input views; with NTI off there is
  // nothing to prepare.
  template <typename Inputs>
  RequestScope(Joza& engine, const Inputs& inputs, util::Deadline deadline)
      : engine_(&engine),
        snapshot_(engine.state_->snapshot.Load()),
        deadline_(deadline) {
    if (engine.config_.enable_nti) nti_.emplace(snapshot_->nti, inputs);
  }

  Joza* engine_;
  std::shared_ptr<const RulesetSnapshot> snapshot_;
  util::Deadline deadline_;
  std::optional<nti::PreparedInputs> nti_;
};

}  // namespace joza::core
