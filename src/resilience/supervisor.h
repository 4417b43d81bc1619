// DaemonSupervisor: lifecycle policy for a fleet of forked PTI daemons.
//
// The daemon pool used to treat every spawn as free: a daemon that died was
// replaced inline and the query retried once. Under a crash-looping daemon
// binary (bad fragment update, OOM killer, corrupted toolchain) that policy
// burns a fork + handshake per query — a fork storm that costs far more CPU
// than the analysis it fails to run. The supervisor turns respawn into a
// budgeted, paced, observable decision:
//
//   * exponential backoff with deterministic jitter after consecutive spawn
//     failures (a broken binary is retried at 50 ms, 100 ms, ... 5 s, not
//     in a tight loop);
//   * a restart-budget token bucket bounding sustained respawn rate no
//     matter how failures arrive;
//   * flap detection: `flap_threshold` crashes inside `flap_window` put the
//     shard in QUARANTINE — respawns are refused outright for
//     `quarantine` and every Analyze fails fast into the engine's degraded
//     mode (NTI-only or fail-closed, per JozaConfig). One probe spawn is
//     admitted when the quarantine lapses; its outcome decides between
//     recovery and another quarantine round.
//
// The supervisor is a pure policy object: it never forks, never owns fds.
// The pool asks AdmitSpawn() before forking and reports outcomes back. All
// methods are thread-safe (one mutex; consulted only on the spawn path,
// never per-query).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "resilience/backoff.h"
#include "util/counters.h"
#include "util/status.h"

namespace joza::resilience {

enum class SupervisorState { kHealthy, kBackoff, kQuarantined };

const char* SupervisorStateName(SupervisorState state);

struct SupervisorOptions {
  // Token bucket bounding sustained respawns. `restart_budget` is the
  // burst capacity; refill is per second. Capacity 0 disables the
  // supervisor entirely (every spawn admitted — the pre-supervisor
  // behaviour).
  double restart_budget = 16;
  double restart_refill_per_sec = 1.0;
  BackoffOptions backoff;
  // Flap detection: this many crashes/spawn-failures within the window
  // trips quarantine.
  std::size_t flap_threshold = 5;
  std::chrono::milliseconds flap_window{10000};
  std::chrono::milliseconds quarantine{2000};
};

struct SupervisorStats {
  std::uint64_t spawns_admitted = 0;   // AdmitSpawn() == OK
  std::uint64_t restarts = 0;          // admitted spawns after a failure
  std::uint64_t restarts_denied = 0;   // refused: budget, backoff or quarantine
  std::uint64_t spawn_failures = 0;    // fork/handshake that never went live
  std::uint64_t crashes = 0;           // live daemons that died/hung mid-flight
  std::uint64_t quarantines = 0;       // healthy/backoff -> quarantined
  std::uint64_t quarantine_probes = 0; // spawns admitted to test recovery
  std::uint64_t recoveries = 0;        // quarantined -> healthy

  CounterList Counters() const;
};

inline constexpr CounterField<SupervisorStats> kSupervisorCounters[] = {
    {"supervisor_spawns_admitted", &SupervisorStats::spawns_admitted},
    {"supervisor_restarts", &SupervisorStats::restarts},
    {"supervisor_restarts_denied", &SupervisorStats::restarts_denied},
    {"supervisor_spawn_failures", &SupervisorStats::spawn_failures},
    {"supervisor_crashes", &SupervisorStats::crashes},
    {"supervisor_quarantines", &SupervisorStats::quarantines},
    {"supervisor_quarantine_probes", &SupervisorStats::quarantine_probes},
    {"supervisor_recoveries", &SupervisorStats::recoveries},
};
static_assert(sizeof(SupervisorStats) ==
              std::size(kSupervisorCounters) * sizeof(std::uint64_t));

class DaemonSupervisor {
 public:
  using Clock = std::chrono::steady_clock;

  explicit DaemonSupervisor(SupervisorOptions options = {});

  bool enabled() const { return options_.restart_budget > 0; }

  // May the pool fork a daemon right now? OK admits (and charges the
  // budget when the spawn is a restart); Unavailable carries the refusal
  // reason (quarantined / backoff / restart budget exhausted). When the
  // quarantine has lapsed, exactly one caller is admitted as the probe.
  Status AdmitSpawn();

  // Outcome reporting. `RecordSpawnFailure` covers forks and handshakes
  // that never produced a live daemon; `RecordCrash` covers live daemons
  // that died or hung mid-flight (both count toward flap detection).
  void RecordSpawnSuccess();
  void RecordSpawnFailure();
  void RecordCrash();

  SupervisorState state() const;
  SupervisorStats stats() const;

  // True while quarantined (callers fail fast without waiting for a free
  // daemon slot — the shard is known-bad).
  bool quarantined() const;

 private:
  void NoteFailureLocked(Clock::time_point now);

  SupervisorOptions options_;

  mutable std::mutex mu_;
  SupervisorState state_ = SupervisorState::kHealthy;
  ExponentialBackoff backoff_;
  TokenBucket restart_bucket_;
  std::vector<Clock::time_point> recent_failures_;  // flap window samples
  Clock::time_point quarantined_until_{};
  bool probe_outstanding_ = false;  // one spawn racing out of quarantine
  // Failures (spawn failures + crashes) since the last healthy spawn; a
  // spawn attempted while this is nonzero is a budget-charged restart.
  std::size_t failures_since_success_ = 0;
  SupervisorStats stats_;
};

}  // namespace joza::resilience
