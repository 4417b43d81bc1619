// Pool of persistent PTI daemons for the concurrent gateway.
//
// One DaemonClient serializes every analysis through a single pipe pair —
// fine for the paper's single-threaded Apache module, a bottleneck for a
// worker pool. DaemonPool multiplexes PTI analysis over N persistent daemon
// processes with checkout/return semantics: a worker checks a daemon out,
// round-trips its query, and returns it; when all daemons are busy and the
// pool is at its cap, callers block until one frees up.
//
// Failure policy: a daemon that dies or hangs mid-flight is SIGKILLed and
// discarded, and the query retried once on a fresh daemon within the
// remaining deadline budget. A spawn that follows a failed spawn or a
// crashed daemon is a restart and spends one token from a restart bucket
// (`supervisor.restart_budget` tokens, refilled at kRestartRefillPerSec).
// When the bucket is empty the attempt fails at once, unless a live daemon
// is checked out and can still come back to the pool: a crash storm then
// reaches the engine's circuit breaker, which is the one limiter in front
// of a failing pool, instead of a wait that runs out the caller's deadline.
//
// If every attempt fails the pool reports an error Status and the engine's
// degraded-mode policy decides (fail closed by default — an unreachable
// analyzer never waves queries through). Every round trip is bounded by
// min(caller deadline, per_call_timeout), so a hung daemon costs one
// budget, not a pinned worker. Idle daemons beyond `min_size` are reaped
// after `idle_timeout` so a traffic spike does not pin processes forever.
//
// Thread safety: every method may be called from any number of threads,
// including Shutdown/destruction racing in-flight Analyze calls: Shutdown
// waits for in-flight calls to drain, and calls that arrive after it began
// get Unavailable.
#pragma once

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/joza.h"
#include "ipc/daemon.h"
#include "ipc/framing.h"
#include "phpsrc/fragments.h"
#include "pti/pti.h"
#include "resilience/token_bucket.h"
#include "util/deadline.h"
#include "util/status.h"

namespace joza::ipc {

class DaemonPool {
 public:
  // Sustained restarts a pool may spend per second once its restart bucket
  // has drained.
  static constexpr double kRestartRefillPerSec = 1.0;

  struct SupervisorOptions {
    // Restart bucket capacity; 0 admits every restart.
    double restart_budget = 16;
  };

  struct Options {
    std::size_t min_size = 1;   // survivors of idle reaping
    std::size_t max_size = 4;   // hard cap on live daemons
    std::chrono::milliseconds idle_timeout{30000};
    // Upper bound on each checkout + round trip, combined with the
    // caller's deadline (whichever is earlier). A miss means the daemon is
    // treated as dead: killed, replaced, the call retried on the budget
    // that remains. 0 disables the per-call bound (caller deadline only).
    std::chrono::milliseconds per_call_timeout{2000};

    SupervisorOptions supervisor;

    // Ruleset version the seed fragment set corresponds to. A warm start
    // from a snapshot passes the recovered version here so every daemon,
    // handshake and verdict continues the pre-crash version line instead
    // of restarting at zero.
    std::uint64_t base_version = 0;
  };

  struct PoolStats {
    std::uint64_t spawned = 0;   // daemons that answered their handshake
    std::uint64_t replaced = 0;  // live daemons discarded mid-flight
    std::uint64_t reaped = 0;    // idle daemons retired
    std::uint64_t analyzed = 0;  // successful round trips
    std::uint64_t failures = 0;  // round trips that failed even after retry
    std::uint64_t waits = 0;     // checkouts that had to block
    std::uint64_t deadline_misses = 0;  // round trips abandoned on deadline
    // Daemons whose handshake or update Ack reported a ruleset version
    // other than the pool's target — stale replicas, discarded on sight.
    std::uint64_t version_mismatches = 0;
    // The pool's current target ruleset version
    // (base_version + fragment texts added).
    std::uint64_t target_version = 0;
    // Spawns whose fork or handshake never produced a live daemon.
    std::uint64_t spawn_failures = 0;
    std::uint64_t restarts_denied = 0;  // restarts the empty bucket refused

    CounterList Counters() const;
  };

  explicit DaemonPool(php::FragmentSet fragments)
      : DaemonPool(std::move(fragments), Options{}) {}
  DaemonPool(php::FragmentSet fragments, Options options,
             pti::PtiConfig config = {});
  ~DaemonPool();

  DaemonPool(const DaemonPool&) = delete;
  DaemonPool& operator=(const DaemonPool&) = delete;

  // Round-trips one query through any pooled daemon. Spawns up to max_size
  // daemons on demand (restart bucket permitting); blocks when all are
  // checked out (bounded by the deadline). Each attempt is additionally
  // bounded by per_call_timeout; a failed attempt is retried once on what
  // remains of the deadline.
  StatusOr<PtiVerdictWire> Analyze(std::string_view query,
                                   util::Deadline deadline = util::Deadline());

  Status Ping(util::Deadline deadline = util::Deadline());

  // Records fragments for every daemon and advances the pool's target
  // ruleset version by one per text. Running daemons receive them lazily
  // at their next checkout (the update frame names the exact version they
  // must land on); future spawns start with them.
  Status AddFragments(const std::vector<std::string>& fragment_texts);

  // The version every daemon must converge on: base_version plus the
  // update-log position (one per fragment text ever added).
  std::uint64_t target_version() const;

  // The fragment set every future spawn is seeded with (base fragments
  // plus everything added) — what a crash-durable snapshot must persist.
  php::FragmentSet fragment_snapshot() const;

  // Ruleset versions of the currently idle daemons (convergence tests).
  // Idle daemons may lag the target — they converge at next checkout.
  std::vector<std::uint64_t> idle_versions() const;

  // Thread-safe Joza PTI backend over the pool. RPC failures surface as
  // error Status; the engine's breaker/degraded policy decides.
  core::PtiFn AsPtiBackend();

  // Retires daemons idle for longer than idle_timeout, down to min_size.
  // Also runs opportunistically on every return.
  void ReapIdle();

  // Shuts every daemon down and rejects further work. Safe to race with
  // in-flight Analyze/Ping calls: it blocks until they drain (their bounded
  // deadlines guarantee that terminates); late arrivals get Unavailable.
  void Shutdown();

  PoolStats stats() const;
  std::size_t live() const;   // spawned and not yet retired (busy + idle)
  std::size_t idle() const;

  // Pids of the currently idle daemons (diagnostics / kill-tests).
  std::vector<int> child_pids() const;

 private:
  struct Entry {
    std::unique_ptr<DaemonClient> client;
    std::chrono::steady_clock::time_point last_used;
    // Prefix of added_texts_ shipped to this daemon; its ruleset version
    // is base_version + fragments_applied.
    std::size_t fragments_applied = 0;
  };

  // Pops an idle daemon or spawns one (restart bucket permitting); blocks
  // at the cap until `deadline`. Applies pending fragment updates before
  // handing the entry out.
  StatusOr<Entry> Checkout(util::Deadline deadline);
  // Under mu_: may a daemon be forked now? A spawn after a failure spends a
  // restart token.
  bool AdmitSpawnLocked();
  void Return(Entry entry);
  // Failed daemon: SIGKILL (no handshake — a hung daemon would stall the
  // graceful shutdown), reap, free its slot, count it under `outcome`
  // (spawn_failures, which also ends its spawn, or replaced) and, if
  // `stale`, under version_mismatches. The next spawn is a restart.
  void Discard(Entry entry, std::uint64_t PoolStats::*outcome,
               bool stale = false);

  // One complete attempt: checkout + round trip + return/discard.
  StatusOr<PtiVerdictWire> AttemptOnce(std::string_view query,
                                       util::Deadline deadline);

  // RAII in-flight marker: constructed after the shutdown check admits the
  // call, destroyed as the call's very last touch of pool state. Shutdown
  // waits for in_flight_ == 0, so the pool cannot be destroyed under a
  // racing call's feet.
  struct InFlight {
    DaemonPool* pool;
    explicit InFlight(DaemonPool* p) : pool(p) {}
    InFlight(const InFlight&) = delete;
    InFlight& operator=(const InFlight&) = delete;
    ~InFlight() {
      std::lock_guard<std::mutex> lock(pool->mu_);
      --pool->in_flight_;
      pool->cv_.notify_all();
    }
  };

  php::FragmentSet fragments_;   // grows with AddFragments; seeds spawns
  pti::PtiConfig config_;
  Options options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Entry> idle_;      // LIFO: the hottest daemon goes out first
  std::size_t live_ = 0;
  std::size_t spawning_ = 0;     // of live_: forked, handshake not yet done
  std::size_t in_flight_ = 0;    // Analyze/Ping calls between entry/exit
  bool shutdown_ = false;
  std::vector<std::string> added_texts_;  // broadcast log for late joiners
  resilience::TokenBucket restart_bucket_;
  // A spawn failed or a live daemon was discarded since the last daemon
  // went live: the next spawn is a restart.
  bool restart_pending_ = false;
  PoolStats stats_;
};

inline constexpr CounterField<DaemonPool::PoolStats> kPoolCounters[] = {
    {"spawned", &DaemonPool::PoolStats::spawned},
    {"replaced", &DaemonPool::PoolStats::replaced},
    {"reaped", &DaemonPool::PoolStats::reaped},
    {"analyzed", &DaemonPool::PoolStats::analyzed},
    {"failures", &DaemonPool::PoolStats::failures},
    {"waits", &DaemonPool::PoolStats::waits},
    {"deadline_misses", &DaemonPool::PoolStats::deadline_misses},
    {"version_mismatches", &DaemonPool::PoolStats::version_mismatches},
    {"target_version", &DaemonPool::PoolStats::target_version},
    {"spawn_failures", &DaemonPool::PoolStats::spawn_failures},
    {"restarts_denied", &DaemonPool::PoolStats::restarts_denied},
};
static_assert(sizeof(DaemonPool::PoolStats) ==
              std::size(kPoolCounters) * sizeof(std::uint64_t));

}  // namespace joza::ipc
