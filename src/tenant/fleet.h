// Multi-tenant engine fleet with tiered ruleset memory.
//
// One Joza deployment protecting many tenant applications cannot keep
// every tenant's Aho–Corasick automaton, verdict cache shards and PTI
// daemons hot in RAM. The Fleet owns one core::Joza engine per tenant and
// tiers them between two residency states:
//
//   hot   — full engine resident: automaton built, caches live, optional
//           per-tenant PTI daemon pool spun up.
//   cold  — only the tenant's fragment vocabulary and ruleset version stay,
//           in the fleet's own entry; the engine, caches and daemons are
//           gone. The vocabulary is small (the testbed's is ~1.4 KB of
//           text) next to what an engine builds from it.
//
// The residency manager runs a greedy knapsack/LRU hybrid under a
// configurable byte budget: every Acquire() bumps the tenant's EWMA hit
// rate and last-touch tick, and when admitting a tenant would overflow the
// budget, the resident tenant with the lowest decayed-rate-per-byte score
// is demoted first. A tenant the budget can never admit is refused before
// anyone is demoted. Promotion (cold → hot) moves the vocabulary into a
// freshly built engine — counted as a cold_load — and is bounded by a
// concurrency gate so a stampede of cold tenants cannot fork-bomb
// automaton rebuilds; concurrent acquirers of the SAME tenant coalesce on
// one rebuild. Demotion moves the published ruleset's vocabulary and
// version back into the entry. Neither step does I/O, so neither can fail.
//
// Safety properties:
//   * Verdict identity: demotion keeps the exact fragment vocabulary and
//     version, so a re-promoted tenant produces byte-identical verdicts.
//     Only cache warmth is lost.
//   * Fail-closed: an Acquire the budget cannot admit fails with an error
//     — the gateway answers 503; no request is ever served with a partial
//     or absent vocabulary (the paper's §IV-C).
//   * RCU pins: Acquire returns a shared_ptr pin. Demotion drops the
//     fleet's reference but in-flight checks keep theirs; the demoted
//     engine (and its daemon pool) is destroyed only when the last reader
//     drops the pin.
//
// Thread safety: every public method may be called from any number of
// threads (all gateway handlers route through one Fleet).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/joza.h"
#include "ipc/daemon_pool.h"
#include "phpsrc/fragments.h"
#include "resilience/snapshot.h"
#include "util/status.h"

namespace joza::tenant {

// Every request without an explicit tenant id routes here (back-compat
// with single-tenant deployments).
inline constexpr const char* kDefaultTenant =
    resilience::kDefaultTenantName;

inline constexpr std::size_t kMaxTenantIdBytes = 64;

// Tenant ids are snapshot file name components, so the grammar is strict:
// [A-Za-z0-9_-]{1,64}. No dots, no slashes — a hostile id cannot traverse
// out of the snapshot directory or collide with ".tmp" suffixes.
bool ValidTenantId(std::string_view id);

struct FleetOptions {
  // Engine template: every tenant engine is built with this config (the
  // per-tenant initial_ruleset_version is filled in by the fleet).
  core::JozaConfig engine;
  // Resident-set byte budget. 0 = unbudgeted: every tenant stays hot
  // forever (the back-compat shape — and the reference a budgeted run's
  // verdicts are gated against).
  std::uint64_t memory_budget_bytes = 0;
  // Per-tenant PTI daemon pools, spun up lazily with the engine on
  // promotion and torn down with it on demotion (idle tenant daemons cost
  // nothing once their tenant goes cold).
  bool use_daemon_pool = false;
  ipc::DaemonPool::Options pool;
  // When non-empty, tenants warm-start from (and persist to) the
  // tenant-qualified snapshot path <snapshot_base>.<tenant>.
  std::string snapshot_base;
};

// One tenant's externally visible accounting.
struct TenantInfo {
  std::string id;
  bool resident = false;
  std::uint64_t ruleset_version = 0;
  std::uint64_t resident_bytes = 0;  // ledger charge while resident
  std::uint64_t requests = 0;        // Acquires routed to this tenant
  std::uint64_t cold_loads = 0;      // promotions (first touch + re-entry)
  std::uint64_t demotions = 0;
  core::JozaStats engine;  // accumulated across residency generations

  // The numeric fields above, in kTenantCounters order.
  CounterList Counters() const;
};

inline constexpr CounterField<TenantInfo> kTenantCounters[] = {
    {"ruleset_version", &TenantInfo::ruleset_version},
    {"resident_bytes", &TenantInfo::resident_bytes},
    {"requests", &TenantInfo::requests},
    {"cold_loads", &TenantInfo::cold_loads},
    {"demotions", &TenantInfo::demotions},
};

struct FleetStats {
  std::uint64_t tenants = 0;
  std::uint64_t resident = 0;
  std::uint64_t budget_bytes = 0;
  std::uint64_t resident_bytes = 0;       // current ledger total
  std::uint64_t peak_resident_bytes = 0;  // high-water mark of the ledger
  std::uint64_t requests = 0;
  std::uint64_t cold_loads = 0;
  std::uint64_t demotions = 0;
  std::uint64_t promote_waits = 0;     // stampede-coalesced + gate waits
  std::uint64_t acquire_failures = 0;  // budget refusals

  CounterList Counters() const;
};

inline constexpr CounterField<FleetStats> kFleetCounters[] = {
    {"tenants", &FleetStats::tenants},
    {"resident", &FleetStats::resident},
    {"budget_bytes", &FleetStats::budget_bytes},
    {"resident_bytes", &FleetStats::resident_bytes},
    {"peak_resident_bytes", &FleetStats::peak_resident_bytes},
    {"requests", &FleetStats::requests},
    {"cold_loads", &FleetStats::cold_loads},
    {"demotions", &FleetStats::demotions},
    {"promote_waits", &FleetStats::promote_waits},
    {"acquire_failures", &FleetStats::acquire_failures},
};
static_assert(sizeof(FleetStats) ==
              std::size(kFleetCounters) * sizeof(std::uint64_t));

class Fleet {
 public:
  // A pinned hot engine. Holding the pin keeps the engine (and its daemon
  // pool) alive even across a concurrent demotion — RCU semantics, like
  // the engine's own ruleset snapshots.
  using EnginePin = std::shared_ptr<core::Joza>;

  explicit Fleet(FleetOptions options);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // Registers a tenant with its seed vocabulary. Tenants start cold
  // (lazy: nothing is built until the first Acquire). When snapshot_base
  // is set, a persisted <snapshot_base>.<tenant> snapshot warm-starts the
  // vocabulary and version.
  Status AddTenant(std::string_view id, php::FragmentSet seed);

  bool Has(std::string_view id) const;

  // Routes one request to `id`: bumps its access stats and returns a pin
  // on its hot engine, promoting — and demoting victims — as needed.
  // Fail-closed: NotFound for unknown tenants, Unavailable when the budget
  // cannot admit the tenant even after demoting every resident one.
  StatusOr<EnginePin> Acquire(std::string_view id);

  // Forces a tenant cold (ops hook / tests). No-op if already cold;
  // NotFound for unknown tenants.
  Status Demote(std::string_view id);

  // Folds new sources into a tenant's published ruleset (hot tenants
  // only; a cold tenant answers Unavailable).
  Status OnSourcesChanged(std::string_view id,
                          const std::vector<php::SourceFile>& files);

  // Reaps idle daemons across every resident tenant's pool.
  void ReapIdle();

  FleetStats stats() const;
  // Per-tenant accounting, id-sorted (CLI stats dump, tests).
  std::vector<TenantInfo> TenantInfos() const;
  // Engine counters summed across all tenants, resident or not.
  core::JozaStats AggregateEngineStats() const;

  // Conservative byte estimate for one tenant's hot footprint (exposed so
  // benches can size budgets in engine-estimate units).
  static std::uint64_t EstimateHotBytes(const php::FragmentSet& fragments,
                                        const core::JozaConfig& config);

 private:
  struct TenantEntry;

  // The engine plus its lifecycle dependents, destroyed together when the
  // last pin drops. Declaration order matters: the pool must outlive the
  // engine (the engine's PTI backend calls into it), so it is declared
  // first and destroyed last.
  struct EngineHandle {
    std::unique_ptr<ipc::DaemonPool> pool;
    std::unique_ptr<core::Joza> engine;
    ~EngineHandle();
  };

  // Builds a hot handle, moving `entry`'s vocabulary into the engine.
  // Called with the fleet lock released; the entry's promoting flag keeps
  // its tier fields stable.
  std::shared_ptr<EngineHandle> BuildHandle(TenantEntry& entry);
  // Moves the published ruleset's vocabulary and version back into
  // `entry` and drops the hot handle. Lock held.
  void DemoteLocked(TenantEntry& entry);
  // Evicts lowest-score residents until `need` more bytes fit, or refuses
  // at once, demoting no one, when they never can. Lock held.
  Status ReserveLocked(const TenantEntry& self, std::uint64_t need);
  TenantEntry* PickVictimLocked();
  double ScoreLocked(const TenantEntry& entry) const;

  FleetOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  // unique_ptr entries: stable addresses across rehashing, so waiting
  // promoters can hold TenantEntry* across cv waits.
  std::unordered_map<std::string, std::unique_ptr<TenantEntry>> tenants_;
  std::uint64_t tick_ = 0;  // advances per Acquire; drives EWMA decay
  std::size_t active_promotions_ = 0;

  // Ledger and counters (guarded by mu_); stats() fills in tenants,
  // resident and budget_bytes.
  FleetStats stats_;
};

}  // namespace joza::tenant
