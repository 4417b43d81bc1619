#include "tenant/fleet.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "match/aho_corasick.h"

namespace joza::tenant {

namespace {

// Hot-footprint model, deliberately coarse but self-consistent: the
// residency ledger charges and refunds the same estimate, so the budget
// invariant (ledger <= budget) holds exactly regardless of how closely the
// model tracks real RSS. The dominant term is the PTI Aho–Corasick
// automaton, whose byte bound match/ owns; the per-tenant floor covers
// engine bookkeeping, and the cache term covers the sharded verdict caches
// at capacity.
constexpr std::uint64_t kTenantBaseBytes = 64 * 1024;
constexpr std::uint64_t kBytesPerCacheSlot = 32;

// Per-tick decay of the EWMA access rate (the LRU half of the eviction
// score; the rate-per-byte ratio is the knapsack half).
constexpr double kEwmaDecay = 0.98;

// Bound on concurrent cold→hot rebuilds (the stampede gate).
constexpr std::size_t kMaxConcurrentPromotions = 2;

}  // namespace

bool ValidTenantId(std::string_view id) {
  if (id.empty() || id.size() > kMaxTenantIdBytes) return false;
  for (const char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

// One tenant's full residency state. Tier fields (hot/fragments/version)
// are guarded by the fleet mutex except while `promoting` is set, in which
// case the promoter reads them with the lock released and everyone else
// waits.
struct Fleet::TenantEntry {
  std::string id;

  // Hot tier: null while cold. shared_ptr so demotion can drop the
  // fleet's reference while in-flight pins keep the engine alive.
  std::shared_ptr<EngineHandle> hot;

  // Cold tier: the vocabulary and its ruleset version — the seed (or its
  // warm-start snapshot) before the first promotion, the published
  // ruleset after each demotion. Moved into the engine on promotion, so
  // empty while hot.
  php::FragmentSet fragments;
  std::uint64_t version = 0;

  std::uint64_t bytes_estimate = 0;  // next promotion's ledger charge
  std::uint64_t charged_bytes = 0;   // current ledger charge (0 when cold)

  bool promoting = false;
  bool pending_snapshot_load = false;  // warm start not yet counted

  // Access accounting for the eviction score.
  double ewma = 0;
  std::uint64_t last_touch = 0;

  std::uint64_t requests = 0;
  std::uint64_t cold_loads = 0;
  std::uint64_t demotions = 0;
  core::JozaStats accum;  // engine stats from completed residencies
};

Fleet::EngineHandle::~EngineHandle() = default;

Fleet::Fleet(FleetOptions options) : options_(std::move(options)) {}

Fleet::~Fleet() = default;

std::uint64_t Fleet::EstimateHotBytes(const php::FragmentSet& fragments,
                                      const core::JozaConfig& config) {
  std::size_t pattern_bytes = 0;
  std::array<bool, 256> seen{};
  for (const php::Fragment& f : fragments.fragments()) {
    pattern_bytes += f.text.size();
    for (const unsigned char c : f.text) seen[c] = true;
  }
  const auto distinct_bytes =
      static_cast<std::size_t>(std::count(seen.begin(), seen.end(), true));
  const std::uint64_t automaton =
      match::AhoCorasick::EstimateMemoryBytes(pattern_bytes, distinct_bytes);
  return kTenantBaseBytes + automaton +
         static_cast<std::uint64_t>(config.cache_capacity) *
             kBytesPerCacheSlot;
}

Status Fleet::AddTenant(std::string_view id, php::FragmentSet seed) {
  if (!ValidTenantId(id)) {
    return Status::InvalidArgument("invalid tenant id: \"" +
                                   std::string(id) + "\"");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const std::string key(id);
  if (tenants_.count(key) > 0) {
    return Status::InvalidArgument("duplicate tenant id: " + key);
  }
  auto entry = std::make_unique<TenantEntry>();
  entry->id = key;
  entry->fragments = std::move(seed);
  if (!options_.snapshot_base.empty()) {
    auto recovered = resilience::LoadRulesetSnapshot(
        resilience::TenantSnapshotPath(options_.snapshot_base, id));
    if (recovered.ok()) {
      // Continue the persisted version line instead of the seed's zero.
      // Any load anomaly (corrupt file, checksum mismatch) falls through
      // to a cold start from the seed — the established snapshot-recovery
      // semantic; it narrows the vocabulary, never widens it.
      entry->fragments = std::move(recovered.value().fragments);
      entry->version = recovered.value().version;
      entry->pending_snapshot_load = true;
    }
  }
  entry->bytes_estimate = EstimateHotBytes(entry->fragments, options_.engine);
  tenants_.emplace(key, std::move(entry));
  return Status::Ok();
}

bool Fleet::Has(std::string_view id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenants_.count(std::string(id)) > 0;
}

double Fleet::ScoreLocked(const TenantEntry& entry) const {
  const double idle_ticks = static_cast<double>(tick_ - entry.last_touch);
  const double decayed = entry.ewma * std::pow(kEwmaDecay, idle_ticks);
  // Knapsack value density: decayed access rate per resident byte. The
  // cheapest-to-keep tenant has the lowest score and is demoted first.
  return decayed /
         static_cast<double>(std::max<std::uint64_t>(entry.charged_bytes, 1));
}

Fleet::TenantEntry* Fleet::PickVictimLocked() {
  TenantEntry* victim = nullptr;
  double victim_score = 0;
  for (auto& [id, entry] : tenants_) {
    TenantEntry* e = entry.get();
    if (!e->hot) continue;
    const double score = ScoreLocked(*e);
    if (victim == nullptr || score < victim_score) {
      victim = e;
      victim_score = score;
    }
  }
  return victim;
}

void Fleet::DemoteLocked(TenantEntry& entry) {
  if (!entry.hot) return;
  // A copy, not a move: pinned checks may still be running on this ruleset.
  const std::shared_ptr<const core::RulesetSnapshot> ruleset =
      entry.hot->engine->ruleset();
  entry.fragments = ruleset->pti->fragments();
  entry.version = ruleset->version;
  entry.bytes_estimate = EstimateHotBytes(entry.fragments, options_.engine);
  entry.accum += entry.hot->engine->stats();
  entry.hot.reset();  // in-flight pins keep the engine alive (RCU)
  stats_.resident_bytes -= entry.charged_bytes;
  entry.charged_bytes = 0;
  ++entry.demotions;
  ++stats_.demotions;
}

Status Fleet::ReserveLocked(const TenantEntry& self, std::uint64_t need) {
  const std::uint64_t budget = options_.memory_budget_bytes;
  if (budget == 0) return Status::Ok();
  // Only resident tenants can be demoted; the rest of the ledger is held by
  // promotions in flight. When even an empty resident set leaves no room,
  // refuse before demoting anyone.
  std::uint64_t in_flight = stats_.resident_bytes;
  for (const auto& [id, entry] : tenants_) {
    if (entry->hot) in_flight -= entry->charged_bytes;
  }
  if (in_flight + need > budget) {
    return Status::Unavailable(
        "memory budget cannot admit tenant " + self.id + " (" +
        std::to_string(need) + " bytes needed, " + std::to_string(in_flight) +
        " of " + std::to_string(budget) + " held by promotions in flight)");
  }
  // Resident charges exceed what is missing, so a victim always exists.
  while (stats_.resident_bytes + need > budget) {
    DemoteLocked(*PickVictimLocked());
  }
  return Status::Ok();
}

std::shared_ptr<Fleet::EngineHandle> Fleet::BuildHandle(TenantEntry& entry) {
  const std::uint64_t version = entry.version;
  php::FragmentSet fragments = std::move(entry.fragments);
  auto handle = std::make_shared<EngineHandle>();
  core::JozaConfig config = options_.engine;
  config.initial_ruleset_version = version;
  if (options_.use_daemon_pool) {
    ipc::DaemonPool::Options pool_options = options_.pool;
    pool_options.base_version = version;
    handle->pool = std::make_unique<ipc::DaemonPool>(fragments, pool_options,
                                                     config.pti);
  }
  handle->engine =
      std::make_unique<core::Joza>(std::move(fragments), config);
  if (handle->pool) {
    handle->engine->SetPtiBackend(handle->pool->AsPtiBackend());
  }
  if (!options_.snapshot_base.empty()) {
    const std::string path =
        resilience::TenantSnapshotPath(options_.snapshot_base, entry.id);
    handle->engine->SetSnapshotSink(
        [path](const php::FragmentSet& fragments, std::uint64_t version) {
          return resilience::SaveRulesetSnapshot(path, fragments, version);
        });
  }
  return handle;
}

StatusOr<Fleet::EnginePin> Fleet::Acquire(std::string_view id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = tenants_.find(std::string(id));
  if (it == tenants_.end()) {
    return Status::NotFound("unknown tenant: " + std::string(id));
  }
  TenantEntry& entry = *it->second;

  const std::uint64_t now = ++tick_;
  const double idle_ticks = static_cast<double>(now - entry.last_touch);
  entry.ewma = entry.ewma * std::pow(kEwmaDecay, idle_ticks) + 1.0;
  entry.last_touch = now;
  ++entry.requests;
  ++stats_.requests;

  for (;;) {
    if (entry.hot) {
      // RCU pin: the shared_ptr keeps the whole handle (engine + daemon
      // pool) alive past any concurrent demotion.
      return EnginePin(entry.hot, entry.hot->engine.get());
    }
    if (!entry.promoting) break;
    // Stampede coalescing: exactly one thread rebuilds; the rest wait for
    // its publish instead of racing duplicate automaton builds.
    ++stats_.promote_waits;
    cv_.wait(lock);
  }

  // This thread owns the promotion. The global gate bounds concurrent
  // rebuilds fleet-wide so a cold-tenant stampede degrades to a queue,
  // not a fork-bomb of automaton constructions.
  entry.promoting = true;
  while (active_promotions_ >= kMaxConcurrentPromotions) {
    ++stats_.promote_waits;
    cv_.wait(lock);
  }
  ++active_promotions_;

  const std::uint64_t need = entry.bytes_estimate;
  if (Status reserved = ReserveLocked(entry, need); !reserved.ok()) {
    --active_promotions_;
    entry.promoting = false;
    ++stats_.acquire_failures;
    cv_.notify_all();
    return reserved;
  }
  // Charge the ledger before building so a racing promoter sees the
  // reservation and evicts accordingly; the budget invariant holds at
  // every instant, not just between promotions.
  stats_.resident_bytes += need;
  entry.charged_bytes = need;
  stats_.peak_resident_bytes =
      std::max(stats_.peak_resident_bytes, stats_.resident_bytes);

  lock.unlock();
  std::shared_ptr<EngineHandle> built = BuildHandle(entry);
  lock.lock();

  --active_promotions_;
  entry.promoting = false;
  entry.hot = std::move(built);
  if (entry.pending_snapshot_load) {
    entry.hot->engine->NoteSnapshotLoad();
    entry.pending_snapshot_load = false;
  }
  ++entry.cold_loads;
  ++stats_.cold_loads;
  cv_.notify_all();
  return EnginePin(entry.hot, entry.hot->engine.get());
}

Status Fleet::Demote(std::string_view id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = tenants_.find(std::string(id));
  if (it == tenants_.end()) {
    return Status::NotFound("unknown tenant: " + std::string(id));
  }
  TenantEntry& entry = *it->second;
  while (entry.promoting) cv_.wait(lock);
  DemoteLocked(entry);
  return Status::Ok();
}

Status Fleet::OnSourcesChanged(std::string_view id,
                               const std::vector<php::SourceFile>& files) {
  std::shared_ptr<EngineHandle> handle;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tenants_.find(std::string(id));
    if (it == tenants_.end()) {
      return Status::NotFound("unknown tenant: " + std::string(id));
    }
    handle = it->second->hot;
  }
  if (!handle) {
    return Status::Unavailable("tenant " + std::string(id) +
                               " is cold; Acquire it before updating");
  }
  handle->engine->OnSourcesChanged(files);
  return Status::Ok();
}

void Fleet::ReapIdle() {
  std::vector<std::shared_ptr<EngineHandle>> handles;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, entry] : tenants_) {
      if (entry->hot && entry->hot->pool) handles.push_back(entry->hot);
    }
  }
  for (const auto& handle : handles) handle->pool->ReapIdle();
}

CounterList TenantInfo::Counters() const {
  return ExportCounters(*this, kTenantCounters);
}

CounterList FleetStats::Counters() const {
  return ExportCounters(*this, kFleetCounters);
}

FleetStats Fleet::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  FleetStats out = stats_;
  out.tenants = tenants_.size();
  for (const auto& [id, entry] : tenants_) {
    if (entry->hot) ++out.resident;
  }
  out.budget_bytes = options_.memory_budget_bytes;
  return out;
}

std::vector<TenantInfo> Fleet::TenantInfos() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TenantInfo> infos;
  infos.reserve(tenants_.size());
  for (const auto& [id, entry] : tenants_) {
    TenantInfo info;
    info.id = id;
    info.resident = entry->hot != nullptr;
    info.resident_bytes = entry->charged_bytes;
    info.requests = entry->requests;
    info.cold_loads = entry->cold_loads;
    info.demotions = entry->demotions;
    info.engine = entry->accum;
    if (entry->hot) {
      info.engine += entry->hot->engine->stats();
      info.ruleset_version = entry->hot->engine->ruleset_version();
    } else {
      info.ruleset_version = entry->version;
    }
    infos.push_back(std::move(info));
  }
  std::sort(infos.begin(), infos.end(),
            [](const TenantInfo& a, const TenantInfo& b) {
              return a.id < b.id;
            });
  return infos;
}

core::JozaStats Fleet::AggregateEngineStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  core::JozaStats out;
  for (const auto& [id, entry] : tenants_) {
    out += entry->accum;
    if (entry->hot) out += entry->hot->engine->stats();
  }
  return out;
}

}  // namespace joza::tenant
