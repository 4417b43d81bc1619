#include "tenant/fleet.h"

#include <sys/stat.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "match/aho_corasick.h"
#include "util/mmap_resource.h"

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

// One tenant's full residency state. Tier fields (hot/cold/seed/version)
// are guarded by the fleet mutex except while `promoting` or `demoting` is
// set, in which case the flag owner manipulates them with the lock
// released and everyone else waits.
struct Fleet::TenantEntry {
  std::string id;

  // Hot tier: null while cold. shared_ptr so demotion can drop the
  // fleet's reference while in-flight pins keep the engine alive.
  std::shared_ptr<EngineHandle> hot;

  // Cold tier: the mmap'd JZSNAP01 image (authoritative once a demotion
  // has happened) or the seed vocabulary (before the first demotion).
  util::MmapResource cold;
  bool has_cold = false;
  php::FragmentSet seed;

  std::uint64_t version = 0;        // ruleset version while cold
  std::uint64_t bytes_estimate = 0; // next promotion's ledger charge
  std::uint64_t charged_bytes = 0;  // current ledger charge (0 when cold)

  bool resident = false;
  bool promoting = false;
  bool demoting = false;
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

Fleet::Fleet(FleetOptions options) : options_(std::move(options)) {
  if (options_.ewma_decay <= 0 || options_.ewma_decay > 1) {
    options_.ewma_decay = 0.98;
  }
  if (options_.max_concurrent_promotions == 0) {
    options_.max_concurrent_promotions = 1;
  }
  if (!options_.cold_dir.empty()) {
    ::mkdir(options_.cold_dir.c_str(), 0755);  // EEXIST is fine
    cold_dir_ready_ = true;
  }
}

Fleet::~Fleet() = default;

std::string Fleet::ColdPath(std::string_view id) const {
  std::string path = options_.cold_dir;
  path += '/';
  path.append(id);
  path += ".ruleset";
  return path;
}

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
  if (options_.memory_budget_bytes > 0 && options_.cold_dir.empty()) {
    return Status::InvalidArgument(
        "a memory budget requires a cold_dir to demote into");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const std::string key(id);
  if (tenants_.count(key) > 0) {
    return Status::InvalidArgument("duplicate tenant id: " + key);
  }
  auto entry = std::make_unique<TenantEntry>();
  entry->id = key;
  entry->seed = std::move(seed);
  if (!options_.snapshot_base.empty()) {
    auto recovered = resilience::LoadTenantRulesetSnapshot(
        options_.snapshot_base, id);
    if (recovered.ok()) {
      // Continue the persisted version line instead of the seed's zero.
      // Any load anomaly (corrupt file, checksum mismatch) falls through
      // to a cold start from the seed — the established snapshot-recovery
      // semantic; it narrows the vocabulary, never widens it.
      entry->seed = std::move(recovered.value().fragments);
      entry->version = recovered.value().version;
      entry->pending_snapshot_load = true;
    }
  }
  entry->bytes_estimate = EstimateHotBytes(entry->seed, options_.engine);
  tenants_.emplace(key, std::move(entry));
  return Status::Ok();
}

bool Fleet::Has(std::string_view id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenants_.count(std::string(id)) > 0;
}

std::vector<std::string> Fleet::TenantIds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> ids;
  ids.reserve(tenants_.size());
  for (const auto& [id, entry] : tenants_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

double Fleet::ScoreLocked(const TenantEntry& entry) const {
  const double decayed =
      entry.ewma * std::pow(options_.ewma_decay,
                            static_cast<double>(tick_ - entry.last_touch));
  // Knapsack value density: decayed access rate per resident byte. The
  // cheapest-to-keep tenant has the lowest score and is demoted first.
  return decayed /
         static_cast<double>(std::max<std::uint64_t>(entry.charged_bytes, 1));
}

Fleet::TenantEntry* Fleet::PickVictimLocked(const TenantEntry* exclude) {
  TenantEntry* victim = nullptr;
  double victim_score = 0;
  for (auto& [id, entry] : tenants_) {
    TenantEntry* e = entry.get();
    if (e == exclude || !e->hot || e->promoting || e->demoting) continue;
    const double score = ScoreLocked(*e);
    if (victim == nullptr || score < victim_score) {
      victim = e;
      victim_score = score;
    }
  }
  return victim;
}

Status Fleet::DemoteLocked(std::unique_lock<std::mutex>& lock,
                           TenantEntry& entry) {
  if (!entry.hot) return Status::Ok();
  entry.demoting = true;
  std::shared_ptr<EngineHandle> handle = entry.hot;  // alive across the I/O
  lock.unlock();

  // Serialize the tenant's published ruleset through the crash-durable
  // codec. The engine stays fully serviceable during the write — racing
  // checks hold their own pins — so nothing here is on any request's
  // critical path except the promoter waiting for the freed bytes.
  const std::shared_ptr<const core::RulesetSnapshot> snapshot =
      handle->engine->ruleset();
  const std::uint64_t version = snapshot->version;
  const std::string image =
      resilience::EncodeRulesetSnapshot(snapshot->pti->fragments(), version);
  const std::string path = ColdPath(entry.id);
  Status persisted = util::WriteFileDurable(path, image);
  util::MmapResource mapped;
  if (persisted.ok()) {
    auto m = util::MmapResource::Map(path);
    if (m.ok()) {
      mapped = std::move(m).value();
    } else {
      persisted = m.status();
    }
  }
  const core::JozaStats final_stats = handle->engine->stats();

  lock.lock();
  entry.demoting = false;
  if (!persisted.ok()) {
    // The cold store refused the image: keep the tenant hot (dropping the
    // engine would lose the vocabulary — fail-closed means refusing the
    // demotion, not the tenant's future requests).
    cv_.notify_all();
    return persisted;
  }
  entry.accum += final_stats;
  entry.version = version;
  entry.cold = std::move(mapped);
  entry.has_cold = true;
  entry.seed = php::FragmentSet();  // the cold image is authoritative now
  entry.bytes_estimate =
      EstimateHotBytes(snapshot->pti->fragments(), options_.engine);
  entry.hot.reset();  // in-flight pins keep the engine alive (RCU)
  entry.resident = false;
  resident_bytes_ -= entry.charged_bytes;
  entry.charged_bytes = 0;
  ++entry.demotions;
  ++demotions_;
  cv_.notify_all();
  return Status::Ok();
}

Status Fleet::ReserveLocked(std::unique_lock<std::mutex>& lock,
                            TenantEntry& self, std::uint64_t need) {
  if (options_.memory_budget_bytes == 0) return Status::Ok();
  while (resident_bytes_ + need > options_.memory_budget_bytes) {
    TenantEntry* victim = PickVictimLocked(&self);
    if (victim == nullptr) {
      bool any_demoting = false;
      for (const auto& [id, entry] : tenants_) {
        if (entry->demoting) {
          any_demoting = true;
          break;
        }
      }
      if (any_demoting) {
        // Someone else's demotion is about to free bytes; wait for it
        // rather than failing a request that is one eviction away.
        cv_.wait(lock);
        continue;
      }
      return Status::Unavailable(
          "memory budget cannot admit tenant " + self.id + " (" +
          std::to_string(need) + " bytes needed, " +
          std::to_string(options_.memory_budget_bytes -
                         std::min(resident_bytes_,
                                  options_.memory_budget_bytes)) +
          " free, nothing evictable)");
    }
    if (Status st = DemoteLocked(lock, *victim); !st.ok()) return st;
  }
  return Status::Ok();
}

StatusOr<std::shared_ptr<Fleet::EngineHandle>> Fleet::BuildHandle(
    TenantEntry& entry) {
  php::FragmentSet fragments;
  std::uint64_t version = entry.version;
  if (entry.has_cold) {
    // Promotion path: re-parse the ruleset straight out of the mapping.
    // Fail-closed: a corrupt image is an error, never an empty vocabulary.
    auto parsed = resilience::ParseRulesetSnapshot(entry.cold.view());
    if (!parsed.ok()) {
      return Status::Unavailable("tenant " + entry.id +
                                 " cold store unreadable: " +
                                 parsed.status().message());
    }
    fragments = std::move(parsed.value().fragments);
    version = parsed.value().version;
  } else {
    fragments = entry.seed;  // first promotion; seed kept until demoted
  }

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
  entry.ewma = entry.ewma * std::pow(options_.ewma_decay, idle_ticks) + 1.0;
  entry.last_touch = now;
  ++entry.requests;
  ++requests_;

  for (;;) {
    if (entry.hot) {
      // RCU pin: the shared_ptr keeps the whole handle (engine + daemon
      // pool) alive past any concurrent demotion.
      return EnginePin(entry.hot, entry.hot->engine.get());
    }
    if (entry.promoting || entry.demoting) {
      // Stampede coalescing: exactly one thread rebuilds; the rest wait
      // for its publish instead of racing duplicate automaton builds.
      ++promote_waits_;
      cv_.wait(lock);
      continue;
    }
    break;
  }

  // This thread owns the promotion. The global gate bounds concurrent
  // rebuilds fleet-wide so a cold-tenant stampede degrades to a queue,
  // not a fork-bomb of automaton constructions.
  entry.promoting = true;
  while (active_promotions_ >= options_.max_concurrent_promotions) {
    ++promote_waits_;
    cv_.wait(lock);
  }
  ++active_promotions_;

  const std::uint64_t need = entry.bytes_estimate;
  if (Status reserved = ReserveLocked(lock, entry, need); !reserved.ok()) {
    --active_promotions_;
    entry.promoting = false;
    ++acquire_failures_;
    cv_.notify_all();
    return reserved;
  }
  // Charge the ledger before building so a racing promoter sees the
  // reservation and evicts accordingly; the budget invariant holds at
  // every instant, not just between promotions.
  resident_bytes_ += need;
  entry.charged_bytes = need;
  peak_resident_bytes_ = std::max(peak_resident_bytes_, resident_bytes_);

  lock.unlock();
  auto built = BuildHandle(entry);
  lock.lock();

  --active_promotions_;
  entry.promoting = false;
  if (!built.ok()) {
    resident_bytes_ -= entry.charged_bytes;
    entry.charged_bytes = 0;
    ++acquire_failures_;
    cv_.notify_all();
    return built.status();
  }
  entry.hot = std::move(built).value();
  entry.resident = true;
  if (entry.pending_snapshot_load) {
    entry.hot->engine->NoteSnapshotLoad();
    entry.pending_snapshot_load = false;
  }
  ++entry.cold_loads;
  ++cold_loads_;
  cv_.notify_all();
  return EnginePin(entry.hot, entry.hot->engine.get());
}

Status Fleet::Demote(std::string_view id) {
  if (options_.cold_dir.empty()) {
    return Status::InvalidArgument("no cold_dir configured");
  }
  std::unique_lock<std::mutex> lock(mu_);
  auto it = tenants_.find(std::string(id));
  if (it == tenants_.end()) {
    return Status::NotFound("unknown tenant: " + std::string(id));
  }
  TenantEntry& entry = *it->second;
  while (entry.promoting || entry.demoting) cv_.wait(lock);
  return DemoteLocked(lock, entry);
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
                               " is cold; updates apply on promotion");
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

FleetStats Fleet::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  FleetStats out;
  out.tenants = tenants_.size();
  for (const auto& [id, entry] : tenants_) {
    if (entry->hot) ++out.resident;
  }
  out.budget_bytes = options_.memory_budget_bytes;
  out.resident_bytes = resident_bytes_;
  out.peak_resident_bytes = peak_resident_bytes_;
  out.requests = requests_;
  out.cold_loads = cold_loads_;
  out.demotions = demotions_;
  out.promote_waits = promote_waits_;
  out.acquire_failures = acquire_failures_;
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
