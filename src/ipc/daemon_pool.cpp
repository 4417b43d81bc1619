#include "ipc/daemon_pool.h"

#include <algorithm>
#include <utility>

namespace joza::ipc {

DaemonPool::DaemonPool(php::FragmentSet fragments, Options options,
                       pti::PtiConfig config)
    : fragments_(std::move(fragments)),
      config_(config),
      options_(options),
      restart_bucket_({options.supervisor.restart_budget, kRestartRefillPerSec},
                      std::chrono::steady_clock::now()) {
  if (options_.max_size == 0) options_.max_size = 1;
  options_.min_size = std::min(options_.min_size, options_.max_size);
}

DaemonPool::~DaemonPool() { Shutdown(); }

bool DaemonPool::AdmitSpawnLocked() {
  if (!restart_pending_ || options_.supervisor.restart_budget <= 0) {
    return true;
  }
  if (restart_bucket_.TryWithdraw(1.0, std::chrono::steady_clock::now())) {
    return true;
  }
  ++stats_.restarts_denied;
  return false;
}

StatusOr<DaemonPool::Entry> DaemonPool::Checkout(util::Deadline deadline) {
  std::unique_lock<std::mutex> lock(mu_);
  bool counted_wait = false;
  while (idle_.empty()) {
    if (shutdown_) return Status::Unavailable("daemon pool is shut down");
    if (live_ < options_.max_size) {
      if (AdmitSpawnLocked()) {
        ++live_;
        ++spawning_;
        // Copy the fragment set under the lock; fork and handshake outside
        // it so a slow spawn never stalls the whole pool.
        php::FragmentSet fragments = fragments_;
        Entry entry;
        entry.fragments_applied = added_texts_.size();
        const std::uint64_t seed_version =
            options_.base_version + entry.fragments_applied;
        lock.unlock();
        entry.client = std::make_unique<DaemonClient>(
            DaemonClient::Mode::kPersistent, std::move(fragments), config_,
            /*initial_version=*/seed_version);
        // Version handshake: the fresh daemon must report the version it
        // was seeded with; anything else is a stale or broken replica.
        auto reported = entry.client->Handshake(deadline);
        if (!reported.ok()) {
          Discard(std::move(entry), &PoolStats::spawn_failures);
          return reported.status();
        }
        if (reported.value() != seed_version) {
          Discard(std::move(entry), &PoolStats::spawn_failures, true);
          return Status::Internal("stale daemon: version handshake mismatch");
        }
        lock.lock();
        --spawning_;
        ++stats_.spawned;
        restart_pending_ = false;
        return entry;
      }
      // The restart bucket is empty. Wait only for a live daemon that is
      // checked out and can come back (a spawn still in flight may never
      // go live); with none, fail now and let the engine's breaker take
      // the storm.
      if (live_ == spawning_) {
        return Status::Unavailable("restart budget exhausted");
      }
    }
    if (deadline.finite() && deadline.expired()) {
      return Status::DeadlineExceeded("daemon checkout deadline");
    }
    if (!counted_wait) {
      ++stats_.waits;
      counted_wait = true;
    }
    if (deadline.finite()) {
      cv_.wait_until(lock, deadline.point());
    } else {
      cv_.wait(lock);
    }
  }

  Entry entry = std::move(idle_.back());
  idle_.pop_back();

  // Ship fragment updates this daemon has not seen yet; the update names
  // the exact version the daemon must land on and the Ack echoes it back.
  std::vector<std::string> pending(
      added_texts_.begin() +
          static_cast<std::ptrdiff_t>(entry.fragments_applied),
      added_texts_.end());
  const std::uint64_t target = options_.base_version + added_texts_.size();
  entry.fragments_applied = added_texts_.size();
  lock.unlock();
  if (!pending.empty()) {
    auto acked = entry.client->AddFragmentsAt(pending, target, deadline);
    if (!acked.ok()) {
      Discard(std::move(entry), &PoolStats::replaced);
      return acked.status();
    }
    if (acked.value() != target) {
      Discard(std::move(entry), &PoolStats::replaced, true);
      return Status::Internal("stale daemon: update ack version mismatch");
    }
  }
  return entry;
}

void DaemonPool::Return(Entry entry) {
  entry.last_used = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(mu_);
  if (shutdown_) {
    --live_;
    lock.unlock();
    cv_.notify_all();
    return;  // entry destructor shuts the daemon down
  }
  idle_.push_back(std::move(entry));
  lock.unlock();
  cv_.notify_one();
  ReapIdle();
}

void DaemonPool::Discard(Entry entry, std::uint64_t PoolStats::*outcome,
                         bool stale) {
  // SIGKILL, no handshake: a hung daemon would stall the graceful shutdown
  // for its full 500 ms bound — and a dead one cannot answer anyway.
  if (entry.client) entry.client->Kill();
  {
    std::lock_guard<std::mutex> lock(mu_);
    --live_;
    if (outcome == &PoolStats::spawn_failures) --spawning_;
    ++(stats_.*outcome);
    if (stale) ++stats_.version_mismatches;
    restart_pending_ = true;
  }
  cv_.notify_all();  // blocked checkouts (or Shutdown) may proceed
}

StatusOr<PtiVerdictWire> DaemonPool::AttemptOnce(std::string_view query,
                                                 util::Deadline deadline) {
  auto entry = Checkout(deadline);
  if (!entry.ok()) {
    if (entry.status().code() == StatusCode::kDeadlineExceeded) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.deadline_misses;
    }
    return entry.status();
  }
  auto wire = entry->client->Analyze(query, deadline);
  if (wire.ok()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.analyzed;
    }
    Return(std::move(entry).value());
    return wire;
  }
  if (wire.status().code() == StatusCode::kDeadlineExceeded) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.deadline_misses;
  }
  // The daemon died or hung mid-flight: kill it and free its slot; the
  // restart bucket decides whether a replacement may spawn.
  Discard(std::move(entry).value(), &PoolStats::replaced);
  return wire.status();
}

StatusOr<PtiVerdictWire> DaemonPool::Analyze(std::string_view query,
                                             util::Deadline deadline) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return Status::Unavailable("daemon pool is shut down");
    ++in_flight_;
  }
  InFlight flight(this);
  Status last = Status::Unavailable("PTI daemon unreachable after retry");
  for (int attempt = 0; attempt < 2; ++attempt) {
    // Each attempt gets at most per_call_timeout; the retry runs on
    // whatever remains of the caller's budget.
    util::Deadline attempt_deadline = deadline;
    if (options_.per_call_timeout.count() > 0) {
      attempt_deadline = util::Deadline::EarlierOf(
          deadline, util::Deadline::After(options_.per_call_timeout));
    }
    if (attempt_deadline.expired()) {
      last = Status::DeadlineExceeded("PTI deadline budget exhausted");
      break;
    }
    auto wire = AttemptOnce(query, attempt_deadline);
    if (wire.ok()) return wire;
    last = wire.status();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.failures;
  }
  return last;
}

Status DaemonPool::Ping(util::Deadline deadline) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return Status::Unavailable("daemon pool is shut down");
    ++in_flight_;
  }
  InFlight flight(this);
  auto entry = Checkout(deadline);
  if (!entry.ok()) return entry.status();
  Status st = entry->client->Ping(deadline);
  if (st.ok()) {
    Return(std::move(entry).value());
  } else {
    Discard(std::move(entry).value(), &PoolStats::replaced);
  }
  return st;
}

Status DaemonPool::AddFragments(
    const std::vector<std::string>& fragment_texts) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) return Status::Unavailable("daemon pool is shut down");
  for (const std::string& f : fragment_texts) {
    fragments_.AddRaw(f);
    added_texts_.push_back(f);
  }
  // Idle daemons pick the delta up at their next checkout (lazy broadcast);
  // nothing round-trips while the lock is held.
  return Status::Ok();
}

core::PtiFn DaemonPool::AsPtiBackend() {
  return [this](std::string_view query, const std::vector<sql::Token>& tokens,
                util::Deadline deadline) -> StatusOr<pti::PtiResult> {
    auto wire = Analyze(query, deadline);
    if (!wire.ok()) {
      // No verdict: surface the error — the engine's breaker/degraded
      // policy decides (fail closed by default).
      return wire.status();
    }
    pti::PtiResult result;
    result.attack_detected = wire->attack_detected;
    result.hits = wire->hits;
    result.fragments_scanned = wire->fragments_scanned;
    result.ruleset_version = wire->ruleset_version;
    if (wire->attack_detected) {
      for (const sql::Token& t : tokens) {
        for (const std::string& text : wire->untrusted_texts) {
          if (t.IsCritical() && t.text == text) {
            result.untrusted_critical_tokens.push_back(t);
            break;
          }
        }
      }
    }
    return result;
  };
}

void DaemonPool::ReapIdle() {
  std::vector<Entry> victims;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto now = std::chrono::steady_clock::now();
    // Oldest entries sit at the front of the LIFO stack.
    while (live_ > options_.min_size && !idle_.empty() &&
           now - idle_.front().last_used > options_.idle_timeout) {
      victims.push_back(std::move(idle_.front()));
      idle_.erase(idle_.begin());
      --live_;
      ++stats_.reaped;
    }
  }
  victims.clear();  // daemon shutdowns happen outside the lock
}

void DaemonPool::Shutdown() {
  std::vector<Entry> victims;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (shutdown_ && live_ == 0 && in_flight_ == 0) return;
    shutdown_ = true;
    victims = std::move(idle_);
    idle_.clear();
    live_ -= victims.size();
    cv_.notify_all();
    // Checked-out daemons drain through Return/Discard (which decrement
    // live_ under shutdown_) and the calls themselves drain through the
    // InFlight guards; their bounded deadlines guarantee progress. Waiting
    // for both means no racing thread can still touch pool state after
    // Shutdown returns, so destruction is safe.
    cv_.wait(lock, [&] { return live_ == 0 && in_flight_ == 0; });
  }
  victims.clear();
}

CounterList DaemonPool::PoolStats::Counters() const {
  return ExportCounters(*this, kPoolCounters);
}

DaemonPool::PoolStats DaemonPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PoolStats out = stats_;
  out.target_version = options_.base_version + added_texts_.size();
  return out;
}

std::uint64_t DaemonPool::target_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return options_.base_version + added_texts_.size();
}

php::FragmentSet DaemonPool::fragment_snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fragments_;
}

std::vector<std::uint64_t> DaemonPool::idle_versions() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::uint64_t> versions;
  versions.reserve(idle_.size());
  for (const Entry& e : idle_) {
    versions.push_back(options_.base_version + e.fragments_applied);
  }
  return versions;
}

std::size_t DaemonPool::live() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_;
}

std::size_t DaemonPool::idle() const {
  std::lock_guard<std::mutex> lock(mu_);
  return idle_.size();
}

std::vector<int> DaemonPool::child_pids() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> pids;
  pids.reserve(idle_.size());
  for (const Entry& e : idle_) pids.push_back(e.client->child_pid());
  return pids;
}

}  // namespace joza::ipc
