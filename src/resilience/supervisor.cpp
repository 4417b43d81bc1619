#include "resilience/supervisor.h"

#include <algorithm>

namespace joza::resilience {

const char* SupervisorStateName(SupervisorState state) {
  switch (state) {
    case SupervisorState::kHealthy: return "healthy";
    case SupervisorState::kBackoff: return "backoff";
    case SupervisorState::kQuarantined: return "quarantined";
  }
  return "?";
}

CounterList SupervisorStats::Counters() const {
  return ExportCounters(*this, kSupervisorCounters);
}

DaemonSupervisor::DaemonSupervisor(SupervisorOptions options)
    : options_(options),
      backoff_(options.backoff),
      restart_bucket_(
          TokenBucketOptions{options.restart_budget,
                             options.restart_refill_per_sec, -1},
          Clock::now()) {
  if (options_.flap_threshold == 0) options_.flap_threshold = 1;
}

Status DaemonSupervisor::AdmitSpawn() {
  if (!enabled()) return Status::Ok();
  std::lock_guard<std::mutex> lock(mu_);
  const auto now = Clock::now();

  if (state_ == SupervisorState::kQuarantined) {
    if (now < quarantined_until_ || probe_outstanding_) {
      ++stats_.restarts_denied;
      return Status::Unavailable("PTI shard quarantined");
    }
    // Quarantine lapsed: exactly one probe spawn races out; its outcome
    // (RecordSpawnSuccess / a failure report) decides recovery.
    probe_outstanding_ = true;
    ++stats_.quarantine_probes;
    ++stats_.spawns_admitted;
    ++stats_.restarts;
    return Status::Ok();
  }

  const bool restart = failures_since_success_ > 0;
  if (restart) {
    if (!backoff_.AllowedAt(now)) {
      ++stats_.restarts_denied;
      return Status::Unavailable("respawn backoff in effect");
    }
    if (!restart_bucket_.TryWithdraw(1.0, now)) {
      ++stats_.restarts_denied;
      return Status::Unavailable("restart budget exhausted");
    }
    ++stats_.restarts;
  }
  ++stats_.spawns_admitted;
  return Status::Ok();
}

void DaemonSupervisor::RecordSpawnSuccess() {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  backoff_.Reset();
  failures_since_success_ = 0;
  recent_failures_.clear();
  if (state_ == SupervisorState::kQuarantined) {
    ++stats_.recoveries;
    probe_outstanding_ = false;
  }
  state_ = SupervisorState::kHealthy;
}

void DaemonSupervisor::RecordSpawnFailure() {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  const auto now = Clock::now();
  ++stats_.spawn_failures;
  backoff_.RecordFailure(now);
  NoteFailureLocked(now);
}

void DaemonSupervisor::RecordCrash() {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  // A crash of a previously-live daemon charges flap detection and the
  // restart budget (via failures_since_success_) but not the backoff
  // clock: one isolated crash must not delay its replacement.
  ++stats_.crashes;
  NoteFailureLocked(Clock::now());
}

void DaemonSupervisor::NoteFailureLocked(Clock::time_point now) {
  ++failures_since_success_;
  recent_failures_.push_back(now);
  const auto cutoff = now - options_.flap_window;
  recent_failures_.erase(
      std::remove_if(recent_failures_.begin(), recent_failures_.end(),
                     [&](Clock::time_point t) { return t < cutoff; }),
      recent_failures_.end());

  if (state_ == SupervisorState::kQuarantined) {
    // The recovery probe failed: straight back into quarantine for another
    // full period.
    if (probe_outstanding_) {
      probe_outstanding_ = false;
      quarantined_until_ = now + options_.quarantine;
      ++stats_.quarantines;
    }
    return;
  }
  if (recent_failures_.size() >= options_.flap_threshold) {
    state_ = SupervisorState::kQuarantined;
    quarantined_until_ = now + options_.quarantine;
    probe_outstanding_ = false;
    ++stats_.quarantines;
    recent_failures_.clear();
    return;
  }
  state_ = SupervisorState::kBackoff;
}

SupervisorState DaemonSupervisor::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

bool DaemonSupervisor::quarantined() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ != SupervisorState::kQuarantined) return false;
  // Once the period lapses the shard is probe-able: callers should fall
  // through to AdmitSpawn instead of failing fast.
  return Clock::now() < quarantined_until_ || probe_outstanding_;
}

SupervisorStats DaemonSupervisor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace joza::resilience
