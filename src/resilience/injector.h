// Pluggable fault injection for the analysis pipeline.
//
// Production fault tolerance is only trustworthy if its failure paths are
// exercised continuously, so the injection points are compiled in always
// and gated by one relaxed atomic load: with nothing armed, ShouldFire is a
// single load-and-branch (zero allocations, no locks, no syscalls).
//
// Design constraints:
//   * Fork-safe. PTI daemons are forked children; an injection point fires
//     inside the child (daemon-hang, daemon-kill) with whatever state it
//     inherited at fork time. All state is therefore lock-free atomics —
//     never a mutex that could be mid-acquisition at fork.
//   * Deterministic. Rates fire on an arithmetic schedule (the k-th
//     evaluation fires iff floor(k*rate) > floor((k-1)*rate)), so tests and
//     benches get reproducible fault trains instead of RNG flakiness.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace joza::resilience {

enum class FaultPoint : unsigned {
  kDaemonHang = 0,   // PTI daemon sleeps instead of answering (stall)
  kDaemonKill,       // PTI daemon exits mid-request (crash)
  kFrameCorrupt,     // IPC frame header is corrupted on the wire
  kShortWrite,       // IPC frame write silently truncates (stalled peer)
  kAcceptFail,       // gateway drops an accepted connection immediately
  kSpawnFail,        // daemon fork/handshake fails before going live
  kSnapshotIo,       // snapshot write/fsync/rename fails mid-persist
  kCount,
};

const char* FaultPointName(FaultPoint point);
StatusOr<FaultPoint> ParseFaultPoint(std::string_view name);

class FaultInjector {
 public:
  // Process-wide injector consulted by every compiled-in injection point.
  static FaultInjector& Global();

  // Arms `point` to fire on `rate` of evaluations (clamped to [0, 1];
  // 1.0 fires every time). Rearming resets the schedule.
  void Arm(FaultPoint point, double rate);
  void Disarm(FaultPoint point);
  void DisarmAll();

  bool armed(FaultPoint point) const;
  double rate(FaultPoint point) const {
    return points_[static_cast<std::size_t>(point)].rate.load(
        std::memory_order_relaxed);
  }
  std::size_t fires(FaultPoint point) const;
  std::size_t evaluations(FaultPoint point) const;
  void ResetCounters();

  // Stall length used by the daemon-hang point.
  void set_hang(std::chrono::milliseconds hang) {
    hang_ms_.store(static_cast<std::int64_t>(hang.count()),
                   std::memory_order_relaxed);
  }
  std::chrono::milliseconds hang() const {
    return std::chrono::milliseconds(hang_ms_.load(std::memory_order_relaxed));
  }

  // The hot-path check. Call sites own the fault behaviour; this only
  // decides whether the fault fires now.
  bool ShouldFire(FaultPoint point) {
    if (armed_mask_.load(std::memory_order_relaxed) == 0) return false;
    return ShouldFireSlow(point);
  }

 private:
  FaultInjector() = default;
  bool ShouldFireSlow(FaultPoint point);

  struct PointState {
    std::atomic<double> rate{0.0};
    std::atomic<std::uint64_t> evaluations{0};
    std::atomic<std::uint64_t> fires{0};
  };

  std::atomic<std::uint32_t> armed_mask_{0};
  std::atomic<std::int64_t> hang_ms_{30000};
  PointState points_[static_cast<std::size_t>(FaultPoint::kCount)];
};

// Parses and arms one `point:rate` spec (e.g. "daemon-hang:0.1"); a bare
// point name arms at rate 1.0. This is the grammar behind the gateway's
// --fault flag.
Status ArmFromSpec(FaultInjector& injector, std::string_view spec);

}  // namespace joza::resilience
