// Deadlines: absolute points in time that bound blocking work.
//
// The fault-tolerance rule for the serving path is "deadlines everywhere":
// every blocking step (connection reads, daemon checkout, IPC round trips)
// is bounded by a Deadline so a stalled peer degrades into a clean
// kDeadlineExceeded status instead of a pinned thread. A default-constructed
// Deadline is infinite, which preserves the blocking behaviour the
// single-threaded reproduction tiers rely on.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>

namespace joza::util {

class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  // Infinite: never expires.
  Deadline() = default;

  static Deadline After(std::chrono::milliseconds budget) {
    Deadline d;
    d.finite_ = true;
    d.point_ = Clock::now() + budget;
    return d;
  }
  static Deadline Infinite() { return Deadline(); }
  static Deadline AtPoint(Clock::time_point point) {
    Deadline d;
    d.finite_ = true;
    d.point_ = point;
    return d;
  }

  bool finite() const { return finite_; }
  bool expired() const { return finite_ && Clock::now() >= point_; }

  Clock::time_point point() const { return point_; }

  // Time left, clamped to zero. Meaningless (huge) when infinite.
  std::chrono::milliseconds remaining() const {
    if (!finite_) return std::chrono::milliseconds::max();
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        point_ - Clock::now());
    return std::max(left, std::chrono::milliseconds(0));
  }

  // Timeout argument for poll(2): -1 blocks forever, otherwise the clamped
  // remaining budget (at least 0 = immediate).
  int poll_timeout_ms() const {
    if (!finite_) return -1;
    const auto ms = remaining().count();
    return static_cast<int>(std::min<std::int64_t>(ms, 1 << 30));
  }

  // The earlier of two deadlines (infinite loses to any finite one).
  static Deadline EarlierOf(Deadline a, Deadline b) {
    if (!a.finite_) return b;
    if (!b.finite_) return a;
    return a.point_ <= b.point_ ? a : b;
  }

 private:
  bool finite_ = false;
  Clock::time_point point_{};
};

}  // namespace joza::util
