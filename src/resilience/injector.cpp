#include "resilience/injector.h"

#include <cmath>
#include <cstdlib>

namespace joza::resilience {

namespace {

constexpr const char* kNames[] = {
    "daemon-hang", "daemon-kill", "frame-corrupt", "short-write",
    "accept-fail", "spawn-fail",  "snapshot-io",
};
static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
              static_cast<std::size_t>(FaultPoint::kCount));

std::uint32_t Bit(FaultPoint point) {
  return 1u << static_cast<unsigned>(point);
}

}  // namespace

const char* FaultPointName(FaultPoint point) {
  const auto i = static_cast<std::size_t>(point);
  if (i >= static_cast<std::size_t>(FaultPoint::kCount)) return "?";
  return kNames[i];
}

StatusOr<FaultPoint> ParseFaultPoint(std::string_view name) {
  for (std::size_t i = 0; i < static_cast<std::size_t>(FaultPoint::kCount);
       ++i) {
    if (name == kNames[i]) return static_cast<FaultPoint>(i);
  }
  return Status::InvalidArgument("unknown fault point: " + std::string(name));
}

FaultInjector& FaultInjector::Global() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::Arm(FaultPoint point, double rate) {
  if (rate < 0.0) rate = 0.0;
  if (rate > 1.0) rate = 1.0;
  PointState& state = points_[static_cast<std::size_t>(point)];
  state.rate.store(rate, std::memory_order_relaxed);
  state.evaluations.store(0, std::memory_order_relaxed);
  if (rate == 0.0) {
    armed_mask_.fetch_and(~Bit(point), std::memory_order_relaxed);
  } else {
    armed_mask_.fetch_or(Bit(point), std::memory_order_relaxed);
  }
}

void FaultInjector::Disarm(FaultPoint point) { Arm(point, 0.0); }

void FaultInjector::DisarmAll() {
  armed_mask_.store(0, std::memory_order_relaxed);
  for (PointState& state : points_) {
    state.rate.store(0.0, std::memory_order_relaxed);
  }
}

bool FaultInjector::armed(FaultPoint point) const {
  return (armed_mask_.load(std::memory_order_relaxed) & Bit(point)) != 0;
}

std::size_t FaultInjector::fires(FaultPoint point) const {
  return points_[static_cast<std::size_t>(point)].fires.load(
      std::memory_order_relaxed);
}

std::size_t FaultInjector::evaluations(FaultPoint point) const {
  return points_[static_cast<std::size_t>(point)].evaluations.load(
      std::memory_order_relaxed);
}

void FaultInjector::ResetCounters() {
  for (PointState& state : points_) {
    state.evaluations.store(0, std::memory_order_relaxed);
    state.fires.store(0, std::memory_order_relaxed);
  }
}

bool FaultInjector::ShouldFireSlow(FaultPoint point) {
  if ((armed_mask_.load(std::memory_order_relaxed) & Bit(point)) == 0) {
    return false;
  }
  PointState& state = points_[static_cast<std::size_t>(point)];
  const double rate = state.rate.load(std::memory_order_relaxed);
  if (rate <= 0.0) return false;
  const std::uint64_t n =
      state.evaluations.fetch_add(1, std::memory_order_relaxed);
  // Fire whenever the cumulative quota crosses an integer: rate 0.25 fires
  // on evaluations 4, 8, 12, ...; rate 1.0 on every evaluation.
  const bool fire = std::floor(static_cast<double>(n + 1) * rate) >
                    std::floor(static_cast<double>(n) * rate);
  if (fire) state.fires.fetch_add(1, std::memory_order_relaxed);
  return fire;
}

Status ArmFromSpec(FaultInjector& injector, std::string_view spec) {
  std::string_view name = spec;
  double rate = 1.0;
  const std::size_t colon = spec.rfind(':');
  if (colon != std::string_view::npos) {
    name = spec.substr(0, colon);
    const std::string rate_text(spec.substr(colon + 1));
    char* end = nullptr;
    rate = std::strtod(rate_text.c_str(), &end);
    if (end == rate_text.c_str() || *end != '\0' || rate < 0.0 || rate > 1.0) {
      return Status::InvalidArgument("bad fault rate: " + rate_text +
                                     " (want 0..1)");
    }
  }
  auto point = ParseFaultPoint(name);
  if (!point.ok()) return point.status();
  injector.Arm(point.value(), rate);
  return Status::Ok();
}

}  // namespace joza::resilience
