// Small shared helpers: order statistics, counters read by name, failure
// classes, and the JSON lines the benchmark prints.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace servebench {

// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

// Engine and gateway counters are read by name from their Counters()
// export, never by struct field: a counter that a later change deletes
// reads as 0 here instead of breaking the build.
using Counters = std::vector<std::pair<const char*, std::uint64_t>>;
std::uint64_t Counter(const Counters& counters, std::string_view name);
// after - before, by name (0 when missing from either side).
std::uint64_t CounterDelta(const Counters& before, const Counters& after,
                           std::string_view name);

// Why a request counted as failed. Every request is checked; each failure
// lands in exactly one class (the first that applies, in this order).
enum class Failure {
  kTransport,         // connect/send/recv error on either twin
  kRefused429,        // AIMD admission refusal on either twin
  kRefused503,        // queue overflow or deadline shedding on either twin
  kBenignMismatch,    // benign protected response != plain twin's bytes
  kAttackNotBlocked,  // attack not answered with a blank 500
};
inline constexpr std::size_t kFailureClasses = 5;
const char* FailureName(Failure f);

struct FailureTally {
  std::uint64_t attempted = 0;
  std::array<std::uint64_t, kFailureClasses> by_class{};

  void Add(Failure f) { ++by_class[static_cast<std::size_t>(f)]; }
  std::uint64_t total() const;
  FailureTally& operator+=(const FailureTally& other);
  // {"transport": 0, "refused_429": 0, ...}
  std::string ToJson() const;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string JsonNumber(double value);  // every digit, never NaN/inf
std::string JsonString(std::string_view text);

// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace servebench
