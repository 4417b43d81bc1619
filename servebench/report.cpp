#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace servebench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::uint64_t Counter(const Counters& counters, std::string_view name) {
  for (const auto& [key, value] : counters) {
    if (name == key) return value;
  }
  return 0;
}

std::uint64_t CounterDelta(const Counters& before, const Counters& after,
                           std::string_view name) {
  const std::uint64_t a = Counter(after, name);
  const std::uint64_t b = Counter(before, name);
  return a >= b ? a - b : 0;
}

const char* FailureName(Failure f) {
  switch (f) {
    case Failure::kTransport: return "transport";
    case Failure::kRefused429: return "refused_429";
    case Failure::kRefused503: return "refused_503";
    case Failure::kBenignMismatch: return "benign_mismatch";
    case Failure::kAttackNotBlocked: return "attack_not_blocked";
  }
  return "unknown";
}

std::uint64_t FailureTally::total() const {
  std::uint64_t sum = 0;
  for (std::uint64_t n : by_class) sum += n;
  return sum;
}

FailureTally& FailureTally::operator+=(const FailureTally& other) {
  attempted += other.attempted;
  for (std::size_t i = 0; i < kFailureClasses; ++i) {
    by_class[i] += other.by_class[i];
  }
  return *this;
}

std::string FailureTally::ToJson() const {
  std::string out = "{";
  for (std::size_t i = 0; i < kFailureClasses; ++i) {
    if (i > 0) out += ", ";
    out += JsonString(FailureName(static_cast<Failure>(i))) + ": " +
           std::to_string(by_class[i]);
  }
  return out + "}";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string ResultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}}";
}

}  // namespace servebench
