// Shared measurement layer for every benchmark: percentile math, latency
// recording with warmup/steady-state phases, the closed-loop client driver
// of the over-the-wire suites, and the console table / number formatting.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

namespace joza::benchkit {

// Interpolated percentile of an UNSORTED sample (the input is copied and
// sorted internally). p in [0, 1]; linear interpolation between order
// statistics, so Percentile({1,2,3,4}, 0.5) == 2.5. Empty input yields 0.
double Percentile(std::vector<double> samples, double p);

// Percentile over data the caller has already sorted ascending (no copy).
double PercentileSorted(const std::vector<double>& sorted, double p);

// One phase's latency summary, all in the unit the samples were recorded in
// (the suites record milliseconds).
struct LatencySummary {
  std::size_t count = 0;
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double max = 0;
};

// Accumulates per-operation latencies and wall time, with an optional
// warmup phase whose samples are excluded from the steady-state summary.
// Not thread-safe; concurrent drivers record per-thread and Merge().
class LatencyRecorder {
 public:
  // Marks the end of warmup: samples recorded before this call are dropped
  // from Summary() and qps().
  void EndWarmup() { warmup_end_ = samples_.size(); }

  void Record(double value) { samples_.push_back(value); }

  void Merge(const LatencyRecorder& other);

  // Steady-state (post-warmup) sample count.
  std::size_t count() const { return samples_.size() - warmup_end_; }

  LatencySummary Summary() const;

  // Operations per second given the steady-state wall time in seconds.
  double Qps(double steady_seconds) const;

 private:
  std::vector<double> samples_;
  std::size_t warmup_end_ = 0;
};

// --- Closed-loop client driver ---------------------------------------------

// One DriveClients run: wall time, per-request latency (ms), failed sends.
struct RunResult {
  double seconds = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  std::size_t requests = 0;
  std::size_t failures = 0;
  double qps() const { return seconds > 0 ? requests / seconds : 0; }
};

// Drives `clients` threads. `make_sender(c)` runs inside thread `c` and
// returns a callable `bool(std::size_t i)` that ships request i; per-thread
// state (a keep-alive connection) lives and dies with the thread, so no
// idle connection pins a gateway worker after its slice is done.
template <typename MakeSender>
RunResult DriveClients(std::size_t clients, std::size_t per_client,
                       MakeSender&& make_sender) {
  std::vector<LatencyRecorder> recorders(clients);
  std::atomic<std::size_t> failures{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto send_one = make_sender(c);
      for (std::size_t i = 0; i < per_client; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        if (!send_one(i)) failures.fetch_add(1);
        const auto t1 = std::chrono::steady_clock::now();
        recorders[c].Record(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto end = std::chrono::steady_clock::now();

  RunResult r;
  r.seconds = std::chrono::duration<double>(end - start).count();
  r.requests = clients * per_client;
  r.failures = failures.load();
  LatencyRecorder all;
  for (const auto& rec : recorders) all.Merge(rec);
  const LatencySummary summary = all.Summary();
  r.p50_ms = summary.p50;
  r.p99_ms = summary.p99;
  return r;
}

// --- Console reporting (formerly bench/report.h) ---------------------------

class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {
    widths_.resize(headers_.size());
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      widths_[i] = headers_[i].size();
    }
  }

  void AddRow(std::vector<std::string> cells) {
    cells.resize(headers_.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      widths_[i] = std::max(widths_[i], cells[i].size());
    }
    rows_.push_back(std::move(cells));
  }

  void Print(const std::string& title) const {
    std::printf("\n=== %s ===\n", title.c_str());
    PrintRow(headers_);
    std::string sep;
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      sep += std::string(widths_[i] + 2, '-');
      if (i + 1 < headers_.size()) sep += "+";
    }
    std::printf("%s\n", sep.c_str());
    for (const auto& row : rows_) PrintRow(row);
    std::fflush(stdout);
  }

 private:
  void PrintRow(const std::vector<std::string>& cells) const {
    std::string line;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      line += " " + cells[i] + std::string(widths_[i] - cells[i].size(), ' ') +
              " ";
      if (i + 1 < cells.size()) line += "|";
    }
    std::printf("%s\n", line.c_str());
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::size_t> widths_;
};

inline std::string Pct(double fraction, int decimals = 2) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f%%", decimals, fraction * 100.0);
  return buf;
}

inline std::string Num(double v, int decimals = 4) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

}  // namespace joza::benchkit
