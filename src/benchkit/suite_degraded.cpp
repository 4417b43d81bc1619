// degraded: QPS, tail latency and verdict safety of the protected gateway
// under injected PTI faults.
//
// Four phases, each driving the same engine over the wire with mixed
// benign + exploit traffic while the PTI daemon pool runs under a
// different fault regime:
//
//   healthy     — no faults armed; baseline QPS/p99.
//   hang 10%    — every ~10th analyze stalls its daemon; the pool must
//                 SIGKILL + replace within the per-call budget, so every
//                 request still completes inside the deadline budget.
//   outage      — every analyze hangs; the circuit breaker opens and the
//                 engine serves degraded fail-closed (error virtualization)
//                 at fast-reject speed.
//   recovery    — faults disarmed; after the cooldown the breaker's
//                 half-open probe closes it and verdicts flow again.
//
// Safety invariant gated in EVERY phase: no exploit response ever contains
// the testbed's secret marker (zero fail-open), and the breaker must cycle
// open and closed across the run.
//
// Each phase forks a fresh daemon pool: daemons inherit the injector's
// armed state at fork time, so rearming between phases only affects
// daemons forked afterwards.
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "attack/catalog.h"
#include "attack/exploit.h"
#include "benchkit/metrics.h"
#include "benchkit/suites.h"
#include "core/joza.h"
#include "resilience/circuit_breaker.h"
#include "resilience/injector.h"
#include "gateway/client.h"
#include "gateway/gateway.h"
#include "ipc/daemon_pool.h"
#include "phpsrc/fragments.h"

namespace joza::benchkit {

namespace {

using namespace std::chrono_literals;

constexpr std::chrono::milliseconds kRequestDeadline{1000};
constexpr std::chrono::milliseconds kPerCallTimeout{150};
// A request is "over budget" past the deadline plus scheduling slack.
constexpr std::chrono::milliseconds kBudget{1500};

struct PhaseResult {
  double seconds = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  std::size_t requests = 0;
  std::size_t transport_failures = 0;
  std::size_t fail_open = 0;    // exploit responses leaking the secret
  std::size_t over_budget = 0;  // requests slower than kBudget
  double qps() const { return seconds > 0 ? requests / seconds : 0; }
};

// Sequential driver: one keep-alive client, every 8th request an exploit
// against a data-channel plugin. Sequential on purpose — per-request
// latency then maps 1:1 onto the fault behaviour under test (a hang costs
// exactly its kill-and-retry budget, a breaker fast-reject costs ~nothing).
PhaseResult DrivePhase(int port, std::size_t requests,
                       const attack::PluginSpec& plugin,
                       const std::string& exploit_payload) {
  gateway::KeepAliveClient client(port);
  LatencyRecorder recorder;
  PhaseResult result;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < requests; ++i) {
    const bool is_exploit = (i % 8) == 7;
    const auto t0 = std::chrono::steady_clock::now();
    StatusOr<gateway::Reply> response =
        is_exploit
            ? client.Send(http::Request::Get(
                  plugin.route, {{plugin.param, exploit_payload}}))
            : client.Get("/post?id=" + std::to_string(i % 50));
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    recorder.Record(ms);
    if (ms > static_cast<double>(kBudget.count())) ++result.over_budget;
    if (!response.ok()) {
      ++result.transport_failures;
      continue;
    }
    if (is_exploit && response->body.find(attack::kSecretMarker) !=
                          std::string::npos) {
      ++result.fail_open;
    }
  }
  const auto end = std::chrono::steady_clock::now();
  result.seconds = std::chrono::duration<double>(end - start).count();
  result.requests = requests;
  const LatencySummary summary = recorder.Summary();
  result.p50_ms = summary.p50;
  result.p99_ms = summary.p99;
  return result;
}

std::unique_ptr<ipc::DaemonPool> FreshPool(const webapp::Application& proto) {
  ipc::DaemonPool::Options options;
  options.max_size = 2;
  options.per_call_timeout = kPerCallTimeout;
  return std::make_unique<ipc::DaemonPool>(
      php::FragmentSet::FromSources(proto.sources()), options);
}

// Concurrent flood for the overload phase: more clients than workers, so
// the handler queue backs up and the deadline shed has real doomed work to
// refuse.
struct OverloadResult {
  std::size_t requests = 0;
  std::size_t served = 0;
  std::size_t refused = 0;    // 503 (queue overflow / deadline shed)
  std::size_t transport_failures = 0;
  std::size_t fail_open = 0;
  double seconds = 0;
};

OverloadResult DriveOverload(int port, std::size_t clients,
                             std::size_t per_client,
                             const attack::PluginSpec& plugin,
                             const std::string& exploit_payload) {
  std::vector<std::thread> threads;
  std::mutex mu;
  OverloadResult total;
  const auto start = std::chrono::steady_clock::now();
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      gateway::KeepAliveClient client(port);
      OverloadResult local;
      for (std::size_t i = 0; i < per_client; ++i) {
        const bool is_exploit = ((c + i) % 8) == 7;
        StatusOr<gateway::Reply> response =
            is_exploit
                ? client.Send(http::Request::Get(
                      plugin.route, {{plugin.param, exploit_payload}}))
                : client.Get("/post?id=" + std::to_string(i % 50));
        ++local.requests;
        if (!response.ok()) {
          ++local.transport_failures;
          continue;
        }
        if (response->status == 503) {
          ++local.refused;
        } else {
          ++local.served;
        }
        if (is_exploit && response->body.find(attack::kSecretMarker) !=
                              std::string::npos) {
          ++local.fail_open;
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      total.requests += local.requests;
      total.served += local.served;
      total.refused += local.refused;
      total.transport_failures += local.transport_failures;
      total.fail_open += local.fail_open;
    });
  }
  for (std::thread& thread : threads) thread.join();
  total.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  return total;
}

}  // namespace

SuiteResult RunDegradedSuite(const SuiteOptions& options) {
  SuiteResult result("degraded", options);

  // Each /post request runs ~20 queries, so at hang rate 0.10 nearly every
  // request absorbs ~2 kill-and-retry budgets (~300 ms); 80 requests keeps
  // the hang phase under half a minute.
  const std::size_t requests = options.quick ? 40 : 80;

  auto proto = attack::MakeTestbed();
  // Caches off: every request must round-trip the PTI pool, otherwise the
  // fault regimes would mostly measure cache hits.
  core::JozaConfig cfg;
  cfg.query_cache = false;
  cfg.structure_cache = false;
  cfg.degraded_mode = core::DegradedMode::kFailClosed;
  cfg.breaker.failure_threshold = 5;
  cfg.breaker.cooldown = 200ms;
  core::Joza joza = core::Joza::Install(*proto, cfg);

  gateway::GatewayConfig gcfg;
  gcfg.workers = 2;
  gcfg.request_deadline = kRequestDeadline;
  gateway::GatewayServer server([] { return attack::MakeTestbed(); }, &joza,
                                gcfg);
  auto port = server.Start();
  if (!port.ok()) {
    std::fprintf(stderr, "gateway start failed: %s\n",
                 port.status().ToString().c_str());
    result.AddExact("setup.failed", 1);
    result.RequireEq("gateway starts", "setup.failed", 0);
    return result;
  }

  // Exploit traffic: the first data-channel plugin's public exploit.
  const attack::PluginSpec* target = nullptr;
  for (const attack::PluginSpec* plugin : attack::TestbedPlugins()) {
    if (plugin->mode == webapp::ResponseMode::kData) {
      target = plugin;
      break;
    }
  }
  if (target == nullptr) {
    std::fprintf(stderr, "no data-channel plugin in the catalog\n");
    result.AddExact("setup.failed", 1);
    result.RequireEq("catalog has a data-channel plugin", "setup.failed", 0);
    server.Stop();
    return result;
  }
  const std::string exploit = attack::OriginalExploit(*target).payload;

  auto& injector = resilience::FaultInjector::Global();
  injector.set_hang(5000ms);

  struct Phase {
    const char* name;
    const char* key;
    double hang_rate;  // < 0 leaves the injector disarmed
  };
  const Phase phases[] = {
      {"healthy", "healthy", -1.0},
      {"hang 10%", "hang10", 0.10},
      {"outage", "outage", 1.0},
      {"recovery", "recovery", -1.0},
  };

  Table table({"Phase", "QPS", "p50 ms", "p99 ms", "Fail-open",
               "Over-budget", "Degraded", "Breaker"});

  std::size_t total_fail_open = 0;
  std::size_t total_over_budget = 0;
  std::size_t total_transport_failures = 0;
  std::size_t prev_degraded = 0;
  for (const Phase& phase : phases) {
    injector.DisarmAll();
    if (phase.hang_rate >= 0) {
      injector.Arm(resilience::FaultPoint::kDaemonHang, phase.hang_rate);
    }
    // Fresh pool so this phase's daemons fork with this phase's regime.
    auto pool = FreshPool(*proto);
    joza.SetPtiBackend(pool->AsPtiBackend());
    // Give a post-outage breaker its cooldown, then let one warm request
    // run the half-open probe (and absorb pool spawn cost in every phase).
    std::this_thread::sleep_for(cfg.breaker.cooldown + 50ms);
    {
      gateway::KeepAliveClient warm(port.value());
      (void)warm.Get("/post?id=0");
    }

    const PhaseResult r = DrivePhase(port.value(), requests, *target, exploit);

    const core::JozaStats stats = joza.stats();
    const std::size_t degraded = stats.degraded_checks - prev_degraded;
    prev_degraded = stats.degraded_checks;
    total_fail_open += r.fail_open;
    total_over_budget += r.over_budget;
    total_transport_failures += r.transport_failures;
    table.AddRow({phase.name, Num(r.qps(), 1), Num(r.p50_ms, 2),
                  Num(r.p99_ms, 2), std::to_string(r.fail_open),
                  std::to_string(r.over_budget), std::to_string(degraded),
                  resilience::BreakerStateName(joza.breaker().state())});

    const std::string prefix = std::string("phase.") + phase.key;
    result.AddInfo(prefix + ".qps", r.qps(), "qps");
    result.AddInfo(prefix + ".p50_ms", r.p50_ms, "ms");
    result.AddInfo(prefix + ".p99_ms", r.p99_ms, "ms");
    result.AddInfo(prefix + ".degraded_checks", static_cast<double>(degraded),
                   "count");

    pool->Shutdown();
  }
  injector.DisarmAll();

  table.Print("Gateway under PTI faults (fail-closed degradation)");

  // -------------------------------------------------------------------------
  // Overload phase: concurrent flood against slow-PTI service. 10% hangs
  // keep each request slow WITHOUT tripping the breaker (failures are not
  // consecutive), so the queue backs up and the deadline shed must fire.
  // The invariant under test: refusing doomed work is CHEAP — a shed
  // request costs microseconds of server time, not a worker's deadline.
  // -------------------------------------------------------------------------
  injector.Arm(resilience::FaultPoint::kDaemonHang, 0.10);
  auto overload_pool = FreshPool(*proto);
  joza.SetPtiBackend(overload_pool->AsPtiBackend());
  const gateway::GatewayStats before_overload = server.stats();

  const std::size_t flood_clients = 8;
  const std::size_t flood_per_client = options.quick ? 10 : 20;
  const OverloadResult overload = DriveOverload(
      port.value(), flood_clients, flood_per_client, *target, exploit);

  const gateway::GatewayStats after_overload = server.stats();
  const std::size_t shed_deadline =
      after_overload.shed_by_deadline - before_overload.shed_by_deadline;
  const std::size_t queue_rejects = after_overload.connections_rejected -
                                    before_overload.connections_rejected;
  const double shed_p99_ms =
      static_cast<double>(after_overload.shed_p99_us) / 1000.0;
  injector.DisarmAll();

  std::printf(
      "\noverload (%zu clients x %zu reqs): %zu served, %zu refused, "
      "%zu transport failures in %.1fs\n",
      flood_clients, flood_per_client, overload.served, overload.refused,
      overload.transport_failures, overload.seconds);
  std::printf("shedding:    %zu shed by deadline, %zu queue rejects; "
              "shed p99 %.3f ms\n",
              shed_deadline, queue_rejects, shed_p99_ms);

  const ipc::DaemonPool::PoolStats overload_ps = overload_pool->stats();
  total_fail_open += overload.fail_open;
  overload_pool->Shutdown();

  result.AddInfo("overload.qps",
                 overload.seconds > 0
                     ? static_cast<double>(overload.requests) / overload.seconds
                     : 0,
                 "qps");
  result.AddInfo("overload.served", static_cast<double>(overload.served),
                 "count");
  result.AddInfo("overload.shed_by_deadline",
                 static_cast<double>(shed_deadline), "count");
  result.AddInfo("overload.queue_rejects_503",
                 static_cast<double>(queue_rejects), "count");
  // The overload pool's counters ride the same export: spawns, restarts
  // the bucket refused, waits and deadline misses.
  for (const auto& [name, value] : overload_ps.Counters()) {
    result.AddInfo(std::string("overload.") + name,
                   static_cast<double>(value), "count");
  }

  // Gates: overload must actually shed, refusals must be fast (server-side
  // p99 of the shed path under 5 ms — the whole point of shedding is that
  // doomed work costs nothing), and the flood must not break the
  // zero-fail-open invariant (counted into safety.fail_open).
  result.AddExact("overload.sheds", shed_deadline + queue_rejects > 0 ? 1 : 0);
  result.RequireEq("overload engages admission control", "overload.sheds", 1);
  result.AddInfo("overload.shed_p99_ms", shed_p99_ms, "ms");
  result.RequireLe("shed requests are fast (p99 under 5 ms)",
                   "overload.shed_p99_ms", 5.0);

  const resilience::BreakerStats bs = joza.breaker().stats();
  const core::JozaStats js = joza.stats();
  std::printf(
      "\nbreaker transitions: %zu opens, %zu closes, %zu probes, "
      "%zu fast-rejects (final state %s)\n",
      bs.opens, bs.closes, bs.probes, js.breaker_fast_rejects,
      resilience::BreakerStateName(joza.breaker().state()));
  std::printf("engine: %zu checks, %zu pti failures, %zu degraded checks, "
              "%zu degraded blocks\n",
              js.queries_checked, js.pti_failures, js.degraded_checks,
              js.degraded_blocks);
  std::printf("safety: %zu fail-open responses, %zu over-budget requests "
              "(budget %lld ms)\n",
              total_fail_open, total_over_budget,
              static_cast<long long>(kBudget.count()));

  server.Stop();

  // Fault-phase counters depend on OS scheduling (which calls hang, how
  // many retries fire), so they are trajectory info, not exact-compared.
  for (const auto& [name, value] : bs.Counters()) {
    result.AddInfo(std::string("breaker.") + name, static_cast<double>(value),
                   "count");
  }
  for (const auto& [name, value] : js.Counters()) {
    result.AddInfo(std::string("engine.") + name, static_cast<double>(value),
                   "count");
  }
  result.AddInfo("safety.over_budget",
                 static_cast<double>(total_over_budget), "count");
  result.AddInfo("safety.transport_failures",
                 static_cast<double>(total_transport_failures), "count");

  // The safety invariants ARE deterministic: fail-closed degradation must
  // never leak the secret, and the outage/recovery phases must drive one
  // full breaker cycle.
  result.AddExact("safety.fail_open", static_cast<double>(total_fail_open));
  result.RequireEq("zero fail-open responses under faults",
                   "safety.fail_open", 0);
  result.RequireGe("breaker opened during the outage", "breaker.opens", 1);
  result.RequireGe("breaker closed again after recovery", "breaker.closes",
                   1);
  return result;
}

}  // namespace joza::benchkit
