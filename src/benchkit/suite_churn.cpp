// churn: over-the-wire scaling of the concurrent gateway and the reader
// cost of RCU ruleset-snapshot churn.
//
// Phases:
//   1. Throughput scaling: the gateway at 1/2/4/8 workers (all
//      Joza-protected), plus the unprotected gateway floor — informational
//      trajectory rows.
//   2. Snapshot churn (gated): the 8-worker gateway serving identical
//      traffic read-only vs under continuous ruleset swaps. Readers may
//      lose at most 25% of p99 latency and throughput (+0.25 ms absolute
//      grace for timer noise) — the regression gate for the lock-free
//      analyze path.
//   3. Verdict consistency (gated): mixed benign/attack traffic must block
//      exactly the same requests sequentially and across 8 concurrent
//      clients.
//   4. Connection scale (gated): the gateway holds 10k (quick: 2k)
//      mostly-idle keep-alive connections — raising RLIMIT_NOFILE as
//      needed, since client and server fds share this process — while 8
//      active clients drive load; every idle connection must still answer
//      at the end, and QPS/p99 under the idle mass must stay within range
//      of the same server and load without it.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "attack/catalog.h"
#include "attack/exploit.h"
#include "attack/workload.h"
#include "benchkit/metrics.h"
#include "benchkit/suites.h"
#include "core/joza.h"
#include "gateway/client.h"
#include "gateway/gateway.h"

namespace joza::benchkit {

namespace {

std::vector<std::string> SerializeCrawl(std::size_t count,
                                        std::uint64_t seed) {
  std::vector<std::string> raw;
  for (const attack::WorkloadRequest& wr :
       attack::MakeCrawlWorkload(count, seed)) {
    raw.push_back(gateway::SerializeRequest(wr.request, /*keep_alive=*/true));
  }
  return raw;
}

}  // namespace

SuiteResult RunChurnSuite(const SuiteOptions& options) {
  SuiteResult result("churn", options);

  const std::size_t kClients = 8;
  const std::size_t per_client = options.quick ? 40 : 150;
  const std::vector<std::string> crawl = SerializeCrawl(256, options.seed);

  Table table({"Server", "Workers", "Joza", "QPS", "p50 ms", "p99 ms",
               "Fail"});

  // --- Phase 1a: gateway at increasing worker counts ---------------------
  std::size_t scaling_failures = 0;
  const std::vector<std::size_t> worker_counts =
      options.quick ? std::vector<std::size_t>{1, 8}
                    : std::vector<std::size_t>{1, 2, 4, 8};
  for (std::size_t workers : worker_counts) {
    auto proto = attack::MakeTestbed();
    core::JozaConfig config;
    config.cache_capacity = 1 << 16;
    core::Joza joza = core::Joza::Install(*proto, config);
    gateway::GatewayConfig gcfg;
    gcfg.workers = workers;
    gateway::GatewayServer server([] { return attack::MakeTestbed(); }, &joza,
                                  gcfg);
    auto port = server.Start();
    if (!port.ok()) {
      std::fprintf(stderr, "gateway start failed\n");
      ++scaling_failures;
      continue;
    }
    RunResult r = DriveClients(kClients, per_client, [&](std::size_t c) {
      auto conn = std::make_shared<gateway::KeepAliveClient>(port.value());
      return [&, conn, c](std::size_t i) {
        auto resp =
            conn->RoundTrip(crawl[(c * per_client + i) % crawl.size()]);
        return resp.ok();
      };
    });
    scaling_failures += r.failures;
    result.AddInfo("gateway.w" + std::to_string(workers) + ".qps", r.qps(),
                   "qps");
    result.AddInfo("gateway.w" + std::to_string(workers) + ".p99_ms",
                   r.p99_ms, "ms");
    table.AddRow({"gateway", std::to_string(workers), "yes", Num(r.qps(), 0),
                  Num(r.p50_ms, 3), Num(r.p99_ms, 3),
                  std::to_string(r.failures)});
    server.Stop();
  }

  // --- Phase 1b: gateway without Joza — the wire/threading floor ----------
  {
    gateway::GatewayConfig gcfg;
    gcfg.workers = 8;
    gateway::GatewayServer server([] { return attack::MakeTestbed(); },
                                  nullptr, gcfg);
    auto port = server.Start();
    if (port.ok()) {
      RunResult r = DriveClients(kClients, per_client, [&](std::size_t c) {
        auto conn = std::make_shared<gateway::KeepAliveClient>(port.value());
        return [&, conn, c](std::size_t i) {
          auto resp =
              conn->RoundTrip(crawl[(c * per_client + i) % crawl.size()]);
          return resp.ok();
        };
      });
      result.AddInfo("gateway.nojoza.qps", r.qps(), "qps");
      table.AddRow({"gateway", "8", "no", Num(r.qps(), 0), Num(r.p50_ms, 3),
                    Num(r.p99_ms, 3), std::to_string(r.failures)});
      server.Stop();
    } else {
      ++scaling_failures;
    }
  }

  table.Print("Gateway scaling (8 keep-alive clients, crawl workload)");
  result.AddExact("scaling.transport_failures",
                  static_cast<double>(scaling_failures));
  result.RequireEq("no transport failures while scaling",
                   "scaling.transport_failures", 0);

  // --- Phase 2: snapshot churn — lock-free readers vs RCU swaps -----------
  auto churn_pass = [&](bool churn) -> std::pair<RunResult, std::size_t> {
    auto proto = attack::MakeTestbed();
    core::JozaConfig config;
    config.cache_capacity = 1 << 16;
    core::Joza joza = core::Joza::Install(*proto, config);
    gateway::GatewayConfig gcfg;
    gcfg.workers = 8;
    gateway::GatewayServer server([] { return attack::MakeTestbed(); }, &joza,
                                  gcfg);
    auto port = server.Start();
    if (!port.ok()) {
      std::fprintf(stderr, "churn gateway start failed\n");
      return {RunResult{}, 0};
    }
    std::atomic<bool> stop{false};
    std::thread churner;
    if (churn) {
      churner = std::thread([&] {
        std::size_t i = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          joza.OnSourcesChanged(
              {{"churn.php",
                "$q = 'SELECT col" + std::to_string(i++) + " FROM t';"}});
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      });
    }
    RunResult r = DriveClients(kClients, per_client, [&](std::size_t c) {
      auto conn = std::make_shared<gateway::KeepAliveClient>(port.value());
      return [&, conn, c](std::size_t i) {
        auto resp =
            conn->RoundTrip(crawl[(c * per_client + i) % crawl.size()]);
        return resp.ok();
      };
    });
    stop.store(true);
    if (churner.joinable()) churner.join();
    const std::size_t swaps = joza.stats().ruleset_swaps;
    server.Stop();
    return {r, swaps};
  };
  const auto [read_only, ro_swaps] = churn_pass(false);
  const auto [churned, churn_swaps] = churn_pass(true);

  Table churn_table({"Mode", "Swaps", "QPS", "p50 ms", "p99 ms", "Fail"});
  churn_table.AddRow({"read-only", std::to_string(ro_swaps),
                      Num(read_only.qps(), 0), Num(read_only.p50_ms, 3),
                      Num(read_only.p99_ms, 3),
                      std::to_string(read_only.failures)});
  churn_table.AddRow({"snapshot churn", std::to_string(churn_swaps),
                      Num(churned.qps(), 0), Num(churned.p50_ms, 3),
                      Num(churned.p99_ms, 3),
                      std::to_string(churned.failures)});
  churn_table.Print("Reader cost of ruleset snapshot churn (8 workers)");

  result.AddInfo("churn.readonly.qps", read_only.qps(), "qps");
  result.AddInfo("churn.readonly.p99_ms", read_only.p99_ms, "ms");
  result.AddInfo("churn.churned.qps", churned.qps(), "qps");
  result.AddInfo("churn.churned.p99_ms", churned.p99_ms, "ms");
  result.AddInfo("churn.swaps", static_cast<double>(churn_swaps), "count");

  // Regression gate: churn may cost readers at most 25% of p99/throughput.
  // The small absolute grace keeps sub-millisecond timer noise from
  // flaking CI while still catching reader-side lock contention, which
  // shows up as multi-millisecond p99 jumps.
  const double p99_limit = read_only.p99_ms * 1.25 + 0.25;
  const double qps_floor = read_only.qps() * 0.75;
  result.RequireLe("churn reader p99 within 25% of read-only (+0.25 ms)",
                   "churn.churned.p99_ms", p99_limit);
  result.RequireGe("churn throughput within 25% of read-only",
                   "churn.churned.qps", qps_floor);
  result.AddExact("churn.swapped_at_all", churn_swaps > 0 ? 1 : 0);
  result.RequireEq("the churn pass actually swapped snapshots",
                   "churn.swapped_at_all", 1);

  // --- Phase 3: verdict consistency, sequential vs concurrent -------------
  std::vector<std::pair<std::string, bool>> mixed;  // raw request, is_attack
  for (const attack::WorkloadRequest& wr :
       attack::MakeCrawlWorkload(96, options.seed + 7)) {
    mixed.push_back(
        {gateway::SerializeRequest(wr.request, /*keep_alive=*/true), false});
  }
  for (const auto* plugin : attack::TestbedPlugins()) {
    // Raw payloads without per-plugin transport encoding: what matters here
    // is that sequential and concurrent serving agree on the SAME bytes,
    // not that every exploit lands.
    attack::Exploit e = attack::OriginalExploit(*plugin);
    mixed.push_back(
        {gateway::SerializeRequest(
             http::Request::Get(plugin->route, {{plugin->param, e.payload}}),
             /*keep_alive=*/true),
         true});
  }

  // Sequential reference: one app, one engine, in-process Handle calls.
  std::size_t sequential_blocked = 0;
  std::size_t sequential_attacks = 0;
  {
    auto app = attack::MakeTestbed();
    core::Joza joza = core::Joza::Install(*app);
    app->SetQueryGate(joza.MakeGate());
    for (const auto& [raw, is_attack] : mixed) {
      auto request = http::ParseRawRequest(raw);
      if (!request.ok()) continue;
      if (app->Handle(request.value()).status == 500) ++sequential_blocked;
    }
    sequential_attacks = joza.stats().attacks_detected;
    app->SetQueryGate(nullptr);
  }

  // Concurrent: same traffic interleaved across 8 client threads.
  std::size_t concurrent_blocked = 0;
  std::size_t concurrent_attacks = 0;
  {
    auto proto = attack::MakeTestbed();
    core::JozaConfig config;
    config.cache_capacity = 1 << 16;
    core::Joza joza = core::Joza::Install(*proto, config);
    gateway::GatewayConfig gcfg;
    gcfg.workers = 8;
    gateway::GatewayServer server([] { return attack::MakeTestbed(); }, &joza,
                                  gcfg);
    auto port = server.Start();
    if (port.ok()) {
      std::atomic<std::size_t> blocked{0};
      std::vector<std::thread> threads;
      for (std::size_t c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
          gateway::KeepAliveClient client(port.value());
          for (std::size_t i = c; i < mixed.size(); i += kClients) {
            auto resp = client.RoundTrip(mixed[i].first);
            if (resp.ok() && resp->find("500") < resp->find("\r\n")) {
              blocked.fetch_add(1);
            }
          }
        });
      }
      for (auto& t : threads) t.join();
      concurrent_blocked = blocked.load();
      concurrent_attacks = joza.stats().attacks_detected;
      server.Stop();
    }
  }

  Table consistency({"Mode", "Blocked (500)", "Attacks detected"});
  consistency.AddRow({"sequential", std::to_string(sequential_blocked),
                      std::to_string(sequential_attacks)});
  consistency.AddRow({"gateway x8", std::to_string(concurrent_blocked),
                      std::to_string(concurrent_attacks)});
  consistency.Print("Verdict consistency, mixed benign/attack traffic");

  result.AddExact("consistency.sequential_blocked",
                  static_cast<double>(sequential_blocked));
  result.AddExact("consistency.concurrent_blocked",
                  static_cast<double>(concurrent_blocked));
  result.AddExact("consistency.blocked_diff",
                  static_cast<double>(sequential_blocked > concurrent_blocked
                                          ? sequential_blocked -
                                                concurrent_blocked
                                          : concurrent_blocked -
                                                sequential_blocked));
  result.RequireEq("concurrent verdicts identical to sequential",
                   "consistency.blocked_diff", 0);

  // --- Phase 4: connection scale — idle keep-alive mass on the event loop -
  {
    // Both the client herd and the server's connection table live in this
    // one process, so the descriptor budget is split in half. Raise the
    // soft limit (and, where privileged, the hard limit) before sizing.
    rlimit lim{};
    ::getrlimit(RLIMIT_NOFILE, &lim);
    const rlim_t desired = 24576;
    if (lim.rlim_cur < desired) {
      rlimit want = lim;
      want.rlim_max = std::max<rlim_t>(lim.rlim_max, desired);
      want.rlim_cur = std::min<rlim_t>(desired, want.rlim_max);
      if (::setrlimit(RLIMIT_NOFILE, &want) != 0) {
        want = lim;
        want.rlim_cur = lim.rlim_max;  // unprivileged: take soft -> hard
        ::setrlimit(RLIMIT_NOFILE, &want);
      }
      ::getrlimit(RLIMIT_NOFILE, &lim);
    }
    const std::size_t ceiling =
        lim.rlim_cur > 1024
            ? (static_cast<std::size_t>(lim.rlim_cur) - 1024) / 2
            : 0;
    const std::size_t target =
        std::min<std::size_t>(options.quick ? 2000 : 10000, ceiling);
    result.AddInfo("connscale.fd_limit",
                   static_cast<double>(lim.rlim_cur), "fds");
    result.AddInfo("connscale.target", static_cast<double>(target), "conns");

    auto make_config = [] {
      gateway::GatewayConfig gcfg;
      gcfg.workers = 8;
      gcfg.event_shards = 4;
      gcfg.listen_backlog = 1024;
      gcfg.queue_capacity = 4096;
      // The idle herd must outlive the whole phase; the 5 s default would
      // have the timer wheel reap it mid-measurement.
      gcfg.keepalive_timeout = std::chrono::milliseconds(120000);
      return gcfg;
    };
    // With `sustained_out` set, `target` parked connections sit on the
    // server during the load and are probed afterwards.
    auto run_load = [&](core::Joza& joza_engine,
                        std::size_t* sustained_out) -> RunResult {
      gateway::GatewayConfig gcfg = make_config();
      gateway::GatewayServer server([] { return attack::MakeTestbed(); },
                                    &joza_engine, gcfg);
      auto port = server.Start();
      if (!port.ok()) {
        std::fprintf(stderr, "connscale gateway start failed\n");
        return RunResult{};
      }
      std::vector<std::unique_ptr<gateway::KeepAliveClient>> herd;
      if (sustained_out != nullptr) {
        // Park `target` keep-alive connections, each proven live by one
        // served request. They then sit idle on the shards while the
        // active clients below drive load.
        for (std::size_t i = 0; i < target; ++i) {
          auto conn =
              std::make_unique<gateway::KeepAliveClient>(port.value());
          auto r = conn->Get("/post?id=" + std::to_string(i % 50 + 1));
          if (!r.ok() || r->status != 200) break;
          herd.push_back(std::move(conn));
        }
      }
      auto drive = [&](std::size_t n) {
        return DriveClients(kClients, n, [&](std::size_t c) {
          auto conn =
              std::make_shared<gateway::KeepAliveClient>(port.value());
          return [&, conn, c](std::size_t i) {
            auto resp = conn->RoundTrip(crawl[(c * n + i) % crawl.size()]);
            return resp.ok();
          };
        });
      };
      // Warmup leg (engine caches, allocator, scheduler), then a measured
      // leg long enough to average out single-core scheduling noise.
      drive(per_client / 2 + 1);
      RunResult r = drive(options.quick ? 120 : 300);
      if (sustained_out != nullptr) {
        // Every parked connection must still answer on its ORIGINAL socket:
        // a reconnect means the server dropped it under the idle mass.
        std::size_t sustained = 0;
        for (auto& conn : herd) {
          auto probe = conn->Get("/post?id=1");
          if (probe.ok() && probe->status == 200 &&
              conn->reconnects() == 0) {
            ++sustained;
          }
        }
        *sustained_out = sustained;
        herd.clear();  // close the herd before stopping the server
      }
      server.Stop();
      return r;
    };

    std::size_t sustained = 0;
    double epoll_qps = 0, epoll_p99 = 0, no_idle_qps = 0, no_idle_p99 = 0;
    {
      auto proto = attack::MakeTestbed();
      core::JozaConfig config;
      config.cache_capacity = 1 << 16;
      core::Joza joza = core::Joza::Install(*proto, config);
      // The same server and active load with no parked connections.
      // Measured first so any process-wide cold-start cost lands on
      // neither comparison leg unfairly.
      RunResult r = run_load(joza, nullptr);
      no_idle_qps = r.qps();
      no_idle_p99 = r.p99_ms;
    }
    {
      auto proto = attack::MakeTestbed();
      core::JozaConfig config;
      config.cache_capacity = 1 << 16;
      core::Joza joza = core::Joza::Install(*proto, config);
      RunResult r = run_load(joza, &sustained);
      epoll_qps = r.qps();
      epoll_p99 = r.p99_ms;
    }

    Table scale({"Idle conns", "QPS", "p99 ms"});
    scale.AddRow({std::to_string(sustained), Num(epoll_qps, 0),
                  Num(epoll_p99, 3)});
    scale.AddRow({"0", Num(no_idle_qps, 0), Num(no_idle_p99, 3)});
    scale.Print("Connection scale (active load under " +
                std::to_string(target) + " parked keep-alive connections)");

    result.AddInfo("connscale.sustained", static_cast<double>(sustained),
                   "conns");
    result.AddInfo("connscale.epoll.qps", epoll_qps, "qps");
    result.AddInfo("connscale.epoll.p99_ms", epoll_p99, "ms");
    result.AddInfo("connscale.no_idle.qps", no_idle_qps, "qps");
    result.AddInfo("connscale.no_idle.p99_ms", no_idle_p99, "ms");
    if (target >= 256) {
      result.RequireGe("every parked connection survives and answers",
                       "connscale.sustained",
                       static_cast<double>(target));
      // Slack bounds: carrying the idle mass must leave the active load
      // in range of the same server without it. Machine-dependent, so
      // gated with grace margins.
      result.RequireGe("qps under idle mass within 25% of no idle mass",
                       "connscale.epoll.qps", no_idle_qps * 0.75);
      result.RequireLe("p99 under idle mass bounded vs no idle mass",
                       "connscale.epoll.p99_ms", no_idle_p99 * 1.5 + 0.25);
    } else {
      std::printf("connscale: fd limit %llu too low, gates skipped\n",
                  static_cast<unsigned long long>(lim.rlim_cur));
    }
  }
  return result;
}

}  // namespace joza::benchkit
