// multitenant: the tenant fleet's tiered-residency manager under a Zipf
// tenant popularity curve, 64 tenants with a budget that admits ~8 hot.
//
// Phases:
//   1. Verdict parity (gated): an identical seeded event sequence — Zipf
//      tenant picks over mixed benign/attack traffic — is driven through a
//      budgeted fleet (demote/promote churn) and an unbudgeted fleet
//      (every tenant stays hot). Every per-event verdict must match:
//      residency tiering may cost cache warmth, never a verdict. The
//      residency ledger must also never exceed the budget (asserted via the
//      fleet's own peak accounting), churn must actually have happened
//      (cold loads + demotions observed), and no Acquire may fail
//      (fail-closed refusals would surface here).
//   2. Cold-attack sweep (gated): over the wire, one exploit per tenant
//      against a gateway whose every tenant starts cold. Each first-touch
//      promotion must complete and block the attack — a tenant is never
//      served fail-open while its vocabulary is being rebuilt.
//   3. Zipf load under churn (gated): 8 keep-alive clients drive benign
//      Zipf traffic through the budgeted gateway and the unbudgeted one.
//      Budgeted p99 may pay for promotion stalls but must stay within a
//      generous multiple of the unbudgeted tail; no transport failures, no
//      routing 404s, no fail-closed 503s.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "attack/catalog.h"
#include "attack/exploit.h"
#include "attack/workload.h"
#include "benchkit/metrics.h"
#include "benchkit/suites.h"
#include "core/joza.h"
#include "gateway/client.h"
#include "gateway/gateway.h"
#include "http/request.h"
#include "phpsrc/fragments.h"
#include "tenant/fleet.h"

namespace joza::benchkit {

namespace {

constexpr std::size_t kTenants = 64;
constexpr double kZipfSkew = 1.2;

std::string TenantName(std::size_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "t%02zu", i);
  return buf;
}

// Cumulative Zipf(s) distribution over ranks 1..kTenants; tenant index ==
// popularity rank, so t00 is the hottest tenant.
std::vector<double> ZipfCdf() {
  std::vector<double> cdf(kTenants);
  double sum = 0;
  for (std::size_t i = 0; i < kTenants; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), kZipfSkew);
    cdf[i] = sum;
  }
  for (double& c : cdf) c /= sum;
  return cdf;
}

std::size_t SampleZipf(const std::vector<double>& cdf, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  const double u = uniform(rng);
  return static_cast<std::size_t>(
      std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
}

// Per-tenant seed vocabularies: the shared testbed sources plus one marker
// fragment so every tenant's ruleset is distinct.
std::vector<php::FragmentSet> MakeTenantSeeds() {
  auto app = attack::MakeTestbed();
  std::vector<php::FragmentSet> seeds;
  seeds.reserve(kTenants);
  for (std::size_t i = 0; i < kTenants; ++i) {
    php::FragmentSet seed = php::FragmentSet::FromSources(app->sources());
    seed.AddRaw("SELECT marker_" + TenantName(i) + " FROM posts",
                "tenant/" + TenantName(i) + ".php");
    seeds.push_back(std::move(seed));
  }
  return seeds;
}

core::JozaConfig EngineConfig() {
  core::JozaConfig config;
  // Small verdict cache: keeps the per-tenant byte estimate (and thus the
  // budget that admits ~8 tenants) dominated by the vocabulary, not cache
  // slots.
  config.cache_capacity = 4096;
  return config;
}

tenant::FleetOptions MakeFleetOptions(std::uint64_t budget_bytes) {
  tenant::FleetOptions opts;
  opts.engine = EngineConfig();
  opts.memory_budget_bytes = budget_bytes;
  return opts;
}

Status PopulateFleet(tenant::Fleet& fleet,
                     const std::vector<php::FragmentSet>& seeds) {
  for (std::size_t i = 0; i < kTenants; ++i) {
    Status s = fleet.AddTenant(TenantName(i), seeds[i]);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

struct MixedEvent {
  http::Request request;
  bool is_attack = false;
};

// Benign crawl traffic with the full original-exploit set mixed in; the
// event stream cycles through this deterministically.
std::vector<MixedEvent> MakeMixedTraffic(std::uint64_t seed) {
  std::vector<MixedEvent> mixed;
  for (attack::WorkloadRequest& wr : attack::MakeCrawlWorkload(48, seed)) {
    mixed.push_back({std::move(wr.request), false});
  }
  for (const auto* plugin : attack::TestbedPlugins()) {
    attack::Exploit e = attack::OriginalExploit(*plugin);
    mixed.push_back(
        {http::Request::Get(plugin->route, {{plugin->param, e.payload}}),
         true});
  }
  // Deterministic interleave so attacks land on a spread of tenants rather
  // than clustering at the cycle tail.
  std::mt19937_64 rng(seed ^ 0x6d74u);
  std::shuffle(mixed.begin(), mixed.end(), rng);
  return mixed;
}

struct InProcessRun {
  std::vector<char> blocked;  // per-event verdict (response status == 500)
  std::size_t blocked_total = 0;
  std::size_t acquire_errors = 0;
  tenant::FleetStats stats;
  double seconds = 0;
  bool setup_failed = false;
};

// Drives the identical event sequence through one fleet, in process and
// single-threaded: determinism is the point, this is the parity reference
// and its budgeted mirror.
InProcessRun DriveInProcess(std::uint64_t budget_bytes,
                            const std::vector<php::FragmentSet>& seeds,
                            const std::vector<std::size_t>& tenant_seq,
                            const std::vector<MixedEvent>& mixed) {
  InProcessRun out;
  tenant::Fleet fleet(MakeFleetOptions(budget_bytes));
  if (!PopulateFleet(fleet, seeds).ok()) {
    out.setup_failed = true;
    return out;
  }
  auto app = attack::MakeTestbed();
  out.blocked.reserve(tenant_seq.size());
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t e = 0; e < tenant_seq.size(); ++e) {
    auto pin = fleet.Acquire(TenantName(tenant_seq[e]));
    if (!pin.ok()) {
      ++out.acquire_errors;
      out.blocked.push_back(0);
      continue;
    }
    app->SetQueryGate(pin.value()->MakeGate());
    const http::Response resp =
        app->Handle(mixed[e % mixed.size()].request);
    app->SetQueryGate(nullptr);
    const char blocked = resp.status == 500 ? 1 : 0;
    out.blocked.push_back(blocked);
    out.blocked_total += blocked;
  }
  const auto end = std::chrono::steady_clock::now();
  out.seconds = std::chrono::duration<double>(end - start).count();
  out.stats = fleet.stats();
  return out;
}

http::Request WithTenant(http::Request request, const std::string& id) {
  request.headers.emplace_back(http::InputKind::kHeader, "X-Joza-Tenant", id);
  return request;
}

}  // namespace

SuiteResult RunMultitenantSuite(const SuiteOptions& options) {
  SuiteResult result("multitenant", options);

  const std::vector<php::FragmentSet> seeds = MakeTenantSeeds();
  const core::JozaConfig engine_config = EngineConfig();
  // Budget sized in the fleet's own estimate units: room for ~8.5 average
  // tenants, so the Zipf head stays resident and the tail churns.
  std::uint64_t per_tenant = 0;
  for (const php::FragmentSet& seed : seeds) {
    per_tenant = std::max(per_tenant,
                          tenant::Fleet::EstimateHotBytes(seed,
                                                          engine_config));
  }
  const std::uint64_t budget = per_tenant * 8 + per_tenant / 2;
  result.AddInfo("budget.per_tenant_bytes",
                 static_cast<double>(per_tenant), "bytes");
  result.AddInfo("budget.bytes", static_cast<double>(budget), "bytes");

  const std::vector<double> cdf = ZipfCdf();
  const std::vector<MixedEvent> mixed = MakeMixedTraffic(options.seed);

  // --- Phase 1: in-process verdict parity, budgeted vs unbudgeted ---------
  const std::size_t events = options.quick ? 2000 : 8000;
  std::vector<std::size_t> tenant_seq(events);
  {
    std::mt19937_64 rng(options.seed);
    for (std::size_t& t : tenant_seq) t = SampleZipf(cdf, rng);
  }

  InProcessRun unbudgeted = DriveInProcess(0, seeds, tenant_seq, mixed);
  InProcessRun budgeted = DriveInProcess(budget, seeds, tenant_seq, mixed);
  if (unbudgeted.setup_failed || budgeted.setup_failed) {
    result.AddExact("setup.failed", 1);
    result.RequireEq("fleets construct", "setup.failed", 0);
    return result;
  }

  std::size_t verdict_diff = 0;
  for (std::size_t e = 0; e < events; ++e) {
    if (budgeted.blocked[e] != unbudgeted.blocked[e]) ++verdict_diff;
  }

  Table parity({"Fleet", "Blocked", "Resident", "Peak MB", "Cold loads",
                "Demotions", "QPS"});
  auto parity_row = [&](const char* name, const InProcessRun& run) {
    parity.AddRow({name, std::to_string(run.blocked_total),
                   std::to_string(run.stats.resident),
                   Num(run.stats.peak_resident_bytes / (1024.0 * 1024.0), 2),
                   std::to_string(run.stats.cold_loads),
                   std::to_string(run.stats.demotions),
                   Num(run.seconds > 0 ? events / run.seconds : 0, 0)});
  };
  parity_row("unbudgeted", unbudgeted);
  parity_row("budgeted", budgeted);
  parity.Print("Verdict parity, " + std::to_string(events) +
               " Zipf events over " + std::to_string(kTenants) + " tenants");

  result.AddExact("parity.verdict_diff", static_cast<double>(verdict_diff));
  result.RequireEq("budgeted verdicts identical to unbudgeted",
                   "parity.verdict_diff", 0);
  result.AddExact("parity.blocked", static_cast<double>(budgeted.blocked_total));
  result.AddExact("parity.acquire_errors",
                  static_cast<double>(budgeted.acquire_errors +
                                      unbudgeted.acquire_errors));
  result.RequireEq("no acquire ever fails closed while every tenant fits",
                   "parity.acquire_errors", 0);
  result.AddExact("parity.fleet_acquire_failures",
                  static_cast<double>(budgeted.stats.acquire_failures +
                                      unbudgeted.stats.acquire_failures));
  result.RequireEq("fleet ledgers agree: zero acquire failures",
                   "parity.fleet_acquire_failures", 0);
  result.AddExact("ledger.budget_exceeded",
                  budgeted.stats.peak_resident_bytes > budget ? 1 : 0);
  result.RequireEq("resident-set peak never exceeds the budget",
                   "ledger.budget_exceeded", 0);
  result.AddExact("ledger.unbudgeted_all_resident",
                  unbudgeted.stats.resident == kTenants ? 1 : 0);
  result.RequireEq("unbudgeted fleet keeps every tenant hot",
                   "ledger.unbudgeted_all_resident", 1);
  result.AddExact("residency.churned",
                  budgeted.stats.cold_loads >= kTenants &&
                          budgeted.stats.demotions > 0
                      ? 1
                      : 0);
  result.RequireEq("the budget actually forced residency churn",
                   "residency.churned", 1);
  result.AddInfo("residency.cold_loads",
                 static_cast<double>(budgeted.stats.cold_loads), "count");
  result.AddInfo("residency.demotions",
                 static_cast<double>(budgeted.stats.demotions), "count");
  result.AddInfo("residency.peak_resident_mb",
                 budgeted.stats.peak_resident_bytes / (1024.0 * 1024.0),
                 "MB");
  result.AddInfo("parity.budgeted_qps",
                 budgeted.seconds > 0 ? events / budgeted.seconds : 0, "qps");
  result.AddInfo("parity.unbudgeted_qps",
                 unbudgeted.seconds > 0 ? events / unbudgeted.seconds : 0,
                 "qps");

  // --- Phase 2: over-the-wire cold-attack sweep ---------------------------
  // Every tenant starts cold; its first-ever request is an exploit. The
  // promotion path must rebuild the vocabulary and still block — serving
  // fail-open during a cold load would show up as a 200 here.
  {
    tenant::Fleet fleet(MakeFleetOptions(budget));
    std::size_t swept_blocked = 0;
    std::size_t transport_failures = 0;
    if (PopulateFleet(fleet, seeds).ok()) {
      gateway::GatewayConfig gcfg;
      gcfg.workers = 8;
      gateway::GatewayServer server([] { return attack::MakeTestbed(); },
                                    &fleet, gcfg);
      auto port = server.Start();
      if (port.ok()) {
        const auto* plugin = attack::TestbedPlugins().front();
        attack::Exploit e = attack::OriginalExploit(*plugin);
        const http::Request exploit = http::Request::Get(
            plugin->route, {{plugin->param, e.payload}});
        gateway::KeepAliveClient client(port.value());
        for (std::size_t i = 0; i < kTenants; ++i) {
          auto resp = client.Send(WithTenant(exploit, TenantName(i)));
          if (!resp.ok()) {
            ++transport_failures;
          } else if (resp->status == 500) {
            ++swept_blocked;
          }
        }
        const gateway::GatewayStats gs = server.stats();
        result.AddInfo("sweep.tenant_routed",
                       static_cast<double>(gs.tenant_routed), "count");
        result.AddExact("sweep.tenant_unavailable",
                        static_cast<double>(gs.tenant_unavailable));
        result.RequireEq("no fail-closed 503 while every tenant fits",
                         "sweep.tenant_unavailable", 0);
        server.Stop();
      } else {
        std::fprintf(stderr, "sweep gateway start failed\n");
        ++transport_failures;
      }
    } else {
      ++transport_failures;
    }
    const tenant::FleetStats fs = fleet.stats();
    result.AddExact("sweep.blocked", static_cast<double>(swept_blocked));
    result.RequireEq("every cold-tenant first-touch attack is blocked",
                     "sweep.blocked", static_cast<double>(kTenants));
    result.AddExact("sweep.transport_failures",
                    static_cast<double>(transport_failures));
    result.RequireEq("cold-attack sweep transport clean",
                     "sweep.transport_failures", 0);
    result.AddExact("sweep.all_tenants_promoted",
                    fs.cold_loads >= kTenants ? 1 : 0);
    result.RequireEq("the sweep promoted every tenant from cold",
                     "sweep.all_tenants_promoted", 1);
    std::printf("cold-attack sweep: %zu/%zu blocked, %llu cold loads, "
                "%llu demotions\n",
                swept_blocked, kTenants,
                static_cast<unsigned long long>(fs.cold_loads),
                static_cast<unsigned long long>(fs.demotions));
  }

  // --- Phase 3: Zipf load under residency churn, over the wire ------------
  const std::size_t kClients = 8;
  const std::size_t per_client = options.quick ? 60 : 200;
  // Pre-serialized benign requests per tenant so serialization cost stays
  // out of the measured path (both runs ship identical bytes).
  std::vector<std::vector<std::string>> raw_by_tenant(kTenants);
  {
    std::vector<attack::WorkloadRequest> crawl =
        attack::MakeCrawlWorkload(32, options.seed + 11);
    for (std::size_t t = 0; t < kTenants; ++t) {
      for (const attack::WorkloadRequest& wr : crawl) {
        raw_by_tenant[t].push_back(gateway::SerializeRequest(
            WithTenant(wr.request, TenantName(t)), /*keep_alive=*/true));
      }
    }
  }
  std::vector<std::vector<std::size_t>> zipf_seq(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    std::mt19937_64 rng(options.seed + 100 + c);
    zipf_seq[c].resize(per_client);
    for (std::size_t& t : zipf_seq[c]) t = SampleZipf(cdf, rng);
  }

  auto wire_pass = [&](std::uint64_t budget_bytes, const char* tag,
                       tenant::FleetStats* fleet_out,
                       gateway::GatewayStats* gw_out) -> RunResult {
    tenant::Fleet fleet(MakeFleetOptions(budget_bytes));
    RunResult r;
    if (!PopulateFleet(fleet, seeds).ok()) {
      r.failures = kClients * per_client;
      return r;
    }
    gateway::GatewayConfig gcfg;
    gcfg.workers = 8;
    gateway::GatewayServer server([] { return attack::MakeTestbed(); },
                                  &fleet, gcfg);
    auto port = server.Start();
    if (!port.ok()) {
      std::fprintf(stderr, "%s gateway start failed\n", tag);
      r.failures = kClients * per_client;
      return r;
    }
    // Warmup leg: settle the Zipf head into residency (and engine caches)
    // so the measured leg reflects steady-state churn, not first touches.
    DriveClients(kClients, per_client / 4 + 1, [&](std::size_t c) {
      auto conn = std::make_shared<gateway::KeepAliveClient>(port.value());
      return [&, conn, c](std::size_t i) {
        const std::size_t t = zipf_seq[c][i % per_client];
        auto resp = conn->RoundTrip(
            raw_by_tenant[t][(c * per_client + i) % raw_by_tenant[t].size()]);
        return resp.ok();
      };
    });
    r = DriveClients(kClients, per_client, [&](std::size_t c) {
      auto conn = std::make_shared<gateway::KeepAliveClient>(port.value());
      return [&, conn, c](std::size_t i) {
        const std::size_t t = zipf_seq[c][i];
        auto resp = conn->RoundTrip(
            raw_by_tenant[t][(c * per_client + i) % raw_by_tenant[t].size()]);
        return resp.ok();
      };
    });
    if (gw_out != nullptr) *gw_out = server.stats();
    server.Stop();
    if (fleet_out != nullptr) *fleet_out = fleet.stats();
    return r;
  };

  tenant::FleetStats churn_fleet;
  gateway::GatewayStats churn_gw;
  const RunResult unbudgeted_wire =
      wire_pass(0, "wire_unbudgeted", nullptr, nullptr);
  const RunResult budgeted_wire =
      wire_pass(budget, "wire_budgeted", &churn_fleet, &churn_gw);

  Table wire({"Fleet", "QPS", "p50 ms", "p99 ms", "Fail"});
  wire.AddRow({"unbudgeted", Num(unbudgeted_wire.qps(), 0),
               Num(unbudgeted_wire.p50_ms, 3), Num(unbudgeted_wire.p99_ms, 3),
               std::to_string(unbudgeted_wire.failures)});
  wire.AddRow({"budgeted", Num(budgeted_wire.qps(), 0),
               Num(budgeted_wire.p50_ms, 3), Num(budgeted_wire.p99_ms, 3),
               std::to_string(budgeted_wire.failures)});
  wire.Print("Zipf load over the wire (8 keep-alive clients)");

  result.AddInfo("wire.unbudgeted.qps", unbudgeted_wire.qps(), "qps");
  result.AddInfo("wire.unbudgeted.p99_ms", unbudgeted_wire.p99_ms, "ms");
  result.AddInfo("wire.budgeted.qps", budgeted_wire.qps(), "qps");
  result.AddInfo("wire.budgeted.p99_ms", budgeted_wire.p99_ms, "ms");
  result.AddInfo("wire.budgeted.cold_loads",
                 static_cast<double>(churn_fleet.cold_loads), "count");
  result.AddInfo("wire.budgeted.demotions",
                 static_cast<double>(churn_fleet.demotions), "count");

  result.AddExact("wire.transport_failures",
                  static_cast<double>(unbudgeted_wire.failures +
                                      budgeted_wire.failures));
  result.RequireEq("no transport failures under Zipf load",
                   "wire.transport_failures", 0);
  result.AddExact("wire.tenant_404s", static_cast<double>(churn_gw.tenant_404s));
  result.RequireEq("no routing 404s: every Zipf tenant resolves",
                   "wire.tenant_404s", 0);
  result.AddExact("wire.tenant_unavailable",
                  static_cast<double>(churn_gw.tenant_unavailable));
  result.RequireEq("no fail-closed 503 under churn",
                   "wire.tenant_unavailable", 0);
  result.AddExact("wire.budget_exceeded",
                  churn_fleet.peak_resident_bytes > budget ? 1 : 0);
  result.RequireEq("wire churn never exceeds the budget",
                   "wire.budget_exceeded", 0);
  // Bounded tail: promotions stall the unlucky request, so the budgeted
  // p99 rides the automaton-rebuild cost; the multiple is generous because
  // rebuild time is machine-dependent, but a residency-manager livelock or
  // promotion stampede still blows straight through it.
  result.AddCompared("wire.p99_ratio",
                     unbudgeted_wire.p99_ms > 0
                         ? budgeted_wire.p99_ms / unbudgeted_wire.p99_ms
                         : 0,
                     "x", Direction::kLowerBetter, /*tolerance=*/3.0,
                     /*abs_slack=*/2.0);
  result.RequireLe("budgeted p99 bounded under residency churn",
                   "wire.budgeted.p99_ms",
                   unbudgeted_wire.p99_ms * 5.0 + 20.0);

  return result;
}

}  // namespace joza::benchkit
