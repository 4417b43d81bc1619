// joza_gateway: serve the protected testbed behind the concurrent gateway.
//
//   joza_gateway [--port N] [--workers N] [--cache-capacity N]
//                [--event-shards N]
//                [--pti inproc|pool] [--pool-size N] [--duration SECONDS]
//                [--deadline-ms N] [--degraded fail-closed|nti-only]
//                [--breaker-threshold N] [--fault point[:rate]]...
//                [--restart-budget N] [--snapshot-path FILE]
//                [--source-updates N]
//                [--tenants FILE] [--memory-budget-mb N]
//                [--unknown-tenant default|404]
//
// Binds 127.0.0.1 (port 0 picks a free port), installs one shared Joza
// engine across the whole handler pool, and serves until the duration
// elapses (0 = forever, until SIGINT/SIGTERM). With --pti pool, PTI
// analysis runs out-of-process through the daemon pool, the deployment
// shape Section IV-C1 describes. On exit it prints one "<source>.<name>
// <value>" line per counter (engine, gateway, shards, breaker or fleet and
// tenants, pool), beside the degraded mode and the breaker and tenant state
// names.
//
// Serving: --event-shards edge-triggered event-loop shards (default:
// hardware threads, must be >= 1), each owning its own SO_REUSEPORT accept
// socket, frame requests and hand them to --workers handler threads, each
// with a private copy of the testbed application.
//
// Fault tolerance knobs: --deadline-ms bounds each request's processing
// budget, and a request that waited that long for a handler is shed with
// 503 (0 disables both), --degraded picks what happens while the PTI
// backend is down (blocked via error virtualization, or NTI-only
// verdicts), --breaker-threshold sets the circuit breaker's
// consecutive-failure trip point (0 disables the breaker), and each
// --fault arms a fault-injection point (daemon-hang, daemon-kill,
// frame-corrupt, short-write, accept-fail, spawn-fail, snapshot-io) at the
// given rate in [0,1] (bare name = always fire).
//
// Resilience knobs: --restart-budget sizes the daemon pool's restart bucket
// (0 admits every restart), --snapshot-path persists every
// published ruleset generation to a checksummed snapshot file and
// warm-starts from it after a crash, and --source-updates applies N
// synthetic fragment updates at startup (each advances the ruleset version
// and persists — the kill -9 recovery smoke test's version source).
//
// Multi-tenant knobs: --tenants names a spec file (one tenant id per line,
// '#' comments) and switches the server to a tenant::Fleet of per-tenant
// engines, routed by the X-Joza-Tenant header or a /t/<tenant>/ URL prefix
// (the default tenant serves unrouted traffic). --memory-budget-mb bounds
// the fleet's hot resident set (0 = unbudgeted; a demoted tenant keeps only
// its fragment vocabulary in memory and rebuilds its engine on next
// touch), and --unknown-tenant picks the policy for unregistered ids (fall
// back to the default tenant, or answer 404). With --snapshot-path each
// tenant persists to and warm-starts from <path>.<tenant>; the
// single-engine gateway does the same as the default tenant.
//
// Exit codes: 0 success, 2 config/usage parse failure (including
// --cache-capacity 0 and a tenant larger than the whole --memory-budget-mb),
// 3 bind/listen failure.
#include <csignal>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "attack/catalog.h"
#include "core/joza.h"
#include "gateway/gateway.h"
#include "ipc/daemon_pool.h"
#include "phpsrc/fragments.h"
#include "resilience/circuit_breaker.h"
#include "resilience/injector.h"
#include "resilience/snapshot.h"
#include "tenant/fleet.h"
#include "util/counters.h"

namespace {

constexpr int kExitConfigError = 2;
constexpr int kExitBindError = 3;

std::atomic<bool> g_stop{false};

void OnSignal(int) { g_stop.store(true); }

int UsageError(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--port N] [--workers N] [--cache-capacity N]\n"
      "          [--event-shards N]\n"
      "          [--pti inproc|pool] [--pool-size N] [--duration SECONDS]\n"
      "          [--deadline-ms N] [--degraded fail-closed|nti-only]\n"
      "          [--breaker-threshold N] [--fault point[:rate]]...\n"
      "          [--restart-budget N] [--snapshot-path FILE]\n"
      "          [--source-updates N]\n"
      "          [--tenants FILE] [--memory-budget-mb N]\n"
      "          [--unknown-tenant default|404]\n",
      argv0);
  return kExitConfigError;
}

// One tenant id per line; blank lines and '#' comments ignored.
bool ReadTenantSpec(const std::string& path, std::vector<std::string>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    const std::size_t end = line.find_last_not_of(" \t\r");
    out->push_back(line.substr(start, end - start + 1));
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace joza;

  int port = 0;
  std::size_t workers = 4;
  std::size_t cache_capacity = core::JozaConfig{}.cache_capacity;
  std::size_t event_shards = std::thread::hardware_concurrency();
  if (event_shards == 0) event_shards = 1;
  std::size_t pool_size = 4;
  bool use_pool = false;
  long duration_s = 0;
  long deadline_ms = 2000;
  double restart_budget = 16;
  std::string snapshot_path;
  long source_updates = 0;
  std::string tenants_file;
  long memory_budget_mb = 0;
  gateway::GatewayConfig::UnknownTenant unknown_tenant =
      gateway::GatewayConfig::UnknownTenant::kDefaultTenant;
  std::size_t breaker_threshold = 5;
  joza::core::DegradedMode degraded_mode =
      joza::core::DegradedMode::kFailClosed;

  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* value = nullptr;
    if (std::strcmp(argv[i], "--port") == 0 && (value = next())) {
      port = std::atoi(value);
    } else if (std::strcmp(argv[i], "--workers") == 0 && (value = next())) {
      workers = static_cast<std::size_t>(std::atol(value));
    } else if (std::strcmp(argv[i], "--cache-capacity") == 0 &&
               (value = next())) {
      cache_capacity = static_cast<std::size_t>(std::atol(value));
      if (cache_capacity == 0) {
        std::fprintf(stderr, "--cache-capacity must be >= 1\n");
        return UsageError(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--event-shards") == 0 &&
               (value = next())) {
      event_shards = static_cast<std::size_t>(std::atol(value));
      if (event_shards == 0) {
        std::fprintf(stderr, "--event-shards must be >= 1\n");
        return UsageError(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--pool-size") == 0 && (value = next())) {
      pool_size = static_cast<std::size_t>(std::atol(value));
    } else if (std::strcmp(argv[i], "--pti") == 0 && (value = next())) {
      if (std::strcmp(value, "pool") == 0) {
        use_pool = true;
      } else if (std::strcmp(value, "inproc") != 0) {
        return UsageError(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--duration") == 0 && (value = next())) {
      duration_s = std::atol(value);
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0 && (value = next())) {
      deadline_ms = std::atol(value);
    } else if (std::strcmp(argv[i], "--restart-budget") == 0 &&
               (value = next())) {
      restart_budget = std::atof(value);
    } else if (std::strcmp(argv[i], "--snapshot-path") == 0 &&
               (value = next())) {
      snapshot_path = value;
    } else if (std::strcmp(argv[i], "--source-updates") == 0 &&
               (value = next())) {
      source_updates = std::atol(value);
    } else if (std::strcmp(argv[i], "--tenants") == 0 && (value = next())) {
      tenants_file = value;
    } else if (std::strcmp(argv[i], "--memory-budget-mb") == 0 &&
               (value = next())) {
      memory_budget_mb = std::atol(value);
    } else if (std::strcmp(argv[i], "--unknown-tenant") == 0 &&
               (value = next())) {
      if (std::strcmp(value, "404") == 0) {
        unknown_tenant = gateway::GatewayConfig::UnknownTenant::kNotFound;
      } else if (std::strcmp(value, "default") != 0) {
        std::fprintf(stderr, "bad --unknown-tenant '%s' (default|404)\n",
                     value);
        return UsageError(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--breaker-threshold") == 0 &&
               (value = next())) {
      breaker_threshold = static_cast<std::size_t>(std::atol(value));
    } else if (std::strcmp(argv[i], "--degraded") == 0 && (value = next())) {
      if (std::strcmp(value, "nti-only") == 0) {
        degraded_mode = core::DegradedMode::kNtiOnly;
      } else if (std::strcmp(value, "fail-closed") != 0) {
        return UsageError(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--fault") == 0 && (value = next())) {
      if (Status st = resilience::ArmFromSpec(
              resilience::FaultInjector::Global(), value);
          !st.ok()) {
        std::fprintf(stderr, "bad --fault spec '%s': %s\n", value,
                     st.ToString().c_str());
        return UsageError(argv[0]);
      }
    } else {
      return UsageError(argv[0]);
    }
  }

  auto proto = attack::MakeTestbed();
  core::JozaConfig config;
  config.cache_capacity = cache_capacity;
  config.degraded_mode = degraded_mode;
  config.breaker.failure_threshold = breaker_threshold;

  // Warm start: recover the fragment vocabulary + ruleset version from the
  // crash-durable snapshot. Any anomaly (missing, truncated, corrupt,
  // wrong format) loads fail-closed: cold start from the application
  // sources at version 0 — a bad snapshot never widens the vocabulary.
  php::FragmentSet seed = php::FragmentSet::FromSources(proto->sources());
  const bool fleet_mode = !tenants_file.empty();

  // Warm start (single-engine mode; the fleet does its own per-tenant
  // loads). The engine reads and writes the default tenant's qualified
  // snapshot path.
  std::uint64_t recovered_version = 0;
  bool warm_started = false;
  const std::string engine_snapshot_path =
      resilience::TenantSnapshotPath(snapshot_path,
                                     resilience::kDefaultTenantName);
  if (!fleet_mode && !snapshot_path.empty()) {
    auto snap = resilience::LoadRulesetSnapshot(engine_snapshot_path);
    if (snap.ok()) {
      recovered_version = snap->version;
      seed = std::move(snap->fragments);
      warm_started = true;
    } else {
      std::fprintf(stderr, "snapshot not recovered (cold start): %s\n",
                   snap.status().ToString().c_str());
    }
  }
  config.initial_ruleset_version = recovered_version;
  core::Joza joza(seed, config);
  if (warm_started) {
    joza.NoteSnapshotLoad();
    std::printf("warm start: ruleset version %llu (%zu fragments) from %s\n",
                static_cast<unsigned long long>(recovered_version),
                seed.size(), engine_snapshot_path.c_str());
  }
  if (!fleet_mode && !snapshot_path.empty()) {
    joza.SetSnapshotSink(
        [path = engine_snapshot_path](const php::FragmentSet& fragments,
                                      std::uint64_t version) {
          return resilience::SaveRulesetSnapshot(path, fragments, version);
        });
  }

  std::unique_ptr<ipc::DaemonPool> pool;
  if (use_pool && !fleet_mode) {
    ipc::DaemonPool::Options options;
    options.max_size = pool_size;
    options.supervisor.restart_budget = restart_budget;
    options.base_version = recovered_version;
    pool = std::make_unique<ipc::DaemonPool>(seed, options);
    joza.SetPtiBackend(pool->AsPtiBackend());
  }

  // Multi-tenant fleet: every listed tenant gets the testbed vocabulary
  // plus one tenant-unique marker fragment, so cross-tenant routing bugs
  // change verdicts instead of hiding behind identical rulesets.
  std::unique_ptr<tenant::Fleet> fleet;
  if (fleet_mode) {
    std::vector<std::string> ids;
    if (!ReadTenantSpec(tenants_file, &ids)) {
      std::fprintf(stderr, "cannot read --tenants file %s\n",
                   tenants_file.c_str());
      return kExitConfigError;
    }
    tenant::FleetOptions fopts;
    fopts.engine = config;
    fopts.engine.initial_ruleset_version = 0;  // per-tenant versions
    fopts.memory_budget_bytes =
        static_cast<std::uint64_t>(memory_budget_mb) * 1024 * 1024;
    fopts.use_daemon_pool = use_pool;
    fopts.pool.max_size = pool_size;
    fopts.pool.supervisor.restart_budget = restart_budget;
    fopts.snapshot_base = snapshot_path;
    fleet = std::make_unique<tenant::Fleet>(fopts);
    // A tenant larger than the whole budget could never be admitted: every
    // request to it would be answered 503. Refuse to start instead.
    auto admissible = [&](const std::string& id,
                          const php::FragmentSet& fragments) {
      const std::uint64_t need =
          tenant::Fleet::EstimateHotBytes(fragments, fopts.engine);
      if (fopts.memory_budget_bytes == 0 || need <= fopts.memory_budget_bytes) {
        return true;
      }
      std::fprintf(stderr,
                   "tenant %s needs an estimated %llu bytes hot, more than "
                   "the whole --memory-budget-mb %ld (%llu bytes): it could "
                   "never be admitted\n",
                   id.c_str(), static_cast<unsigned long long>(need),
                   memory_budget_mb,
                   static_cast<unsigned long long>(fopts.memory_budget_bytes));
      return false;
    };
    if (!admissible(tenant::kDefaultTenant, seed)) return kExitConfigError;
    if (Status st = fleet->AddTenant(tenant::kDefaultTenant, seed);
        !st.ok()) {
      std::fprintf(stderr, "default tenant: %s\n", st.ToString().c_str());
      return kExitConfigError;
    }
    for (const std::string& id : ids) {
      if (id == tenant::kDefaultTenant) continue;
      php::FragmentSet tenant_seed = seed;
      tenant_seed.AddRaw("SELECT marker_" + id + " FROM posts",
                         "tenant/" + id + ".php");
      if (!admissible(id, tenant_seed)) return kExitConfigError;
      if (Status st = fleet->AddTenant(id, std::move(tenant_seed));
          !st.ok()) {
        std::fprintf(stderr, "tenant %s: %s\n", id.c_str(),
                     st.ToString().c_str());
        return kExitConfigError;
      }
    }
  }

  gateway::GatewayConfig gcfg;
  gcfg.port = port;
  gcfg.workers = workers;
  gcfg.event_shards = event_shards;
  gcfg.request_deadline = std::chrono::milliseconds(deadline_ms);
  gcfg.unknown_tenant = unknown_tenant;
  auto factory = [] { return attack::MakeTestbed(); };
  auto server =
      fleet ? std::make_unique<gateway::GatewayServer>(factory, fleet.get(),
                                                       gcfg)
            : std::make_unique<gateway::GatewayServer>(factory, &joza, gcfg);
  auto bound = server->Start();
  if (!bound.ok()) {
    std::fprintf(stderr, "start failed: %s\n",
                 bound.status().ToString().c_str());
    return kExitBindError;
  }
  std::printf(
      "joza_gateway on 127.0.0.1:%d  (%zu workers, cache %zu, PTI %s,\n"
      "              deadline %ld ms, degraded %s, breaker threshold %zu,\n"
      "              restart budget %.0f)\n",
      bound.value(), workers, cache_capacity,
      use_pool ? "daemon pool" : "in-process", deadline_ms,
      core::DegradedModeName(degraded_mode), breaker_threshold,
      restart_budget);
  std::printf("serving:      %zu event shards, %zu handler threads\n",
              server->shard_count(), workers);
  if (fleet) {
    std::printf("fleet:        %llu tenants, budget %ld MB, "
                "unknown-tenant %s\n",
                static_cast<unsigned long long>(fleet->stats().tenants),
                memory_budget_mb,
                unknown_tenant ==
                        gateway::GatewayConfig::UnknownTenant::kNotFound
                    ? "404"
                    : "default");
  }
  for (unsigned p = 0;
       p < static_cast<unsigned>(resilience::FaultPoint::kCount); ++p) {
    const auto point = static_cast<resilience::FaultPoint>(p);
    if (resilience::FaultInjector::Global().armed(point)) {
      std::printf("fault armed:  %s at rate %.3f\n",
                  resilience::FaultPointName(point),
                  resilience::FaultInjector::Global().rate(point));
    }
  }
  std::printf("try: curl 'http://127.0.0.1:%d/post?id=7'\n", bound.value());
  std::printf("     curl 'http://127.0.0.1:%d"
              "/plugins/community-events?uid=-1%%20or%%201%%3D1'\n",
              bound.value());

  // Synthetic fragment updates: each advances the ruleset version by one
  // and (with --snapshot-path) persists the new generation — the version
  // source for the kill -9 warm-restart smoke test.
  for (long u = 1; u <= source_updates; ++u) {
    const std::string marker =
        "update_marker_" +
        std::to_string(recovered_version + static_cast<std::uint64_t>(u));
    php::SourceFile file;
    file.path = "synthetic/update_" + std::to_string(u) + ".php";
    file.content = "<?php $q = \"SELECT " + marker + " FROM posts\"; ?>";
    if (fleet) {
      // Updates apply to hot tenants; pin the default tenant first so the
      // update lands (and persists through its tenant-qualified sink).
      (void)fleet->Acquire(tenant::kDefaultTenant);
      (void)fleet->OnSourcesChanged(tenant::kDefaultTenant, {file});
    } else {
      joza.OnSourcesChanged({file});
      if (pool) {
        (void)pool->AddFragments({"SELECT " + marker + " FROM posts"});
      }
    }
  }
  if (source_updates > 0) {
    const std::uint64_t version = fleet
                                      ? fleet->AggregateEngineStats()
                                            .ruleset_version
                                      : joza.ruleset_version();
    std::printf("applied %ld source updates; ruleset version now %llu\n",
                source_updates, static_cast<unsigned long long>(version));
    std::fflush(stdout);
  }

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(duration_s);
  while (!g_stop.load()) {
    if (duration_s > 0 && std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (pool) pool->ReapIdle();
    if (fleet) fleet->ReapIdle();
  }

  server->Stop();
  // Shutdown dump: one "<source>.<name> <value>" line per counter, beside
  // the state names.
  auto dump = [](const std::string& source, const CounterList& counters) {
    for (const auto& [name, value] : counters) {
      std::printf("%s.%s %llu\n", source.c_str(), name,
                  static_cast<unsigned long long>(value));
    }
  };
  std::printf("\nengine.degraded_mode %s\n",
              core::DegradedModeName(degraded_mode));
  dump("engine",
       (fleet ? fleet->AggregateEngineStats() : joza.stats()).Counters());
  dump("gateway", server->stats().Counters());
  const std::vector<gateway::ShardStats> shards = server->shard_stats();
  for (std::size_t s = 0; s < shards.size(); ++s) {
    dump("shard" + std::to_string(s), shards[s].Counters());
  }
  if (fleet) {
    dump("fleet", fleet->stats().Counters());
    for (const tenant::TenantInfo& ti : fleet->TenantInfos()) {
      std::printf("tenant.%s.state %s\n", ti.id.c_str(),
                  ti.resident ? "hot" : "cold");
      dump("tenant." + ti.id, ti.Counters());
      dump("tenant." + ti.id + ".engine", ti.engine.Counters());
    }
  } else {
    // Per-engine breaker; fleet tenants each own one.
    std::printf("breaker.state %s\n",
                resilience::BreakerStateName(joza.breaker().state()));
    dump("breaker", joza.breaker().stats().Counters());
  }
  if (pool) {
    dump("pool", pool->stats().Counters());
    pool->Shutdown();
  }
  return 0;
}
