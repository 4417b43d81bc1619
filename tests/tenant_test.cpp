// Multi-tenant fleet suite: tenant id hygiene, gateway routing edges under
// both unknown-tenant policies, tiered hot/cold residency (verdict identity
// across demote/promote, the budget ledger, refusing a tenant the budget
// can never admit), and tenant-qualified snapshots. The
// demotion-vs-pinned-Check race test runs under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "attack/catalog.h"
#include "attack/exploit.h"
#include "core/joza.h"
#include "gateway/client.h"
#include "gateway/gateway.h"
#include "http/request.h"
#include "match/aho_corasick.h"
#include "phpsrc/fragments.h"
#include "resilience/snapshot.h"
#include "tenant/fleet.h"

namespace joza {
namespace {

// Temporary directory for the snapshot tests; removed best-effort in the
// destructor.
struct ScratchDir {
  std::string path;
  ScratchDir() {
    const char* base = std::getenv("TMPDIR");
    std::string tmpl = std::string(base != nullptr ? base : "/tmp") +
                       "/joza_tenant_test_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) != nullptr) path = buf.data();
  }
  ~ScratchDir() {
    if (path.empty()) return;
    // Only files this suite creates live here: snapshots.
    std::vector<std::string> names;
    for (const char* stem : {"alpha", "default"}) {
      names.push_back(std::string("snap.") + stem);
      names.push_back(std::string("snap.") + stem + ".tmp");
    }
    names.push_back("snap");
    names.push_back("snap.tmp");
    for (const std::string& n : names) ::unlink((path + "/" + n).c_str());
    ::rmdir(path.c_str());
  }
};

php::FragmentSet TestbedSeed() {
  auto app = attack::MakeTestbed();
  return php::FragmentSet::FromSources(app->sources());
}

php::FragmentSet TinySeed(const std::string& marker) {
  php::FragmentSet seed;
  seed.AddRaw("SELECT " + marker + " FROM posts WHERE id = %d",
              marker + ".php");
  return seed;
}

// ~200 fragments of random bytes: an automaton far larger than a
// TinySeed's.
php::FragmentSet RandomBytesSeed() {
  std::mt19937_64 rng(2015);
  php::FragmentSet seed;
  for (int i = 0; i < 200; ++i) {
    std::string text = "SELECT ";
    const std::size_t length = 1 + rng() % 40;
    for (std::size_t j = 0; j < length; ++j) {
      text.push_back(static_cast<char>(rng() % 256));
    }
    seed.AddRaw(text + " FROM t" + std::to_string(i));
  }
  return seed;
}

tenant::FleetOptions TestOptions(std::uint64_t budget = 0) {
  tenant::FleetOptions opts;
  opts.engine.cache_capacity = 1024;
  opts.memory_budget_bytes = budget;
  return opts;
}

std::uint64_t Estimate(const php::FragmentSet& seed) {
  return tenant::Fleet::EstimateHotBytes(seed, TestOptions().engine);
}

http::Request WithTenant(http::Request request, const std::string& id) {
  request.headers.emplace_back(http::InputKind::kHeader, "X-Joza-Tenant", id);
  return request;
}

http::Request ExploitRequest() {
  const auto* plugin = attack::TestbedPlugins().front();
  attack::Exploit e = attack::OriginalExploit(*plugin);
  return http::Request::Get(plugin->route, {{plugin->param, e.payload}});
}

// ---------------------------------------------------------------------------
// Tenant id grammar
// ---------------------------------------------------------------------------

TEST(TenantId, AcceptsSafeNames) {
  EXPECT_TRUE(tenant::ValidTenantId("default"));
  EXPECT_TRUE(tenant::ValidTenantId("t00"));
  EXPECT_TRUE(tenant::ValidTenantId("Acme-Corp_42"));
  EXPECT_TRUE(tenant::ValidTenantId("a"));
  EXPECT_TRUE(tenant::ValidTenantId(std::string(64, 'x')));
}

TEST(TenantId, RejectsTraversalAndOversize) {
  EXPECT_FALSE(tenant::ValidTenantId(""));
  EXPECT_FALSE(tenant::ValidTenantId(std::string(65, 'x')));
  // Ids become cold-store / snapshot file name components: no dots or
  // separators, so none of these can escape the configured directory.
  EXPECT_FALSE(tenant::ValidTenantId(".."));
  EXPECT_FALSE(tenant::ValidTenantId("../evil"));
  EXPECT_FALSE(tenant::ValidTenantId("..%2fevil"));
  EXPECT_FALSE(tenant::ValidTenantId("a/b"));
  EXPECT_FALSE(tenant::ValidTenantId("a\\b"));
  EXPECT_FALSE(tenant::ValidTenantId("a.b"));
  EXPECT_FALSE(tenant::ValidTenantId("a b"));
  EXPECT_FALSE(tenant::ValidTenantId("a\nb"));
  EXPECT_FALSE(tenant::ValidTenantId("caf\xc3\xa9"));
}

// ---------------------------------------------------------------------------
// Fleet registry basics
// ---------------------------------------------------------------------------

TEST(Fleet, AddTenantValidates) {
  tenant::Fleet fleet({});
  EXPECT_TRUE(fleet.AddTenant("alpha", TinySeed("alpha")).ok());
  EXPECT_FALSE(fleet.AddTenant("alpha", TinySeed("alpha")).ok())
      << "duplicate ids must be rejected";
  EXPECT_FALSE(fleet.AddTenant("../evil", TinySeed("evil")).ok());
  EXPECT_FALSE(fleet.AddTenant("", TinySeed("x")).ok());
  EXPECT_TRUE(fleet.Has("alpha"));
  EXPECT_FALSE(fleet.Has("beta"));
}

TEST(Fleet, AcquireUnknownTenantIsNotFound) {
  tenant::Fleet fleet({});
  ASSERT_TRUE(fleet.AddTenant("alpha", TinySeed("alpha")).ok());
  auto pin = fleet.Acquire("ghost");
  EXPECT_FALSE(pin.ok());
}

// ---------------------------------------------------------------------------
// Demote / promote: verdict identity and version continuity
// ---------------------------------------------------------------------------

TEST(Fleet, DemotePromoteKeepsVerdictsAndVersion) {
  tenant::Fleet fleet(TestOptions());
  ASSERT_TRUE(fleet.AddTenant("alpha", TestbedSeed()).ok());

  auto app = attack::MakeTestbed();
  const http::Request benign = http::Request::Get("/post", {{"id", "1"}});
  const http::Request exploit = ExploitRequest();

  auto serve = [&](const http::Request& r) {
    auto pin = fleet.Acquire("alpha");
    EXPECT_TRUE(pin.ok()) << pin.status().ToString();
    app->SetQueryGate(pin.value()->MakeGate());
    const int status = app->Handle(r).status;
    app->SetQueryGate(nullptr);
    return status;
  };

  // Hot verdicts, then a ruleset update so version continuity is visible.
  EXPECT_EQ(serve(benign), 200);
  EXPECT_EQ(serve(exploit), 500);
  ASSERT_TRUE(fleet
                  .OnSourcesChanged("alpha", {{"update.php",
                                               "$q = 'SELECT 1';"}})
                  .ok());
  const std::uint64_t version_before =
      fleet.Acquire("alpha").value()->ruleset_version();
  EXPECT_EQ(version_before, 1u);

  ASSERT_TRUE(fleet.Demote("alpha").ok());
  EXPECT_EQ(fleet.stats().demotions, 1u);
  EXPECT_EQ(fleet.stats().resident, 0u);

  // Promotion rebuilds from the vocabulary the demotion kept: same
  // verdicts, same version — only cache warmth was lost.
  EXPECT_EQ(serve(benign), 200);
  EXPECT_EQ(serve(exploit), 500);
  EXPECT_EQ(fleet.Acquire("alpha").value()->ruleset_version(),
            version_before);
  EXPECT_GE(fleet.stats().cold_loads, 2u);  // first touch + re-promotion
}

TEST(Fleet, OnSourcesChangedOnColdTenantFailsCleanly) {
  tenant::Fleet fleet(TestOptions());
  ASSERT_TRUE(fleet.AddTenant("alpha", TinySeed("alpha")).ok());
  ASSERT_TRUE(fleet.Acquire("alpha").ok());
  ASSERT_TRUE(fleet.Demote("alpha").ok());
  EXPECT_FALSE(
      fleet.OnSourcesChanged("alpha", {{"u.php", "$q = 'SELECT 1';"}}).ok())
      << "cold tenants take updates on promotion, not in place";
}

// ---------------------------------------------------------------------------
// Budget ledger
// ---------------------------------------------------------------------------

TEST(Fleet, LedgerNeverExceedsBudget) {
  const std::vector<std::string> ids = {"alpha", "beta",  "gamma",
                                        "delta", "epsilon", "zeta"};
  std::uint64_t per_tenant = 0;
  for (const std::string& id : ids) {
    per_tenant = std::max(per_tenant, Estimate(TinySeed(id)));
  }
  const std::uint64_t budget = per_tenant * 2 + per_tenant / 2;  // ~2 hot
  tenant::Fleet fleet(TestOptions(budget));
  for (const std::string& id : ids) {
    ASSERT_TRUE(fleet.AddTenant(id, TinySeed(id)).ok());
  }

  std::mt19937_64 rng(2015);
  for (int i = 0; i < 200; ++i) {
    const std::string& id = ids[rng() % ids.size()];
    auto pin = fleet.Acquire(id);
    ASSERT_TRUE(pin.ok()) << pin.status().ToString();
    const tenant::FleetStats s = fleet.stats();
    EXPECT_LE(s.resident_bytes, budget);
    EXPECT_LE(s.peak_resident_bytes, budget);
  }
  const tenant::FleetStats s = fleet.stats();
  EXPECT_EQ(s.acquire_failures, 0u);
  EXPECT_GT(s.demotions, 0u) << "six tenants over a two-tenant budget must "
                                "have churned";
  EXPECT_LE(s.resident, 2u);
}

// A demoted tenant is charged what it was charged at first promotion: the
// charge follows the vocabulary, which demotion keeps unchanged.
TEST(Fleet, RepromotedTenantIsChargedAsAtFirstPromotion) {
  tenant::Fleet fleet(TestOptions());
  ASSERT_TRUE(fleet.AddTenant("alpha", TestbedSeed()).ok());

  ASSERT_TRUE(fleet.Acquire("alpha").ok());
  const std::uint64_t first = fleet.TenantInfos().front().resident_bytes;
  EXPECT_EQ(first, Estimate(TestbedSeed()));

  for (int cycle = 0; cycle < 2; ++cycle) {
    ASSERT_TRUE(fleet.Demote("alpha").ok());
    EXPECT_EQ(fleet.TenantInfos().front().resident_bytes, 0u);
    ASSERT_TRUE(fleet.Acquire("alpha").ok());
    EXPECT_EQ(fleet.TenantInfos().front().resident_bytes, first)
        << "after demotion " << cycle + 1;
  }
  EXPECT_EQ(fleet.stats().resident_bytes, first);
}

// The ledger stays an upper bound on the automaton it pays for: a built
// engine's PTI automaton never holds more than the tenant's estimate.
TEST(Fleet, EstimateBoundsTheBuiltAutomaton) {
  std::vector<php::FragmentSet> vocabularies;
  vocabularies.push_back(TestbedSeed());
  vocabularies.push_back(RandomBytesSeed());
  ASSERT_GT(vocabularies.back().size(), 100u);

  for (std::size_t v = 0; v < vocabularies.size(); ++v) {
    tenant::FleetOptions options;
    tenant::Fleet fleet(options);
    ASSERT_TRUE(fleet.AddTenant("alpha", vocabularies[v]).ok());
    auto pin = fleet.Acquire("alpha");
    ASSERT_TRUE(pin.ok()) << pin.status().ToString();
    const match::AhoCorasick& automaton =
        pin.value()->ruleset()->pti->automaton();
    EXPECT_GT(automaton.node_count(), 1u);
    EXPECT_GE(tenant::Fleet::EstimateHotBytes(vocabularies[v], options.engine),
              automaton.memory_bytes())
        << "vocabulary " << v;
  }
}

// ---------------------------------------------------------------------------
// Fail-closed: a tenant the budget can never admit
// ---------------------------------------------------------------------------

// A tenant larger than the whole budget is refused before anyone is
// demoted: emptying the resident set could never make room for it.
TEST(Fleet, UnadmittableTenantEvictsNoOne) {
  const std::uint64_t per_tenant =
      std::max(Estimate(TinySeed("alpha")), Estimate(TinySeed("beta")));
  const std::uint64_t budget = per_tenant * 2 + per_tenant / 2;  // ~2 hot
  php::FragmentSet huge = RandomBytesSeed();
  ASSERT_GT(Estimate(huge), budget);

  tenant::Fleet fleet(TestOptions(budget));
  ASSERT_TRUE(fleet.AddTenant("alpha", TinySeed("alpha")).ok());
  ASSERT_TRUE(fleet.AddTenant("beta", TinySeed("beta")).ok());
  ASSERT_TRUE(fleet.AddTenant("gamma", std::move(huge)).ok());
  ASSERT_TRUE(fleet.Acquire("alpha").ok());
  ASSERT_TRUE(fleet.Acquire("beta").ok());
  ASSERT_EQ(fleet.stats().resident, 2u);

  auto pin = fleet.Acquire("gamma");
  ASSERT_FALSE(pin.ok());
  EXPECT_EQ(pin.status().code(), StatusCode::kUnavailable);
  const tenant::FleetStats s = fleet.stats();
  EXPECT_EQ(s.demotions, 0u) << "a refused tenant must not evict anyone";
  EXPECT_EQ(s.resident, 2u);
  EXPECT_EQ(s.acquire_failures, 1u);
}

TEST(Fleet, UnadmittableTenantAnswers503OverTheWire) {
  const std::uint64_t budget = Estimate(TestbedSeed()) * 2;
  php::FragmentSet huge = RandomBytesSeed();
  ASSERT_GT(Estimate(huge), budget);

  tenant::Fleet fleet(TestOptions(budget));
  ASSERT_TRUE(fleet.AddTenant(tenant::kDefaultTenant, TestbedSeed()).ok());
  ASSERT_TRUE(fleet.AddTenant("alpha", std::move(huge)).ok());

  gateway::GatewayConfig gcfg;
  gcfg.workers = 2;
  gateway::GatewayServer server([] { return attack::MakeTestbed(); }, &fleet,
                                gcfg);
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  gateway::KeepAliveClient client(port.value());

  auto warm = client.Get("/post?id=1");
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->status, 200);

  auto refused = client.Send(
      WithTenant(http::Request::Get("/post", {{"id", "1"}}), "alpha"));
  ASSERT_TRUE(refused.ok()) << refused.status().ToString();
  EXPECT_EQ(refused->status, 503)
      << "an unadmittable tenant is refused, never served unprotected";

  // The resident default tenant was not evicted for it.
  auto healthy = client.Get("/post?id=1");
  ASSERT_TRUE(healthy.ok());
  EXPECT_EQ(healthy->status, 200);

  EXPECT_GE(server.stats().tenant_unavailable, 1u);
  EXPECT_EQ(fleet.stats().demotions, 0u);
  server.Stop();
}

// ---------------------------------------------------------------------------
// Gateway routing edges under each unknown-tenant policy
// ---------------------------------------------------------------------------

void CheckRoutingEdges(gateway::GatewayConfig::UnknownTenant policy) {
  tenant::Fleet fleet(TestOptions());
  ASSERT_TRUE(fleet.AddTenant(tenant::kDefaultTenant, TestbedSeed()).ok());
  ASSERT_TRUE(fleet.AddTenant("alpha", TestbedSeed()).ok());

  gateway::GatewayConfig gcfg;
  gcfg.workers = 2;
  gcfg.unknown_tenant = policy;
  gateway::GatewayServer server([] { return attack::MakeTestbed(); }, &fleet,
                                gcfg);
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  gateway::KeepAliveClient client(port.value());
  const bool strict =
      policy == gateway::GatewayConfig::UnknownTenant::kNotFound;

  const http::Request benign = http::Request::Get("/post", {{"id", "1"}});

  // No tenant id at all: the default tenant serves it under either policy.
  {
    auto r = client.Send(benign);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->status, 200);
  }
  // Header routing to a known tenant.
  {
    auto r = client.Send(WithTenant(benign, "alpha"));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->status, 200);
  }
  // URL-prefix routing: the prefix is stripped before the app sees the
  // path, so the testbed's /post route still matches.
  {
    auto r = client.Get("/t/alpha/post?id=1");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->status, 200);
  }
  // Unknown tenant: policy decides between default-tenant fallback and 404.
  {
    auto r = client.Send(WithTenant(benign, "ghost"));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->status, strict ? 404 : 200);
  }
  // Invalid ids (traversal, oversized) are never looked up — same policy
  // split as unknown.
  {
    auto r = client.Send(WithTenant(benign, "../evil"));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->status, strict ? 404 : 200);
  }
  {
    auto r = client.Send(WithTenant(benign, std::string(65, 'x')));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->status, strict ? 404 : 200);
  }
  {
    // An invalid /t/ prefix is never stripped: strict policy answers a
    // routing 404; lenient policy falls back to the default tenant, whose
    // app has no /t/... route — a 404 either way, and no traversal.
    auto r = client.Get("/t/../default/post?id=1");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->status, 404);
  }
  // Attacks are blocked on a routed tenant (the pinned engine's gate is
  // actually installed on this path).
  {
    auto r = client.Send(WithTenant(ExploitRequest(), "alpha"));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->status, 500);
  }

  const gateway::GatewayStats stats = server.stats();
  if (strict) {
    // Routed: bare default, header alpha, /t/alpha, exploit on alpha.
    EXPECT_EQ(stats.tenant_routed, 4u);
    // 404'd: ghost, ../evil, oversized header, invalid /t/ prefix.
    EXPECT_EQ(stats.tenant_404s, 4u);
  } else {
    EXPECT_EQ(stats.tenant_routed, 8u);
    EXPECT_EQ(stats.tenant_404s, 0u);
  }
  EXPECT_EQ(stats.tenant_unavailable, 0u);
  server.Stop();
}

TEST(TenantRouting, EpollModelDefaultPolicy) {
  CheckRoutingEdges(gateway::GatewayConfig::UnknownTenant::kDefaultTenant);
}

TEST(TenantRouting, EpollModelNotFoundPolicy) {
  CheckRoutingEdges(gateway::GatewayConfig::UnknownTenant::kNotFound);
}

TEST(TenantRouting, MissingDefaultTenantIs404) {
  // A fleet configured without a default tenant refuses un-tenanted
  // traffic instead of inventing a tenant.
  tenant::Fleet fleet({});
  ASSERT_TRUE(fleet.AddTenant("alpha", TestbedSeed()).ok());
  gateway::GatewayConfig gcfg;
  gcfg.workers = 1;
  gateway::GatewayServer server([] { return attack::MakeTestbed(); }, &fleet,
                                gcfg);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());
  gateway::KeepAliveClient client(port.value());
  auto r = client.Get("/post?id=1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, 404);
  auto routed = client.Send(
      WithTenant(http::Request::Get("/post", {{"id", "1"}}), "alpha"));
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed->status, 200);
  server.Stop();
}

// ---------------------------------------------------------------------------
// Tenant-qualified snapshots
// ---------------------------------------------------------------------------

TEST(TenantSnapshots, QualifiedPathComposition) {
  EXPECT_EQ(resilience::TenantSnapshotPath("/var/lib/joza/snap", "alpha"),
            "/var/lib/joza/snap.alpha");
  EXPECT_EQ(resilience::TenantSnapshotPath("snap", "default"),
            "snap.default");
}

TEST(Fleet, WarmStartsFromQualifiedSnapshotAndPersistsQualified) {
  ScratchDir dir;
  ASSERT_FALSE(dir.path.empty());
  const std::string base = dir.path + "/snap";
  ASSERT_TRUE(resilience::SaveRulesetSnapshot(
                  resilience::TenantSnapshotPath(base, tenant::kDefaultTenant),
                  TinySeed("saved"), 3)
                  .ok());
  // An un-suffixed file at the base path belongs to no tenant.
  ASSERT_TRUE(
      resilience::SaveRulesetSnapshot(base, TinySeed("unsuffixed"), 7).ok());

  tenant::FleetOptions opts = TestOptions();
  opts.snapshot_base = base;
  {
    tenant::Fleet fleet(opts);
    ASSERT_TRUE(
        fleet.AddTenant(tenant::kDefaultTenant, TinySeed("seed")).ok());
    ASSERT_TRUE(fleet.AddTenant("alpha", TinySeed("alpha")).ok());
    auto pin = fleet.Acquire(tenant::kDefaultTenant);
    ASSERT_TRUE(pin.ok());
    EXPECT_EQ(pin.value()->ruleset_version(), 3u)
        << "the default tenant must warm-start from <base>.default, never "
           "from the un-suffixed <base>";
    auto alpha = fleet.Acquire("alpha");
    ASSERT_TRUE(alpha.ok());
    EXPECT_EQ(alpha.value()->ruleset_version(), 0u)
        << "a tenant without its own snapshot starts at version 0";

    // A ruleset update persists to the tenant-qualified path.
    ASSERT_TRUE(
        fleet
            .OnSourcesChanged("alpha", {{"u.php", "$q = 'SELECT 1';"}})
            .ok());
  }
  EXPECT_EQ(::access(resilience::TenantSnapshotPath(base, "alpha").c_str(),
                     F_OK),
            0);
  // A fresh fleet warm-starts alpha from its own qualified snapshot.
  tenant::Fleet second(opts);
  ASSERT_TRUE(second.AddTenant("alpha", TinySeed("alpha")).ok());
  auto pin = second.Acquire("alpha");
  ASSERT_TRUE(pin.ok());
  EXPECT_EQ(pin.value()->ruleset_version(), 1u);
}

// ---------------------------------------------------------------------------
// Demotion racing in-flight pins (TSan probe)
// ---------------------------------------------------------------------------

TEST(Fleet, DemotionRacesInFlightPins) {
  tenant::Fleet fleet(TestOptions());
  ASSERT_TRUE(fleet.AddTenant("alpha", TestbedSeed()).ok());

  constexpr std::size_t kThreads = 4;
  constexpr int kIters = 40;
  std::atomic<std::size_t> benign_ok{0};
  std::atomic<std::size_t> attacks_blocked{0};
  std::atomic<std::size_t> pin_failures{0};
  std::atomic<bool> stop{false};

  std::thread demoter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      // Demotion waits out a promotion in flight; what must hold is that
      // pinned readers never observe a torn engine.
      EXPECT_TRUE(fleet.Demote("alpha").ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      auto app = attack::MakeTestbed();
      const http::Request benign = http::Request::Get("/post", {{"id", "1"}});
      const http::Request exploit = ExploitRequest();
      for (int i = 0; i < kIters; ++i) {
        auto pin = fleet.Acquire("alpha");
        if (!pin.ok()) {
          pin_failures.fetch_add(1);
          continue;
        }
        // The pin keeps this engine alive across any concurrent demotion.
        app->SetQueryGate(pin.value()->MakeGate());
        if (app->Handle(benign).status == 200) benign_ok.fetch_add(1);
        if (app->Handle(exploit).status == 500) attacks_blocked.fetch_add(1);
        app->SetQueryGate(nullptr);
      }
    });
  }
  for (auto& w : workers) w.join();
  stop.store(true);
  demoter.join();

  EXPECT_EQ(pin_failures.load(), 0u)
      << "Acquire must coalesce with demotion, not fail";
  EXPECT_EQ(benign_ok.load() + attacks_blocked.load(), 2u * kThreads * kIters)
      << "every pinned request must see a full vocabulary: benign 200s and "
         "blocked attacks only";
  EXPECT_GT(fleet.stats().demotions, 0u);
}

}  // namespace
}  // namespace joza
