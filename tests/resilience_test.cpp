// Self-healing serving tier: the daemon pool's restart bucket and
// counters, the breaker's half-open probe bound, crash-durable ruleset
// snapshots, and crash storms driven through an engine, whose circuit
// breaker is the one limiter in front of a failing pool. The concurrency
// property tests (half-open probe bound, crash storms) run under
// ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/joza.h"
#include "http/request.h"
#include "ipc/daemon_pool.h"
#include "phpsrc/fragments.h"
#include "resilience/circuit_breaker.h"
#include "resilience/injector.h"
#include "resilience/latency_tracker.h"
#include "resilience/snapshot.h"
#include "resilience/token_bucket.h"
#include "util/status.h"

namespace joza {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

class ResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    resilience::FaultInjector::Global().DisarmAll();
    resilience::FaultInjector::Global().ResetCounters();
  }
  void TearDown() override {
    resilience::FaultInjector::Global().DisarmAll();
    resilience::FaultInjector::Global().ResetCounters();
    resilience::FaultInjector::Global().set_hang(30000ms);
  }
};

php::FragmentSet OneFragment() {
  php::FragmentSet set;
  set.AddRaw("SELECT 1");
  return set;
}

std::string TempSnapshotPath(const char* tag) {
  return "/tmp/joza_resilience_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".snap";
}

// ---------------------------------------------------------------------------
// TokenBucket
// ---------------------------------------------------------------------------

using TokenBucketTest = ResilienceTest;

TEST_F(TokenBucketTest, BurstThenDenyThenRefill) {
  resilience::TokenBucketOptions options;
  options.capacity = 3;
  options.refill_per_sec = 1.0;
  const auto t0 = Clock::now();
  resilience::TokenBucket bucket(options, t0);
  EXPECT_TRUE(bucket.TryWithdraw(1, t0));
  EXPECT_TRUE(bucket.TryWithdraw(1, t0));
  EXPECT_TRUE(bucket.TryWithdraw(1, t0));
  EXPECT_FALSE(bucket.TryWithdraw(1, t0)) << "burst capacity exhausted";
  EXPECT_FALSE(bucket.TryWithdraw(1, t0 + 500ms)) << "only half a token back";
  EXPECT_TRUE(bucket.TryWithdraw(1, t0 + 1100ms)) << "refilled after 1s";
}

// ---------------------------------------------------------------------------
// LatencyTracker
// ---------------------------------------------------------------------------

using LatencyTrackerTest = ResilienceTest;

TEST_F(LatencyTrackerTest, FallbackUntilEnoughSamplesThenQuantile) {
  resilience::LatencyTracker tracker(64);
  EXPECT_EQ(tracker.Quantile(0.99, 1234us, 4), 1234us);
  for (int i = 1; i <= 100; ++i) {
    tracker.Record(std::chrono::microseconds(i * 10));
  }
  // Window of 64 keeps samples 370..1000 us; p50 sits mid-window and p99
  // near the top.
  const auto p50 = tracker.Quantile(0.50, 0us, 4);
  const auto p99 = tracker.Quantile(0.99, 0us, 4);
  EXPECT_GT(p50, 370us);
  EXPECT_LT(p50, 1000us);
  EXPECT_GE(p99, p50);
  EXPECT_LE(p99, 1000us);
}

// ---------------------------------------------------------------------------
// The pool's restart bucket and counters
// ---------------------------------------------------------------------------

using SupervisorTest = ResilienceTest;

TEST_F(SupervisorTest, HealthySpawnsAreFreeAndAdmitted) {
  // Every analysis stalls 200 ms, so concurrent calls each need a daemon of
  // their own. Scale-up spawns follow no failure and never draw from the
  // one-token bucket.
  auto& injector = resilience::FaultInjector::Global();
  injector.set_hang(200ms);
  injector.Arm(resilience::FaultPoint::kDaemonHang, 1.0);

  ipc::DaemonPool::Options options;
  options.max_size = 4;
  options.supervisor.restart_budget = 1;
  ipc::DaemonPool pool(OneFragment(), options);

  std::atomic<std::size_t> answered{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      if (pool.Analyze("SELECT 1", util::Deadline::After(3000ms)).ok()) {
        answered.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(answered.load(), 4u);
  const auto stats = pool.stats();
  EXPECT_GE(stats.spawned, 2u) << "concurrent calls must scale the pool up";
  EXPECT_EQ(stats.spawn_failures, 0u);
  EXPECT_EQ(stats.restarts_denied, 0u) << "scale-up spawns are not restarts";
  pool.Shutdown();
}

TEST_F(SupervisorTest, RestartBudgetBoundsRespawnRate) {
  // Every spawn fails. The first spawn is free; each later one is a restart
  // and spends a token. Two tokens admit two restarts, and every attempt
  // after that is refused without a fork.
  auto& injector = resilience::FaultInjector::Global();
  injector.Arm(resilience::FaultPoint::kSpawnFail, 1.0);

  ipc::DaemonPool::Options options;
  options.max_size = 1;
  options.supervisor.restart_budget = 2;
  ipc::DaemonPool pool(OneFragment(), options);

  for (int i = 0; i < 4; ++i) {  // two attempts each (the retry)
    EXPECT_FALSE(pool.Analyze("SELECT 1", util::Deadline::After(500ms)).ok());
  }
  const auto stats = pool.stats();
  EXPECT_EQ(stats.spawn_failures, 3u) << "one free spawn plus two restarts";
  EXPECT_EQ(stats.restarts_denied, 5u);
  EXPECT_EQ(stats.failures, 4u);
  EXPECT_EQ(stats.waits, 0u) << "a refused restart with no daemon out fails";
  pool.Shutdown();
}

TEST_F(SupervisorTest, ZeroBudgetDisablesSupervision) {
  // Every analysis kills its daemon; with no bucket every restart forks.
  auto& injector = resilience::FaultInjector::Global();
  injector.Arm(resilience::FaultPoint::kDaemonKill, 1.0);

  ipc::DaemonPool::Options options;
  options.max_size = 1;
  options.supervisor.restart_budget = 0;
  ipc::DaemonPool pool(OneFragment(), options);

  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(pool.Analyze("SELECT 1", util::Deadline::After(3000ms)).ok());
  }
  const auto stats = pool.stats();
  EXPECT_EQ(stats.spawned, 10u) << "each call forks for its attempt and retry";
  EXPECT_EQ(stats.replaced, 10u);
  EXPECT_EQ(stats.restarts_denied, 0u);
  pool.Shutdown();
}

TEST_F(SupervisorTest, FailedSpawnsAreNeitherSpawnedNorReplaced) {
  // The injected failure fires before fork(): no daemon ever goes live, so
  // none is spawned and none is replaced; each attempt is a spawn failure.
  auto& injector = resilience::FaultInjector::Global();
  injector.Arm(resilience::FaultPoint::kSpawnFail, 1.0);

  ipc::DaemonPool::Options options;
  options.max_size = 2;
  options.supervisor.restart_budget = 0;
  ipc::DaemonPool pool(OneFragment(), options);

  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(pool.Analyze("SELECT 1", util::Deadline::After(500ms)).ok());
  }
  const auto stats = pool.stats();
  EXPECT_EQ(stats.spawned, 0u);
  EXPECT_EQ(stats.replaced, 0u);
  EXPECT_EQ(stats.spawn_failures, 6u) << "two attempts per call";
  EXPECT_EQ(stats.analyzed, 0u);
  pool.Shutdown();
}

// ---------------------------------------------------------------------------
// CircuitBreaker half-open probe bound (concurrency property, TSan target)
// ---------------------------------------------------------------------------

TEST_F(ResilienceTest, HalfOpenAdmitsAtMostMaxProbesConcurrently) {
  constexpr std::size_t kMaxProbes = 3;
  resilience::CircuitBreakerOptions options;
  options.failure_threshold = 1;
  options.cooldown = 30ms;
  options.half_open_successes = kMaxProbes;
  resilience::CircuitBreaker breaker(options);

  breaker.RecordFailure();  // trip it
  ASSERT_EQ(breaker.state(), resilience::BreakerState::kOpen);
  std::this_thread::sleep_for(60ms);  // cooldown over: half-open on next Allow

  // 16 threads hammer Allow() without reporting outcomes. The breaker must
  // admit at most kMaxProbes probes total (each unreported probe holds its
  // slot), and the concurrent-probe gauge must never exceed the bound.
  std::atomic<std::size_t> admitted{0};
  std::atomic<std::size_t> gauge{0};
  std::atomic<std::size_t> gauge_max{0};
  std::vector<std::thread> threads;
  threads.reserve(16);
  for (int t = 0; t < 16; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        if (!breaker.Allow()) continue;
        const std::size_t now = gauge.fetch_add(1) + 1;
        std::size_t seen = gauge_max.load();
        while (now > seen && !gauge_max.compare_exchange_weak(seen, now)) {
        }
        admitted.fetch_add(1);
        std::this_thread::sleep_for(1ms);  // hold the probe slot briefly
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_GE(admitted.load(), 1u) << "the cooldown must admit a probe";
  EXPECT_LE(admitted.load(), kMaxProbes)
      << "unreported probes must hold their slots";
  EXPECT_LE(gauge_max.load(), kMaxProbes);
  EXPECT_EQ(breaker.state(), resilience::BreakerState::kHalfOpen);

  // Reporting the held probes successful closes the breaker.
  for (std::size_t i = 0; i < admitted.load(); ++i) breaker.RecordSuccess();
  for (std::size_t i = admitted.load(); i < kMaxProbes; ++i) {
    ASSERT_TRUE(breaker.Allow());
    breaker.RecordSuccess();
  }
  EXPECT_EQ(breaker.state(), resilience::BreakerState::kClosed);
}

// ---------------------------------------------------------------------------
// Ruleset snapshots
// ---------------------------------------------------------------------------

using SnapshotTest = ResilienceTest;

php::FragmentSet ThreeFragments() {
  php::FragmentSet set;
  set.AddRaw("SELECT * FROM posts WHERE id=", "app/post.php", 12);
  set.AddRaw("INSERT INTO comments VALUES (", "app/comment.php", 40);
  set.AddRaw("SELECT name FROM users WHERE uid=", "plugins/events.php", 7);
  return set;
}

TEST_F(SnapshotTest, RoundTripPreservesVersionAndFragments) {
  const php::FragmentSet fragments = ThreeFragments();
  const std::string image = resilience::EncodeRulesetSnapshot(fragments, 42);
  auto loaded = resilience::ParseRulesetSnapshot(image);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->version, 42u);
  ASSERT_EQ(loaded->fragments.size(), fragments.size());
  for (const auto& fragment : fragments.fragments()) {
    EXPECT_TRUE(loaded->fragments.Contains(fragment.text)) << fragment.text;
  }
  EXPECT_EQ(loaded->fragments.fragments()[0].source_path, "app/post.php");
  EXPECT_EQ(loaded->fragments.fragments()[0].line, 12u);
}

TEST_F(SnapshotTest, FileRoundTripViaAtomicRename) {
  const std::string path = TempSnapshotPath("roundtrip");
  ASSERT_TRUE(
      resilience::SaveRulesetSnapshot(path, ThreeFragments(), 7).ok());
  auto loaded = resilience::LoadRulesetSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->version, 7u);
  EXPECT_EQ(loaded->fragments.size(), 3u);
  // Re-save over the existing file (the steady-state publish path).
  ASSERT_TRUE(
      resilience::SaveRulesetSnapshot(path, ThreeFragments(), 8).ok());
  loaded = resilience::LoadRulesetSnapshot(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->version, 8u);
  std::remove(path.c_str());
}

TEST_F(SnapshotTest, MissingFileIsNotFound) {
  auto loaded =
      resilience::LoadRulesetSnapshot("/tmp/joza_no_such_snapshot.snap");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(SnapshotTest, InjectedIoFailureLeavesPreviousSnapshotIntact) {
  const std::string path = TempSnapshotPath("iofail");
  ASSERT_TRUE(
      resilience::SaveRulesetSnapshot(path, ThreeFragments(), 3).ok());
  resilience::FaultInjector::Global().Arm(
      resilience::FaultPoint::kSnapshotIo, 1.0);
  const Status failed =
      resilience::SaveRulesetSnapshot(path, ThreeFragments(), 4);
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kUnavailable);
  resilience::FaultInjector::Global().DisarmAll();
  auto loaded = resilience::LoadRulesetSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << "failed persist must not clobber the old file";
  EXPECT_EQ(loaded->version, 3u) << "previous generation must survive";
  std::remove(path.c_str());
}

TEST_F(SnapshotTest, EngineSinkPersistsEveryPublish) {
  const std::string path = TempSnapshotPath("sink");
  core::JozaConfig config;
  config.initial_ruleset_version = 10;  // warm-started engine
  core::Joza joza(OneFragment(), config);
  EXPECT_EQ(joza.ruleset_version(), 10u);
  joza.SetSnapshotSink([&path](const php::FragmentSet& fragments,
                               std::uint64_t version) {
    return resilience::SaveRulesetSnapshot(path, fragments, version);
  });
  php::SourceFile update;
  update.path = "plugins/new.php";
  update.content = "<?php $q = \"SELECT secret FROM vault\"; ?>";
  joza.OnSourcesChanged({update});
  EXPECT_EQ(joza.ruleset_version(), 11u);
  auto loaded = resilience::LoadRulesetSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->version, 11u) << "sink must persist the published version";
  EXPECT_TRUE(loaded->fragments.Contains("SELECT secret FROM vault"));
  const core::JozaStats stats = joza.stats();
  EXPECT_EQ(stats.snapshot_saves, 1u);
  EXPECT_EQ(stats.snapshot_save_failures, 0u);
  std::remove(path.c_str());
}

TEST_F(SnapshotTest, PoolContinuesVersionLineFromBaseVersion) {
  ipc::DaemonPool::Options options;
  options.max_size = 1;
  options.base_version = 9;
  ipc::DaemonPool pool(OneFragment(), options);
  EXPECT_EQ(pool.target_version(), 9u);
  ASSERT_TRUE(pool.AddFragments({"SELECT x FROM warm"}).ok());
  EXPECT_EQ(pool.target_version(), 10u);
  // A daemon spawned after the update handshakes at the continued version.
  auto verdict = pool.Analyze("SELECT 1", util::Deadline::After(2000ms));
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_EQ(verdict->ruleset_version, 10u);
  pool.Shutdown();
}

// ---------------------------------------------------------------------------
// Crash storms through an engine: the breaker is the one limiter
// ---------------------------------------------------------------------------

using ChaosStormTest = ResilienceTest;

constexpr std::size_t kStormThreshold = 3;

// NTI-only while PTI is down, a breaker that opens after three consecutive
// failures and probes after 50 ms, and no caches, so that every check the
// breaker lets through reaches the pool.
core::JozaConfig StormConfig() {
  core::JozaConfig config;
  config.degraded_mode = core::DegradedMode::kNtiOnly;
  config.breaker.failure_threshold = kStormThreshold;
  config.breaker.cooldown = 50ms;
  config.query_cache = false;
  config.structure_cache = false;
  return config;
}

std::uint64_t ForkAttempts(const ipc::DaemonPool& pool) {
  const auto stats = pool.stats();
  return stats.spawned + stats.spawn_failures;
}

TEST_F(ChaosStormTest, TotalSpawnStormIsBoundedPerBreakerCycle) {
  auto& injector = resilience::FaultInjector::Global();
  injector.Arm(resilience::FaultPoint::kSpawnFail, 1.0);

  ipc::DaemonPool::Options options;
  options.max_size = 2;
  options.supervisor.restart_budget = 0;  // the breaker alone
  ipc::DaemonPool pool(OneFragment(), options);
  core::Joza joza(OneFragment(), StormConfig());
  joza.SetPtiBackend(pool.AsPtiBackend());

  // ~300 ms of traffic: six breaker cooldowns. Every check is answered by
  // NTI alone; none fails open or closed.
  for (int i = 0; i < 60; ++i) {
    const core::Verdict v = joza.Check("SELECT 1", {});
    EXPECT_FALSE(v.attack);
    EXPECT_TRUE(v.degraded);
    std::this_thread::sleep_for(5ms);
  }
  const resilience::BreakerStats breaker = joza.breaker().stats();
  EXPECT_GE(breaker.opens, 2u) << "the breaker must cycle";
  // A closed breaker lets `kStormThreshold` checks through, each reopening
  // lets one half-open probe through, and each check forks at most twice
  // (attempt and retry). Everything else is a fast reject.
  EXPECT_LE(ForkAttempts(pool), 2 * (kStormThreshold + breaker.opens));
  EXPECT_GT(joza.stats().breaker_fast_rejects, 0u);

  const auto stats = pool.stats();
  EXPECT_EQ(stats.spawned, 0u);
  EXPECT_EQ(stats.analyzed, 0u);
  pool.Shutdown();
}

TEST_F(ChaosStormTest, DeadPoolDegradesEngineToNtiOnlyNotFailOpen) {
  auto& injector = resilience::FaultInjector::Global();
  injector.Arm(resilience::FaultPoint::kSpawnFail, 1.0);

  ipc::DaemonPool::Options options;
  options.max_size = 1;
  ipc::DaemonPool pool(OneFragment(), options);
  core::JozaConfig config = StormConfig();
  config.breaker.cooldown = 60000ms;  // stays open for the test
  core::Joza joza(OneFragment(), config);
  joza.SetPtiBackend(pool.AsPtiBackend());

  // Drive traffic until the breaker opens; from then on NTI alone decides.
  // Benign queries keep flowing, tainted ones are still blocked — at no
  // point does a query pass without SOME analyzer's verdict.
  for (std::size_t i = 0; i < kStormThreshold; ++i) {
    (void)joza.Check("SELECT 1", {});
  }
  ASSERT_EQ(joza.breaker().state(), resilience::BreakerState::kOpen);
  const std::uint64_t forks = ForkAttempts(pool);

  const auto t0 = Clock::now();
  core::Verdict benign = joza.Check("SELECT 1", {});
  EXPECT_LT(Clock::now() - t0, 100ms) << "an open breaker fails fast";
  EXPECT_FALSE(benign.attack) << "NTI-only keeps serving benign traffic";
  EXPECT_TRUE(benign.degraded);

  std::vector<http::Input> inputs = {
      {http::InputKind::kGet, "id", "1 OR 1=1"}};
  core::Verdict attack =
      joza.Check("SELECT * FROM posts WHERE id=1 OR 1=1", inputs);
  EXPECT_TRUE(attack.attack) << "zero fail-open: NTI still catches taint";
  EXPECT_EQ(ForkAttempts(pool), forks) << "the open breaker forks nothing";

  pool.Shutdown();
}

TEST_F(ChaosStormTest, PartialSpawnStormKeepsServingWithZeroFailOpen) {
  auto& injector = resilience::FaultInjector::Global();
  // 30% of spawns fail (deterministic arithmetic schedule), and every
  // fourth analysis kills its daemon, so the pool keeps respawning; the
  // retry and the default restart budget keep the engine's checks served.
  injector.Arm(resilience::FaultPoint::kSpawnFail, 0.3);
  injector.Arm(resilience::FaultPoint::kDaemonKill, 0.25);

  ipc::DaemonPool::Options options;
  options.max_size = 2;
  ipc::DaemonPool pool(OneFragment(), options);
  core::Joza joza(OneFragment(), StormConfig());
  joza.SetPtiBackend(pool.AsPtiBackend());

  std::size_t served = 0;
  for (int i = 0; i < 20; ++i) {
    const core::Verdict v =
        joza.Check("SELECT 1", {}, util::Deadline::After(3000ms));
    EXPECT_FALSE(v.attack) << "benign query must stay benign";
    if (!v.degraded) ++served;
  }
  EXPECT_GE(served, 15u) << "a 30% spawn-fail storm must not stop serving";
  EXPECT_GT(pool.stats().spawn_failures, 0u) << "the storm must fire";
  pool.Shutdown();
}

TEST_F(ChaosStormTest, DaemonKillStormFailsFastInsteadOfWaitingOutDeadlines) {
  // Every analysis kills its daemon and the bucket holds two restarts, so
  // it is empty by the second check. A refused restart with no daemon
  // checked out fails the attempt at once: the breaker, not a wait inside
  // the pool, absorbs the storm, and no check runs out its deadline.
  auto& injector = resilience::FaultInjector::Global();
  injector.Arm(resilience::FaultPoint::kDaemonKill, 1.0);

  ipc::DaemonPool::Options options;
  options.max_size = 1;
  options.supervisor.restart_budget = 2;
  ipc::DaemonPool pool(OneFragment(), options);
  core::Joza joza(OneFragment(), StormConfig());
  joza.SetPtiBackend(pool.AsPtiBackend());

  constexpr auto kDeadline = 500ms;
  for (int i = 0; i < 20; ++i) {
    const auto t0 = Clock::now();
    const core::Verdict v =
        joza.Check("SELECT 1", {}, util::Deadline::After(kDeadline));
    EXPECT_LT(Clock::now() - t0, kDeadline) << "check " << i;
    EXPECT_FALSE(v.attack);
    EXPECT_TRUE(v.degraded);
    std::this_thread::sleep_for(10ms);
  }
  const auto stats = pool.stats();
  EXPECT_EQ(stats.deadline_misses, 0u);
  EXPECT_EQ(stats.waits, 0u);
  EXPECT_GT(stats.restarts_denied, 0u) << "the bucket must have run dry";
  EXPECT_GE(joza.breaker().stats().opens, 1u);
  pool.Shutdown();
}

}  // namespace
}  // namespace joza
