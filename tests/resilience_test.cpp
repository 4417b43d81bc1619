// Self-healing serving tier: supervisor lifecycle policy, respawn pacing,
// retry budgets, crash-durable ruleset snapshots, and the chaos
// crash-storm behaviour of the supervised daemon pool. The concurrency
// property tests (half-open probe bound, crash storm) run under
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
#include "resilience/backoff.h"
#include "resilience/circuit_breaker.h"
#include "resilience/injector.h"
#include "resilience/retry.h"
#include "resilience/snapshot.h"
#include "resilience/supervisor.h"
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
// ExponentialBackoff
// ---------------------------------------------------------------------------

using BackoffTest = ResilienceTest;

TEST_F(BackoffTest, DelayGrowsExponentiallyAndCaps) {
  resilience::BackoffOptions options;
  options.base = 50ms;
  options.max = 5000ms;
  options.jitter = 0.0;  // pure nominal schedule
  resilience::ExponentialBackoff backoff(options);
  EXPECT_EQ(backoff.Delay(1), 50ms);
  EXPECT_EQ(backoff.Delay(2), 100ms);
  EXPECT_EQ(backoff.Delay(3), 200ms);
  EXPECT_EQ(backoff.Delay(8), 5000ms) << "growth must cap at max";
  EXPECT_EQ(backoff.Delay(40), 5000ms) << "huge counts must not overflow";
}

TEST_F(BackoffTest, JitterStaysInsideFractionAndIsDeterministic) {
  resilience::BackoffOptions options;
  options.base = 100ms;
  options.max = 10000ms;
  options.jitter = 0.25;
  resilience::ExponentialBackoff a(options);
  resilience::ExponentialBackoff b(options);
  for (std::size_t failures = 1; failures <= 8; ++failures) {
    const auto nominal =
        std::min(options.max, options.base * (1u << (failures - 1)));
    const auto delay = a.Delay(failures);
    EXPECT_GE(delay, nominal - nominal * 25 / 100);
    EXPECT_LE(delay, nominal);
    EXPECT_EQ(delay, b.Delay(failures)) << "jitter must be deterministic";
  }
}

TEST_F(BackoffTest, GatesAttemptsAndResetsOnSuccess) {
  resilience::BackoffOptions options;
  options.base = 50ms;
  options.jitter = 0.0;
  resilience::ExponentialBackoff backoff(options);
  const auto t0 = Clock::now();
  EXPECT_TRUE(backoff.AllowedAt(t0)) << "no failures yet: always allowed";
  backoff.RecordFailure(t0);
  EXPECT_FALSE(backoff.AllowedAt(t0 + 10ms));
  EXPECT_TRUE(backoff.AllowedAt(t0 + 50ms));
  backoff.RecordFailure(t0 + 50ms);  // second consecutive: 100ms delay
  EXPECT_FALSE(backoff.AllowedAt(t0 + 100ms));
  EXPECT_TRUE(backoff.AllowedAt(t0 + 150ms));
  backoff.Reset();
  EXPECT_TRUE(backoff.AllowedAt(t0));
  EXPECT_EQ(backoff.consecutive_failures(), 0u);
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

TEST_F(TokenBucketTest, DepositClampsAtCapacity) {
  resilience::TokenBucketOptions options;
  options.capacity = 2;
  options.refill_per_sec = 0;
  const auto t0 = Clock::now();
  resilience::TokenBucket bucket(options, t0);
  bucket.Deposit(100);
  EXPECT_TRUE(bucket.TryWithdraw(1, t0));
  EXPECT_TRUE(bucket.TryWithdraw(1, t0));
  EXPECT_FALSE(bucket.TryWithdraw(1, t0)) << "deposit must clamp at capacity";
}

// ---------------------------------------------------------------------------
// RetryBudget
// ---------------------------------------------------------------------------

using RetryBudgetTest = ResilienceTest;

TEST_F(RetryBudgetTest, SpendsToZeroThenDeniesUntilSuccessesEarnBack) {
  resilience::RetryBudgetOptions options;
  options.capacity = 2;
  options.earn_per_success = 0.5;
  resilience::RetryBudget budget(options);
  EXPECT_TRUE(budget.TrySpend());
  EXPECT_TRUE(budget.TrySpend());
  EXPECT_FALSE(budget.TrySpend()) << "budget exhausted";
  EXPECT_EQ(budget.denied(), 1u);
  budget.RecordSuccess();
  EXPECT_FALSE(budget.TrySpend()) << "half a token is not a retry";
  budget.RecordSuccess();
  EXPECT_TRUE(budget.TrySpend()) << "two successes earned one retry back";
  EXPECT_EQ(budget.denied(), 2u);
}

TEST_F(RetryBudgetTest, ZeroCapacityDisablesTheGuard) {
  resilience::RetryBudgetOptions options;
  options.capacity = 0;
  resilience::RetryBudget budget(options);
  EXPECT_FALSE(budget.enabled());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(budget.TrySpend());
  EXPECT_EQ(budget.denied(), 0u);
}

TEST_F(RetryBudgetTest, DrainedBudgetLeavesThePoolOneAttempt) {
  // Every analyze crashes its daemon. A budget that never holds a whole
  // token denies every retry, so each call costs exactly one daemon.
  auto& injector = resilience::FaultInjector::Global();
  injector.Arm(resilience::FaultPoint::kDaemonKill, 1.0);

  ipc::DaemonPool::Options options;
  options.max_size = 1;
  options.supervisor.restart_budget = 0;  // respawn at once, no backoff
  options.retry_budget.capacity = 0.5;
  options.retry_budget.earn_per_success = 0;
  ipc::DaemonPool pool(OneFragment(), options);

  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(pool.Analyze("SELECT 1", util::Deadline::After(3000ms)).ok());
  }
  const auto stats = pool.stats();
  EXPECT_EQ(stats.retries_denied, 3u);
  EXPECT_EQ(stats.replaced, 3u) << "one crashed daemon per call, no retry";
  EXPECT_EQ(stats.failures, 3u);
  pool.Shutdown();
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
// DaemonSupervisor policy
// ---------------------------------------------------------------------------

resilience::SupervisorOptions FastSupervisor() {
  resilience::SupervisorOptions options;
  options.restart_budget = 8;
  options.restart_refill_per_sec = 0;
  options.backoff.base = 20ms;
  options.backoff.max = 100ms;
  options.backoff.jitter = 0.0;
  options.flap_threshold = 3;
  options.flap_window = 10000ms;
  options.quarantine = 80ms;
  return options;
}

using SupervisorTest = ResilienceTest;

TEST_F(SupervisorTest, HealthySpawnsAreFreeAndAdmitted) {
  resilience::DaemonSupervisor supervisor(FastSupervisor());
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(supervisor.AdmitSpawn().ok());
    supervisor.RecordSpawnSuccess();
  }
  const auto stats = supervisor.stats();
  EXPECT_EQ(stats.spawns_admitted, 20u);
  EXPECT_EQ(stats.restarts, 0u) << "scale-up spawns are not restarts";
  EXPECT_EQ(supervisor.state(), resilience::SupervisorState::kHealthy);
}

TEST_F(SupervisorTest, SpawnFailureTriggersBackoffDenial) {
  resilience::DaemonSupervisor supervisor(FastSupervisor());
  ASSERT_TRUE(supervisor.AdmitSpawn().ok());
  supervisor.RecordSpawnFailure();
  const Status denied = supervisor.AdmitSpawn();
  EXPECT_FALSE(denied.ok()) << "retry must wait out the backoff";
  EXPECT_EQ(supervisor.state(), resilience::SupervisorState::kBackoff);
  std::this_thread::sleep_for(40ms);
  EXPECT_TRUE(supervisor.AdmitSpawn().ok()) << "backoff lapsed";
  supervisor.RecordSpawnSuccess();
  EXPECT_EQ(supervisor.state(), resilience::SupervisorState::kHealthy);
  const auto stats = supervisor.stats();
  EXPECT_GE(stats.restarts, 1u) << "a spawn after a failure is a restart";
  EXPECT_GE(stats.restarts_denied, 1u);
}

TEST_F(SupervisorTest, FlappingQuarantinesThenProbeRecovers) {
  resilience::DaemonSupervisor supervisor(FastSupervisor());
  // Three crashes inside the flap window trip quarantine.
  for (int i = 0; i < 3; ++i) supervisor.RecordCrash();
  EXPECT_TRUE(supervisor.quarantined());
  EXPECT_EQ(supervisor.state(), resilience::SupervisorState::kQuarantined);
  EXPECT_FALSE(supervisor.AdmitSpawn().ok()) << "quarantine refuses spawns";

  // After the quarantine lapses exactly one probe is admitted; others keep
  // getting refused until its outcome is known.
  std::this_thread::sleep_for(120ms);
  EXPECT_TRUE(supervisor.AdmitSpawn().ok()) << "probe spawn";
  EXPECT_FALSE(supervisor.AdmitSpawn().ok()) << "one probe at a time";
  supervisor.RecordSpawnSuccess();
  EXPECT_FALSE(supervisor.quarantined());
  EXPECT_EQ(supervisor.state(), resilience::SupervisorState::kHealthy);
  const auto stats = supervisor.stats();
  EXPECT_EQ(stats.quarantines, 1u);
  EXPECT_GE(stats.quarantine_probes, 1u);
  EXPECT_EQ(stats.recoveries, 1u);
}

TEST_F(SupervisorTest, FailedProbeReQuarantines) {
  resilience::DaemonSupervisor supervisor(FastSupervisor());
  for (int i = 0; i < 3; ++i) supervisor.RecordCrash();
  ASSERT_TRUE(supervisor.quarantined());
  std::this_thread::sleep_for(120ms);
  ASSERT_TRUE(supervisor.AdmitSpawn().ok());
  supervisor.RecordSpawnFailure();  // probe failed: back to quarantine
  EXPECT_TRUE(supervisor.quarantined());
  EXPECT_EQ(supervisor.stats().quarantines, 2u);
}

TEST_F(SupervisorTest, RestartBudgetBoundsRespawnRate) {
  resilience::SupervisorOptions options = FastSupervisor();
  options.restart_budget = 2;
  options.flap_threshold = 100;  // keep flap detection out of the way
  options.backoff.base = 1ms;
  options.backoff.max = 1ms;  // constant 1ms pacing; the bucket decides
  resilience::DaemonSupervisor supervisor(options);
  // Each failure->spawn cycle charges the budget; capacity 2 with no
  // refill admits exactly two restarts.
  std::size_t admitted = 0;
  for (int i = 0; i < 6; ++i) {
    supervisor.RecordSpawnFailure();
    std::this_thread::sleep_for(5ms);  // wait out the backoff each round
    if (supervisor.AdmitSpawn().ok()) ++admitted;
  }
  EXPECT_EQ(admitted, 2u) << "restart budget must bound respawns";
  EXPECT_GE(supervisor.stats().restarts_denied, 4u);
}

TEST_F(SupervisorTest, ZeroBudgetDisablesSupervision) {
  resilience::SupervisorOptions options = FastSupervisor();
  options.restart_budget = 0;
  resilience::DaemonSupervisor supervisor(options);
  EXPECT_FALSE(supervisor.enabled());
  for (int i = 0; i < 50; ++i) {
    supervisor.RecordCrash();
    EXPECT_TRUE(supervisor.AdmitSpawn().ok())
        << "disabled supervisor admits everything (pre-supervisor policy)";
  }
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
// Supervised pool under chaos
// ---------------------------------------------------------------------------

using ChaosStormTest = ResilienceTest;

TEST_F(ChaosStormTest, TotalSpawnStormQuarantinesInsteadOfForkStorming) {
  auto& injector = resilience::FaultInjector::Global();
  injector.Arm(resilience::FaultPoint::kSpawnFail, 1.0);

  ipc::DaemonPool::Options options;
  options.max_size = 2;
  options.per_call_timeout = 200ms;
  options.supervisor.restart_budget = 4;
  options.supervisor.restart_refill_per_sec = 0;
  options.supervisor.backoff.base = 1ms;
  options.supervisor.backoff.max = 5ms;
  options.supervisor.flap_threshold = 3;
  options.supervisor.flap_window = 10000ms;
  options.supervisor.quarantine = 60000ms;  // stays down for the test
  ipc::DaemonPool pool(OneFragment(), options);

  // Every spawn fails: the supervisor must converge to quarantine within
  // the restart budget and each Analyze must fail (never fail open).
  std::size_t failures = 0;
  for (int i = 0; i < 12; ++i) {
    auto verdict = pool.Analyze("SELECT 1", util::Deadline::After(500ms));
    EXPECT_FALSE(verdict.ok()) << "no daemon ever went live";
    ++failures;
    if (pool.quarantined()) break;
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_TRUE(pool.quarantined())
      << "crash storm must converge to quarantine within the budget";
  EXPECT_GE(failures, 1u);

  // Quarantined shard fails fast: no backoff wait, no fork attempt.
  const auto t0 = Clock::now();
  auto fast = pool.Analyze("SELECT 1", util::Deadline::After(5000ms));
  EXPECT_FALSE(fast.ok());
  EXPECT_LT(Clock::now() - t0, 1000ms) << "quarantine must fail fast";

  const auto stats = pool.stats();
  EXPECT_GE(stats.supervisor.quarantines, 1u);
  EXPECT_GE(stats.supervisor.spawn_failures, 3u);
  EXPECT_GT(stats.supervisor.restarts_denied, 0u);
  EXPECT_EQ(stats.analyzed, 0u);
  pool.Shutdown();
}

TEST_F(ChaosStormTest, QuarantinedPoolDegradesEngineToNtiOnlyNotFailOpen) {
  auto& injector = resilience::FaultInjector::Global();
  injector.Arm(resilience::FaultPoint::kSpawnFail, 1.0);

  ipc::DaemonPool::Options options;
  options.max_size = 1;
  options.per_call_timeout = 200ms;
  options.supervisor.restart_budget = 3;
  options.supervisor.restart_refill_per_sec = 0;
  options.supervisor.backoff.base = 1ms;
  options.supervisor.flap_threshold = 2;
  options.supervisor.quarantine = 60000ms;
  ipc::DaemonPool pool(OneFragment(), options);

  core::JozaConfig config;
  config.degraded_mode = core::DegradedMode::kNtiOnly;
  config.breaker.failure_threshold = 3;
  core::Joza joza(OneFragment(), config);
  joza.SetPtiBackend(pool.AsPtiBackend());

  // Drive traffic until the shard quarantines; from then on NTI alone
  // decides. Benign queries keep flowing, tainted ones are still blocked —
  // at no point does a query pass without SOME analyzer's verdict.
  for (int i = 0; i < 8 && !pool.quarantined(); ++i) {
    (void)joza.Check("SELECT 1", {});
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_TRUE(pool.quarantined());

  core::Verdict benign = joza.Check("SELECT 1", {});
  EXPECT_FALSE(benign.attack) << "NTI-only keeps serving benign traffic";
  EXPECT_TRUE(benign.degraded);

  std::vector<http::Input> inputs = {
      {http::InputKind::kGet, "id", "1 OR 1=1"}};
  core::Verdict attack =
      joza.Check("SELECT * FROM posts WHERE id=1 OR 1=1", inputs);
  EXPECT_TRUE(attack.attack) << "zero fail-open: NTI still catches taint";

  pool.Shutdown();
}

TEST_F(ChaosStormTest, PartialSpawnStormKeepsServingWithZeroFailOpen) {
  auto& injector = resilience::FaultInjector::Global();
  // 30% of spawns fail (deterministic arithmetic schedule); the supervisor
  // paces retries but the shard must keep serving.
  injector.Arm(resilience::FaultPoint::kSpawnFail, 0.3);

  ipc::DaemonPool::Options options;
  options.max_size = 2;
  options.per_call_timeout = 2000ms;
  options.supervisor.restart_budget = 32;
  options.supervisor.backoff.base = 1ms;
  options.supervisor.backoff.max = 10ms;
  options.supervisor.flap_threshold = 50;  // partial storm: no quarantine
  ipc::DaemonPool pool(OneFragment(), options);

  std::size_t served = 0;
  for (int i = 0; i < 20; ++i) {
    auto verdict = pool.Analyze("SELECT 1", util::Deadline::After(3000ms));
    if (verdict.ok()) {
      ++served;
      EXPECT_FALSE(verdict->attack_detected) << "benign query must stay benign";
    }
  }
  EXPECT_GE(served, 15u) << "a 30% spawn-fail storm must not stop serving";
  EXPECT_FALSE(pool.quarantined());
  pool.Shutdown();
}

}  // namespace
}  // namespace joza
