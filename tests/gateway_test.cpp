// Concurrency suite for the protection gateway: a shared Joza engine, the
// PTI daemon pool, and the gateway's shards and handler pool hammered from
// many threads with mixed benign/attack traffic. Runs under ThreadSanitizer
// in CI — every assertion here is also a data-race probe.
#include <gtest/gtest.h>

#include <csignal>
#include <sys/types.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "attack/catalog.h"
#include "core/joza.h"
#include "core/sharded_cache.h"
#include "db/database.h"
#include "gateway/client.h"
#include "gateway/gateway.h"
#include "ipc/daemon_pool.h"

namespace joza {
namespace {

constexpr std::size_t kThreads = 8;

// ---------------------------------------------------------------------------
// ShardedSafetyCache
// ---------------------------------------------------------------------------

TEST(ShardedSafetyCache, BoundedStaysWithinCapacity) {
  // The last two have fewer slots than kShards.
  for (const std::size_t capacity : {256, 4, 15}) {
    core::ShardedSafetyCache cache(capacity);
    for (std::uint64_t h = 0; h < 100000; ++h) cache.Insert(h);
    EXPECT_LE(cache.size(), capacity) << capacity;
    EXPECT_GT(cache.evictions(), 0u) << capacity;
  }
}

TEST(ShardedSafetyCache, ClockKeepsHotEntriesResident) {
  // The hot entry shares its shard's 4-slot ring (64 slots over 16 shards)
  // with every key hashed there, so the clock hand keeps passing it.
  core::ShardedSafetyCache cache(/*capacity=*/64);
  const std::uint64_t hot = 42;
  cache.Insert(hot);
  for (std::uint64_t h = 1000; h < 5000; ++h) {
    EXPECT_TRUE(cache.Lookup(hot)) << "hot entry evicted at " << h;
    cache.Insert(h);
  }
}

TEST(ShardedSafetyCache, ClearDropsEverything) {
  core::ShardedSafetyCache cache(/*capacity=*/128);
  for (std::uint64_t h = 0; h < 100; ++h) cache.Insert(h);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(1));
}

TEST(ShardedSafetyCache, ConcurrentInsertLookupIsRaceFree) {
  core::ShardedSafetyCache cache(/*capacity=*/1024);
  std::vector<std::thread> threads;
  std::atomic<std::size_t> hits{0};
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < 5000; ++i) {
        const std::uint64_t h = (t << 32) | (i % 512);
        cache.Insert(h);
        if (cache.Lookup(h)) hits.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();
  // An entry this thread just inserted can only disappear via eviction
  // pressure; with 8*512 distinct keys under a 1024 cap, most lookups hit.
  EXPECT_GT(hits.load(), 0u);
  EXPECT_LE(cache.size(), 1024u);
}

// ---------------------------------------------------------------------------
// JozaStats aggregation
// ---------------------------------------------------------------------------

TEST(JozaStats, AggregatesAcrossSnapshots) {
  core::JozaStats a;
  a.queries_checked = 10;
  a.attacks_detected = 2;
  core::JozaStats b;
  b.queries_checked = 5;
  b.nti_runs = 5;
  a += b;
  EXPECT_EQ(a.queries_checked, 15u);
  EXPECT_EQ(a.attacks_detected, 2u);
  EXPECT_EQ(a.nti_runs, 5u);
}

// ---------------------------------------------------------------------------
// Counter tables: export names, roll-up, and reads while counting
// ---------------------------------------------------------------------------

std::vector<std::string> Names(const CounterList& counters) {
  std::vector<std::string> names;
  for (const auto& [name, value] : counters) names.emplace_back(name);
  return names;
}

// Counts the counters that read lower than at the previous poll. Every
// counter only grows, so a relaxed reader must never see one go back.
// shed_p99_us is a quantile, not a counter.
std::size_t CountDecreases(const CounterList& before,
                           const CounterList& after) {
  std::size_t decreases = 0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (std::string_view(after[i].first) == "shed_p99_us") continue;
    if (after[i].second < before[i].second) ++decreases;
  }
  return decreases;
}

TEST(CounterTables, JozaStatsExportKeepsItsNamesInOrder) {
  // servebench reads these by name and BENCH_smoke.json pins engine.*.
  const std::vector<std::string> expected = {
      "queries_checked", "attacks_detected", "query_cache_hits",
      "structure_cache_hits", "pti_full_runs", "nti_runs", "nti_exact_hits",
      "nti_seed_candidates", "nti_dp_runs", "nti_tier_reference",
      "nti_tier_bounded", "nti_tier_staged", "cache_evictions",
      "pti_failures", "breaker_fast_rejects", "degraded_checks",
      "degraded_blocks", "ruleset_version", "ruleset_swaps", "snapshot_saves",
      "snapshot_save_failures", "snapshot_loads"};
  EXPECT_EQ(Names(core::JozaStats{}.Counters()), expected);
}

TEST(CounterTables, GatewayStatsExportKeepsItsNamesInOrder) {
  const std::vector<std::string> expected = {
      "connections_accepted", "connections_rejected", "requests_served",
      "keepalive_reuses", "bad_requests", "request_timeouts",
      "oversized_requests", "shed_by_deadline", "accept_overflows",
      "shed_p99_us", "tenant_routed", "tenant_404s", "tenant_unavailable"};
  EXPECT_EQ(Names(gateway::GatewayStats{}.Counters()), expected);
}

TEST(CounterTables, JozaRollUpSumsEveryCounterAndKeepsTheNewestVersion) {
  // Row i holds i + 1 on one side and 100 * (i + 1) on the other.
  core::JozaStats small;
  core::JozaStats large;
  for (std::size_t i = 0; i < std::size(core::kJozaCounters); ++i) {
    small.*core::kJozaCounters[i].field = i + 1;
    large.*core::kJozaCounters[i].field = 100 * (i + 1);
  }
  core::JozaStats small_first = small;
  small_first += large;
  core::JozaStats large_first = large;
  large_first += small;
  const CounterList sums[] = {small_first.Counters(), large_first.Counters()};
  for (const CounterList& sum : sums) {
    ASSERT_EQ(sum.size(), std::size(core::kJozaCounters));
    for (std::size_t i = 0; i < sum.size(); ++i) {
      const bool version = std::string_view(sum[i].first) == "ruleset_version";
      EXPECT_EQ(sum[i].second, (version ? 100 : 101) * (i + 1))
          << sum[i].first;
    }
  }
}

// ---------------------------------------------------------------------------
// Shared engine under concurrent Check()
// ---------------------------------------------------------------------------

struct TrafficItem {
  std::string query;
  std::vector<http::Input> inputs;
  bool is_attack = false;
};

std::vector<TrafficItem> MakeMixedTraffic() {
  std::vector<TrafficItem> items;
  // Benign: the template family every worker shares (cache-friendly).
  for (int id = 1; id <= 40; ++id) {
    TrafficItem benign;
    benign.query =
        "SELECT id, title, body FROM wp_posts WHERE id = " + std::to_string(id);
    benign.inputs = {{http::InputKind::kGet, "id", std::to_string(id)}};
    items.push_back(std::move(benign));
  }
  // Attacks: tautology and union through the same template.
  for (const char* payload :
       {"-1 or 1=1", "-1 union select login, pass from wp_users",
        "0 or sleep(2)"}) {
    TrafficItem attack;
    attack.query =
        std::string("SELECT id, title, body FROM wp_posts WHERE id = ") +
        payload;
    attack.inputs = {{http::InputKind::kGet, "id", payload}};
    attack.is_attack = true;
    items.push_back(std::move(attack));
  }
  return items;
}

TEST(ConcurrentJoza, EightThreadsSharedEngineVerdictsAndStats) {
  auto app = attack::MakeTestbed();
  core::JozaConfig config;
  config.cache_capacity = 4096;  // bounded shards on the concurrent path
  core::Joza joza = core::Joza::Install(*app, config);

  const std::vector<TrafficItem> traffic = MakeMixedTraffic();
  constexpr std::size_t kRounds = 50;
  std::atomic<std::size_t> wrong_verdicts{0};
  std::atomic<std::size_t> attacks_sent{0};

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < traffic.size(); ++i) {
          // Stagger start positions so threads collide on the caches.
          const TrafficItem& item =
              traffic[(i + t * 7 + round) % traffic.size()];
          core::Verdict v = joza.Check(item.query, item.inputs);
          if (v.attack != item.is_attack) {
            wrong_verdicts.fetch_add(1, std::memory_order_relaxed);
          }
          if (item.is_attack) {
            attacks_sent.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(wrong_verdicts.load(), 0u)
      << "concurrent checking changed verdicts";
  const core::JozaStats stats = joza.stats();
  EXPECT_EQ(stats.queries_checked, kThreads * kRounds * traffic.size());
  EXPECT_EQ(stats.attacks_detected, attacks_sent.load());
  // Every check either hit a cache or ran full PTI; nothing lost.
  EXPECT_EQ(stats.nti_runs, stats.queries_checked);
  EXPECT_GT(stats.query_cache_hits + stats.structure_cache_hits, 0u);
}

TEST(ConcurrentJoza, StatsReadableWhileChecking) {
  auto app = attack::MakeTestbed();
  core::Joza joza = core::Joza::Install(*app);
  const std::vector<TrafficItem> traffic = MakeMixedTraffic();
  const std::size_t attacks_per_pass = static_cast<std::size_t>(
      std::count_if(traffic.begin(), traffic.end(),
                    [](const TrafficItem& item) { return item.is_attack; }));
  constexpr std::size_t kRounds = 30;

  std::atomic<bool> checking{true};
  std::size_t polls = 0;
  std::size_t decreases = 0;
  std::thread poller([&] {
    CounterList last = joza.stats().Counters();
    while (checking.load()) {
      CounterList now = joza.stats().Counters();
      decreases += CountDecreases(last, now);
      last = std::move(now);
      ++polls;
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> checkers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    checkers.emplace_back([&, t] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < traffic.size(); ++i) {
          const TrafficItem& item = traffic[(i + t * 7) % traffic.size()];
          joza.Check(item.query, item.inputs);
        }
      }
    });
  }
  for (auto& th : checkers) th.join();
  checking.store(false);
  poller.join();

  EXPECT_GT(polls, 0u);
  EXPECT_EQ(decreases, 0u) << "a counter read lower than an earlier poll";
  const core::JozaStats stats = joza.stats();
  const std::size_t checks = kThreads * kRounds * traffic.size();
  EXPECT_EQ(stats.queries_checked, checks);
  EXPECT_EQ(stats.nti_runs, checks);
  EXPECT_EQ(stats.attacks_detected, kThreads * kRounds * attacks_per_pass);
  // Each check is a query-cache hit, a structure-cache hit or a PTI run.
  EXPECT_EQ(stats.query_cache_hits + stats.structure_cache_hits +
                stats.pti_full_runs,
            checks);
}

TEST(ConcurrentJoza, AttackSinkSequencesAreUniqueUnderConcurrency) {
  auto app = attack::MakeTestbed();
  core::Joza joza = core::Joza::Install(*app);
  std::vector<std::size_t> sequences;
  joza.SetAttackSink([&](const core::AttackReport& report) {
    sequences.push_back(report.sequence);  // sink_mu serializes this
  });
  const std::string attack =
      "SELECT id FROM wp_posts WHERE id = -1 or 1=1";
  const std::vector<http::Input> inputs = {
      {http::InputKind::kGet, "id", "-1 or 1=1"}};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 25; ++i) joza.Check(attack, inputs);
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(sequences.size(), kThreads * 25u);
  std::sort(sequences.begin(), sequences.end());
  for (std::size_t i = 0; i < sequences.size(); ++i) {
    EXPECT_EQ(sequences[i], i + 1) << "duplicate or skipped sequence";
  }
}

TEST(ConcurrentJoza, BoundedCachePreservesVerdictsInSingleThread) {
  // Satellite check: a tiny cache forgets verdicts (more PTI re-runs) but
  // never changes them — eviction is safety-preserving.
  auto app = attack::MakeTestbed();
  core::JozaConfig tiny;
  tiny.cache_capacity = 8;
  // The benign family shares one shape; without this the structure
  // cache absorbs it and the tiny query cache never feels pressure.
  tiny.structure_cache = false;
  core::Joza bounded = core::Joza::Install(*app, tiny);
  core::Joza roomy = core::Joza::Install(*app);  // default capacity

  const std::vector<TrafficItem> traffic = MakeMixedTraffic();
  for (int round = 0; round < 3; ++round) {
    for (const TrafficItem& item : traffic) {
      core::Verdict vb = bounded.Check(item.query, item.inputs);
      core::Verdict vu = roomy.Check(item.query, item.inputs);
      EXPECT_EQ(vb.attack, vu.attack) << item.query;
      EXPECT_EQ(vb.attack, item.is_attack) << item.query;
    }
  }
  EXPECT_GT(bounded.stats().cache_evictions, 0u);
  EXPECT_EQ(roomy.stats().cache_evictions, 0u);
}

// ---------------------------------------------------------------------------
// Snapshot churn: lock-free readers vs RCU ruleset swaps
// ---------------------------------------------------------------------------

TEST(SnapshotChurn, ReadersStayCorrectWhileRulesetSwaps) {
  // kThreads readers hammer Check() while the main thread churns
  // OnSourcesChanged: every swap publishes a fresh immutable snapshot and
  // the readers pin whichever one is current with a single atomic load.
  // Under TSan this is the data-race probe for the RCU publication path.
  php::FragmentSet fragments;
  fragments.AddRaw("SELECT * FROM records WHERE ID=");
  fragments.AddRaw(" LIMIT 5");
  core::Joza joza{std::move(fragments)};

  const std::string benign = "SELECT * FROM records WHERE ID=5 LIMIT 5";
  const std::string attack =
      "SELECT * FROM records WHERE ID=1 UNION SELECT 2 LIMIT 5";

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> wrong{0};
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (joza.Check(benign, {}).attack) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
        if (!joza.Check(attack, {}).attack) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Each swap adds sources that never mention UNION, so no snapshot along
  // the way can flip either verdict: benign stays trusted, attack stays
  // detected, across every version the readers might pin.
  constexpr std::size_t kSwaps = 50;
  for (std::size_t i = 0; i < kSwaps; ++i) {
    joza.OnSourcesChanged(
        {{"live_plugin.php",
          "$q = 'SELECT name" + std::to_string(i) + " FROM t';"}});
  }
  stop.store(true);
  for (auto& th : readers) th.join();

  EXPECT_EQ(wrong.load(), 0u) << "snapshot churn changed a verdict";
  EXPECT_EQ(joza.ruleset_version(), kSwaps);
  const core::JozaStats stats = joza.stats();
  EXPECT_EQ(stats.ruleset_version, kSwaps);
  EXPECT_EQ(stats.ruleset_swaps, kSwaps);
  // A check issued after the churn settles carries the final version.
  EXPECT_EQ(joza.Check(benign, {}).ruleset_version, kSwaps);
}

TEST(SnapshotChurn, ConcurrentSwappersSerializeAndAllPublish) {
  // Writer-writer: concurrent OnSourcesChanged calls serialize on swap_mu;
  // every swap must land (version advances by exactly one per call).
  php::FragmentSet fragments;
  fragments.AddRaw("SELECT * FROM records WHERE ID=");
  core::Joza joza{std::move(fragments)};

  constexpr std::size_t kWriters = 4;
  constexpr std::size_t kSwapsEach = 10;
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::size_t i = 0; i < kSwapsEach; ++i) {
        joza.OnSourcesChanged(
            {{"w" + std::to_string(w) + "_" + std::to_string(i) + ".php",
              "$q = 'SELECT col" + std::to_string(w * kSwapsEach + i) +
                  " FROM t';"}});
      }
    });
  }
  for (auto& th : writers) th.join();
  EXPECT_EQ(joza.ruleset_version(), kWriters * kSwapsEach);
  EXPECT_EQ(joza.stats().ruleset_swaps, kWriters * kSwapsEach);
}

// ---------------------------------------------------------------------------
// DaemonPool
// ---------------------------------------------------------------------------

class DaemonPoolTest : public ::testing::Test {
 protected:
  // The paper's running example (Fig. 2): a tiny fragment vocabulary with
  // deterministic PTI verdicts, same corpus as ipc_test.
  void SetUp() override {
    fragments_.AddRaw("SELECT * FROM records WHERE ID=");
    fragments_.AddRaw(" LIMIT 5");
  }
  php::FragmentSet fragments_;
  const std::string benign_ = "SELECT * FROM records WHERE ID=5 LIMIT 5";
  const std::string attack_ =
      "SELECT * FROM records WHERE ID=1 OR 1=1 LIMIT 5";
};

TEST_F(DaemonPoolTest, ConcurrentAnalyzeCorrectVerdicts) {
  ipc::DaemonPool::Options options;
  options.max_size = 4;
  ipc::DaemonPool pool(fragments_, options);

  std::atomic<std::size_t> wrong{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 20; ++i) {
        const bool send_attack = (i + t) % 3 == 0;
        auto wire = pool.Analyze(send_attack ? attack_ : benign_);
        if (!wire.ok() || wire->attack_detected != send_attack) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0u);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.analyzed, kThreads * 20u);
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_LE(pool.live(), options.max_size);
  EXPECT_GE(stats.spawned, 1u);
}

TEST_F(DaemonPoolTest, DeadDaemonIsReplacedFailClosed) {
  ipc::DaemonPool::Options options;
  options.min_size = 1;
  options.max_size = 2;
  ipc::DaemonPool pool(fragments_, options);

  auto first = pool.Analyze(benign_);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->attack_detected);

  // Kill every idle daemon out from under the pool.
  for (int pid : pool.child_pids()) {
    ASSERT_GT(pid, 0);
    ::kill(pid, SIGKILL);
  }
  // The pool must notice the corpse, replace it, and still answer
  // correctly (retry path) — not hang and not fail open.
  auto after = pool.Analyze(benign_);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(after->attack_detected);
  EXPECT_GE(pool.stats().replaced, 1u);
  EXPECT_TRUE(pool.Analyze(attack_)->attack_detected);
}

TEST_F(DaemonPoolTest, BackendErrorsAfterShutdownAndEngineFailsClosed) {
  ipc::DaemonPool pool(fragments_);
  core::PtiFn backend = pool.AsPtiBackend();
  pool.Shutdown();
  // The adapter reports "no verdict" rather than inventing one...
  auto result = backend("SELECT 1", {}, util::Deadline());
  ASSERT_FALSE(result.ok()) << "shut-down pool must not return a verdict";
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  // ...and an engine wired to the dead pool blocks the query (default
  // degraded mode is fail-closed).
  core::JozaConfig cfg;
  cfg.enable_nti = false;
  cfg.query_cache = false;
  cfg.structure_cache = false;
  core::Joza joza(fragments_, cfg);
  joza.SetPtiBackend(pool.AsPtiBackend());
  core::Verdict v = joza.Check("SELECT 1", {});
  EXPECT_TRUE(v.attack) << "engine must fail closed on a dead backend";
  EXPECT_TRUE(v.degraded);
}

TEST_F(DaemonPoolTest, IdleReapingRespectsMinSize) {
  ipc::DaemonPool::Options options;
  options.min_size = 1;
  options.max_size = 4;
  options.idle_timeout = std::chrono::milliseconds(0);  // reap immediately
  ipc::DaemonPool pool(fragments_, options);

  // Drive enough parallel traffic to spawn several daemons.
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 5; ++i) {
        (void)pool.Analyze(benign_);
      }
    });
  }
  for (auto& th : threads) th.join();
  pool.ReapIdle();
  EXPECT_LE(pool.live(), std::max<std::size_t>(1, options.min_size));
  // Still serving after the reap.
  auto wire = pool.Analyze(benign_);
  ASSERT_TRUE(wire.ok());
  EXPECT_FALSE(wire->attack_detected);
}

TEST_F(DaemonPoolTest, LazyBroadcastConvergesOnTargetVersion) {
  ipc::DaemonPool::Options options;
  options.max_size = 2;
  ipc::DaemonPool pool(fragments_, options);

  // Spawn one daemon at version 0 and park it idle.
  auto wire = pool.Analyze(attack_);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_TRUE(wire->attack_detected);
  EXPECT_EQ(wire->ruleset_version, 0u);
  EXPECT_EQ(pool.idle_versions(), (std::vector<std::uint64_t>{0}));

  // Update the vocabulary: the pool's target moves, the idle daemon lags
  // behind it (lazy broadcast — nothing round-trips on AddFragments).
  ASSERT_TRUE(pool.AddFragments({" OR 1=1 LIMIT 5"}).ok());
  EXPECT_EQ(pool.target_version(), 1u);
  EXPECT_EQ(pool.idle_versions(), (std::vector<std::uint64_t>{0}));

  // Next checkout ships the pending delta; the daemon converges on the
  // named target version and the new fragment whitens the old attack.
  wire = pool.Analyze(attack_);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_FALSE(wire->attack_detected);
  EXPECT_EQ(wire->ruleset_version, 1u);
  EXPECT_EQ(pool.idle_versions(), (std::vector<std::uint64_t>{1}));

  const auto stats = pool.stats();
  EXPECT_EQ(stats.target_version, 1u);
  EXPECT_EQ(stats.version_mismatches, 0u);
}

TEST_F(DaemonPoolTest, ConcurrentAnalyzeDuringFragmentUpdates) {
  // Analyze traffic races AddFragments: verdicts must never be wrong
  // (fragment updates only widen trust; benign stays benign) and every
  // daemon must converge on the final target version.
  ipc::DaemonPool::Options options;
  options.max_size = 3;
  ipc::DaemonPool pool(fragments_, options);

  constexpr std::size_t kUpdates = 10;
  std::atomic<std::size_t> wrong{0};
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        auto w = pool.Analyze(benign_);
        if (!w.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        } else if (w->attack_detected) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::size_t i = 0; i < kUpdates; ++i) {
    ASSERT_TRUE(
        pool.AddFragments({" ORDER BY col" + std::to_string(i)}).ok());
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(pool.target_version(), kUpdates);
  // One more round trip after the updates settle: fully converged.
  auto wire = pool.Analyze(benign_);
  ASSERT_TRUE(wire.ok());
  EXPECT_EQ(wire->ruleset_version, kUpdates);
}

TEST(DaemonPoolIntegration, SharedEngineWithPoolBackendConcurrently) {
  // Full stack, concurrently: one shared Joza engine routing PTI through
  // the daemon pool, checked from kThreads threads at once.
  auto app = attack::MakeTestbed();
  core::Joza joza = core::Joza::Install(*app);
  ipc::DaemonPool::Options options;
  options.max_size = 4;
  ipc::DaemonPool pool(php::FragmentSet::FromSources(app->sources()), options);
  joza.SetPtiBackend(pool.AsPtiBackend());

  const std::vector<TrafficItem> traffic = MakeMixedTraffic();
  std::atomic<std::size_t> wrong{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < traffic.size(); ++i) {
        const TrafficItem& item = traffic[(i + t) % traffic.size()];
        core::Verdict v = joza.Check(item.query, item.inputs);
        if (v.attack != item.is_attack) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0u);
}

// ---------------------------------------------------------------------------
// GatewayServer end-to-end
// ---------------------------------------------------------------------------

TEST(GatewayServer, ConcurrentMixedTrafficOverTheWire) {
  auto proto = attack::MakeTestbed();
  core::JozaConfig config;
  config.cache_capacity = 8192;
  core::Joza joza = core::Joza::Install(*proto, config);

  gateway::GatewayConfig gcfg;
  gcfg.workers = kThreads;
  gateway::GatewayServer server([] { return attack::MakeTestbed(); }, &joza,
                                gcfg);
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  constexpr std::size_t kClientThreads = 8;
  constexpr int kPerClient = 30;
  std::atomic<std::size_t> errors{0};
  std::atomic<std::size_t> blocked{0};
  std::atomic<std::size_t> ok_responses{0};
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      gateway::KeepAliveClient client(port.value());
      for (int i = 0; i < kPerClient; ++i) {
        const bool send_attack = (i + t) % 5 == 0;
        auto r = send_attack
                     ? client.Get(
                           "/plugins/community-events?uid=-1%20or%201%3D1")
                     : client.Get("/post?id=" + std::to_string(i % 50 + 1));
        if (!r.ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (send_attack) {
          // Terminated request: blank 500 page.
          if (r->status == 500 && r->body.empty()) {
            blocked.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (r->status == 200) {
          ok_responses.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : clients) th.join();

  const std::size_t total = kClientThreads * kPerClient;
  const std::size_t attacks = [] {
    std::size_t n = 0;
    for (std::size_t t = 0; t < kClientThreads; ++t) {
      for (int i = 0; i < kPerClient; ++i) {
        if ((i + static_cast<std::size_t>(t)) % 5 == 0) ++n;
      }
    }
    return n;
  }();
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(blocked.load(), attacks) << "every attack must be terminated";
  EXPECT_EQ(ok_responses.load(), total - attacks);
  EXPECT_GE(joza.stats().attacks_detected, attacks);

  const gateway::GatewayStats stats = server.stats();
  EXPECT_EQ(stats.requests_served, total);
  EXPECT_GT(stats.keepalive_reuses, 0u) << "keep-alive must be in effect";
  server.Stop();
}

TEST(GatewayServer, RequestKeepsItsSnapshotAcrossSourceUpdate) {
  // The handler serves each request through one engine scope. /update
  // publishes a vocabulary that covers `q` and then issues `q`: the rest of
  // its request still checks against the snapshot it began with, and only
  // the next request sees the new one.
  php::FragmentSet fragments;
  fragments.AddRaw("SELECT * FROM records WHERE ID=");
  fragments.AddRaw(" LIMIT 5");
  core::Joza joza{std::move(fragments)};
  const std::string q =
      "SELECT * FROM records WHERE ID=1 UNION SELECT 2 LIMIT 5";
  auto factory = [&joza, q] {
    auto app = std::make_unique<webapp::Application>(
        std::make_unique<db::Database>());
    auto issue = [q](const http::Request&, const webapp::QueryRunner& run) {
      (void)run(q);
      return http::Response{200, "issued", 0.0};
    };
    app->AddRoute(
        "/update",
        [&joza, q, issue](const http::Request& request,
                          const webapp::QueryRunner& run) {
          joza.OnSourcesChanged({{"union.php", "$q = '" + q + "';"}});
          return issue(request, run);
        },
        php::SourceFile{"update.php", "<?php ?>"});
    app->AddRoute("/issue", issue, php::SourceFile{"issue.php", "<?php ?>"});
    return app;
  };
  gateway::GatewayConfig gcfg;
  gcfg.workers = 1;
  gateway::GatewayServer server(factory, &joza, gcfg);
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  gateway::KeepAliveClient client(port.value());

  auto before = client.Get("/issue");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->status, 500);  // UNION is uncovered: terminated
  auto during = client.Get("/update");
  ASSERT_TRUE(during.ok());
  EXPECT_EQ(during->status, 500);  // still checked at version 0
  EXPECT_EQ(joza.ruleset_version(), 1u);
  auto after = client.Get("/issue");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->status, 200);
  EXPECT_EQ(joza.stats().attacks_detected, 2u);
  server.Stop();
}

TEST(GatewayServer, KeepAliveServesManyRequestsPerConnection) {
  gateway::GatewayConfig gcfg;
  gcfg.workers = 2;
  gateway::GatewayServer server([] { return webapp::MakeWordpressLikeApp(7); },
                                nullptr, gcfg);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  gateway::KeepAliveClient client(port.value());
  for (int i = 0; i < 20; ++i) {
    auto r = client.Get("/post?id=" + std::to_string(i % 50 + 1));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, 200);
  }
  EXPECT_EQ(client.reconnects(), 0u) << "one connection should suffice";
  const gateway::GatewayStats stats = server.stats();
  EXPECT_EQ(stats.requests_served, 20u);
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.keepalive_reuses, 19u);
  server.Stop();
}

TEST(GatewayServer, PerConnectionRequestCapForcesReconnect) {
  gateway::GatewayConfig gcfg;
  gcfg.workers = 1;
  gcfg.max_requests_per_connection = 5;
  gateway::GatewayServer server([] { return webapp::MakeWordpressLikeApp(7); },
                                nullptr, gcfg);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());
  gateway::KeepAliveClient client(port.value());
  for (int i = 0; i < 12; ++i) {
    auto r = client.Get("/");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, 200);
  }
  // The server announces Connection: close at the cap; the client closes
  // cleanly and dials fresh. 12 requests at 5 per connection = 3 dials.
  EXPECT_EQ(server.stats().connections_accepted, 3u);
  EXPECT_EQ(server.stats().requests_served, 12u);
  server.Stop();
}

TEST(GatewayServer, BoundedQueueRejectsOverloadWith503) {
  // One deliberately slow worker and a tiny queue: a burst must drain into
  // 503s, not an unbounded backlog.
  auto factory = [] {
    auto app = webapp::MakeWordpressLikeApp(7);
    app->AddRoute(
        "/slow",
        [](const http::Request&, const webapp::QueryRunner&) {
          std::this_thread::sleep_for(std::chrono::milliseconds(150));
          return http::Response{200, "slept", 0.0};
        },
        php::SourceFile{"slow.php", "<?php $q = \"SELECT 1\";"});
    return app;
  };
  gateway::GatewayConfig gcfg;
  gcfg.workers = 1;
  gcfg.queue_capacity = 1;
  gateway::GatewayServer server(factory, nullptr, gcfg);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  constexpr std::size_t kBurst = 6;
  std::atomic<std::size_t> served{0};
  std::atomic<std::size_t> rejected{0};
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kBurst; ++t) {
    clients.emplace_back([&] {
      gateway::KeepAliveClient client(port.value());
      auto r = client.Get("/slow");
      if (!r.ok()) return;
      if (r->status == 200) served.fetch_add(1);
      if (r->status == 503) rejected.fetch_add(1);
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(served.load() + rejected.load(), kBurst);
  EXPECT_GE(rejected.load(), 1u) << "bounded queue never rejected";
  EXPECT_GE(served.load(), 1u);
  EXPECT_EQ(server.stats().connections_rejected, rejected.load());
  server.Stop();
}

TEST(GatewayServer, GracefulStopDrainsAndIsIdempotent) {
  gateway::GatewayConfig gcfg;
  gcfg.workers = 4;
  gateway::GatewayServer server([] { return webapp::MakeWordpressLikeApp(7); },
                                nullptr, gcfg);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());
  // Leave idle keep-alive connections hanging; Stop must sever them
  // instead of waiting out the idle timeout.
  gateway::KeepAliveClient a(port.value());
  gateway::KeepAliveClient b(port.value());
  ASSERT_TRUE(a.Get("/").ok());
  ASSERT_TRUE(b.Get("/post?id=1").ok());
  server.Stop();
  server.Stop();  // idempotent
  EXPECT_EQ(server.stats().requests_served, 2u);
}

TEST(GatewayServer, MalformedRequestGets400) {
  gateway::GatewayConfig gcfg;
  gcfg.workers = 1;
  gateway::GatewayServer server([] { return webapp::MakeWordpressLikeApp(7); },
                                nullptr, gcfg);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());
  gateway::KeepAliveClient client(port.value());
  auto raw = client.RoundTrip("GARBAGE\r\n\r\n");
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  EXPECT_NE(raw->find("400"), std::string::npos);
  server.Stop();
}

TEST(GatewayServer, ProxyConnectionHeaderKeepsTheConnectionAlive) {
  // Only a header named exactly Connection decides keep-alive; a
  // Proxy-Connection header (or any other name ending in it) does not.
  gateway::GatewayConfig gcfg;
  gcfg.workers = 1;
  gateway::GatewayServer server([] { return webapp::MakeWordpressLikeApp(7); },
                                nullptr, gcfg);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());
  gateway::KeepAliveClient client(port.value());
  for (int i = 0; i < 2; ++i) {
    auto raw = client.RoundTrip(
        "GET /post?id=1 HTTP/1.1\r\nHost: x\r\n"
        "Proxy-Connection: close\r\n\r\n");
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    EXPECT_NE(raw->find("Connection: keep-alive"), std::string::npos)
        << *raw;
  }
  EXPECT_EQ(client.reconnects(), 0u);
  EXPECT_EQ(server.stats().connections_accepted, 1u);
  server.Stop();
}

TEST(GatewayServer, OneApplicationPerHandler) {
  // Applications belong to the handlers, not the shards: three handlers
  // behind one shard build exactly three.
  std::atomic<int> built{0};
  gateway::GatewayConfig gcfg;
  gcfg.workers = 3;
  gcfg.event_shards = 1;
  gateway::GatewayServer server(
      [&built] {
        built.fetch_add(1);
        return webapp::MakeWordpressLikeApp(7);
      },
      nullptr, gcfg);
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  gateway::KeepAliveClient client(port.value());
  auto r = client.Get("/post?id=1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->status, 200);
  server.Stop();
  EXPECT_EQ(server.shard_count(), 1u);
  EXPECT_EQ(built.load(), 3);
}

TEST(GatewayServer, ShardCountersSumToRequestsServed) {
  gateway::GatewayConfig gcfg;
  gcfg.workers = 2;
  gateway::GatewayServer server([] { return webapp::MakeWordpressLikeApp(7); },
                                nullptr, gcfg);
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  gateway::KeepAliveClient client(port.value());
  for (int i = 0; i < 10; ++i) {
    auto r = client.Get("/post?id=" + std::to_string(i + 1));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, 200);
  }
  const gateway::GatewayStats stats = server.stats();
  EXPECT_EQ(stats.requests_served, 10u);
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.keepalive_reuses, 9u);
  server.Stop();
  // event_shards = 0 means one shard per worker.
  EXPECT_EQ(server.shard_count(), 2u);
  std::size_t shard_requests = 0;
  for (const auto& shard : server.shard_stats()) {
    shard_requests += shard.requests;
  }
  EXPECT_EQ(shard_requests, 10u);
}

TEST(GatewayServer, StatsReadableWhileServing) {
  auto proto = attack::MakeTestbed();
  core::Joza joza = core::Joza::Install(*proto);
  gateway::GatewayConfig gcfg;
  gcfg.workers = 4;
  gateway::GatewayServer server([] { return attack::MakeTestbed(); }, &joza,
                                gcfg);
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  constexpr std::size_t kClients = 8;
  constexpr std::size_t kPerClient = 25;
  std::atomic<bool> serving{true};
  std::size_t polls = 0;
  std::size_t decreases = 0;
  std::thread poller([&] {
    CounterList last = server.stats().Counters();
    while (serving.load()) {
      CounterList now = server.stats().Counters();
      decreases += CountDecreases(last, now);
      last = std::move(now);
      ++polls;
      std::this_thread::yield();
    }
  });
  std::atomic<std::size_t> answered{0};
  std::atomic<std::size_t> reconnects{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      gateway::KeepAliveClient client(port.value());
      for (std::size_t i = 0; i < kPerClient; ++i) {
        auto r = client.Get("/post?id=" + std::to_string((c + i) % 50 + 1));
        if (r.ok() && r->status == 200) answered.fetch_add(1);
      }
      reconnects.fetch_add(client.reconnects());
    });
  }
  for (auto& th : clients) th.join();
  serving.store(false);
  poller.join();

  EXPECT_GT(polls, 0u);
  EXPECT_EQ(decreases, 0u) << "a counter read lower than an earlier poll";
  const std::size_t requests = kClients * kPerClient;
  EXPECT_EQ(answered.load(), requests);
  const gateway::GatewayStats stats = server.stats();
  EXPECT_EQ(stats.requests_served, requests);
  EXPECT_EQ(stats.connections_accepted, kClients + reconnects.load());
  EXPECT_EQ(stats.keepalive_reuses, requests - stats.connections_accepted);
  EXPECT_EQ(stats.bad_requests, 0u);
  EXPECT_EQ(stats.connections_rejected, 0u);
  server.Stop();
  std::size_t shard_requests = 0;
  for (const gateway::ShardStats& shard : server.shard_stats()) {
    shard_requests += shard.requests;
  }
  EXPECT_EQ(shard_requests, requests);
}

}  // namespace
}  // namespace joza
