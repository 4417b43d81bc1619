// Chaos suite for the fault-tolerant analysis pipeline: fault injector
// determinism, circuit-breaker transitions, IPC deadlines, hung-daemon
// kill-and-replace, the pool shutdown race, degraded-mode policy, and the
// gateway's hostile-client, deadline-shed and fd-exhaustion guards. Runs
// under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "attack/catalog.h"
#include "core/joza.h"
#include "resilience/circuit_breaker.h"
#include "resilience/injector.h"
#include "gateway/client.h"
#include "gateway/gateway.h"
#include "ipc/daemon.h"
#include "ipc/daemon_pool.h"
#include "ipc/framing.h"
#include "util/deadline.h"

namespace joza {
namespace {

using namespace std::chrono_literals;

// Every test runs against the process-global injector; leave it clean no
// matter how the test exits.
class ChaosTest : public ::testing::Test {
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

// ---------------------------------------------------------------------------
// Fault injector
// ---------------------------------------------------------------------------

using FaultInjectorTest = ChaosTest;

TEST_F(FaultInjectorTest, DisarmedNeverFires) {
  auto& injector = resilience::FaultInjector::Global();
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(injector.ShouldFire(resilience::FaultPoint::kDaemonHang));
  }
  EXPECT_EQ(injector.fires(resilience::FaultPoint::kDaemonHang), 0u);
  // The disabled fast path does not even count evaluations.
  EXPECT_EQ(injector.evaluations(resilience::FaultPoint::kDaemonHang), 0u);
}

TEST_F(FaultInjectorTest, RateScheduleIsDeterministic) {
  auto& injector = resilience::FaultInjector::Global();
  injector.Arm(resilience::FaultPoint::kDaemonKill, 0.25);
  std::vector<int> fired_at;
  for (int i = 1; i <= 100; ++i) {
    if (injector.ShouldFire(resilience::FaultPoint::kDaemonKill)) {
      fired_at.push_back(i);
    }
  }
  // floor(k/4) crosses an integer exactly at every 4th evaluation.
  ASSERT_EQ(fired_at.size(), 25u);
  for (std::size_t i = 0; i < fired_at.size(); ++i) {
    EXPECT_EQ(fired_at[i], static_cast<int>(4 * (i + 1)));
  }
  EXPECT_EQ(injector.fires(resilience::FaultPoint::kDaemonKill), 25u);
}

TEST_F(FaultInjectorTest, RateOneFiresEveryTimeAndRearmResets) {
  auto& injector = resilience::FaultInjector::Global();
  injector.Arm(resilience::FaultPoint::kFrameCorrupt, 1.0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(injector.ShouldFire(resilience::FaultPoint::kFrameCorrupt));
  }
  injector.Arm(resilience::FaultPoint::kFrameCorrupt, 0.5);  // rearm: fresh schedule
  EXPECT_FALSE(injector.ShouldFire(resilience::FaultPoint::kFrameCorrupt));
  EXPECT_TRUE(injector.ShouldFire(resilience::FaultPoint::kFrameCorrupt));
}

TEST_F(FaultInjectorTest, ArmedPointsDoNotDisturbOthers) {
  auto& injector = resilience::FaultInjector::Global();
  injector.Arm(resilience::FaultPoint::kShortWrite, 1.0);
  EXPECT_FALSE(injector.ShouldFire(resilience::FaultPoint::kAcceptFail));
  EXPECT_TRUE(injector.ShouldFire(resilience::FaultPoint::kShortWrite));
  EXPECT_TRUE(injector.armed(resilience::FaultPoint::kShortWrite));
  EXPECT_FALSE(injector.armed(resilience::FaultPoint::kAcceptFail));
}

TEST_F(FaultInjectorTest, ArmFromSpecGrammar) {
  auto& injector = resilience::FaultInjector::Global();
  EXPECT_TRUE(resilience::ArmFromSpec(injector, "daemon-hang:0.1").ok());
  EXPECT_TRUE(injector.armed(resilience::FaultPoint::kDaemonHang));
  EXPECT_DOUBLE_EQ(injector.rate(resilience::FaultPoint::kDaemonHang), 0.1);
  // Bare name arms at 1.0.
  EXPECT_TRUE(resilience::ArmFromSpec(injector, "accept-fail").ok());
  EXPECT_DOUBLE_EQ(injector.rate(resilience::FaultPoint::kAcceptFail), 1.0);
  EXPECT_FALSE(resilience::ArmFromSpec(injector, "no-such-point:0.5").ok());
  EXPECT_FALSE(resilience::ArmFromSpec(injector, "daemon-hang:bogus").ok());
  EXPECT_FALSE(resilience::ArmFromSpec(injector, "daemon-hang:1.5").ok());
  EXPECT_FALSE(resilience::ArmFromSpec(injector, "daemon-hang:-0.5").ok());
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

resilience::CircuitBreakerOptions FastBreaker() {
  resilience::CircuitBreakerOptions options;
  options.failure_threshold = 3;
  options.cooldown = 50ms;
  options.half_open_successes = 2;
  return options;
}

TEST(CircuitBreaker, StaysClosedBelowThreshold) {
  resilience::CircuitBreaker breaker(FastBreaker());
  for (int round = 0; round < 5; ++round) {
    ASSERT_TRUE(breaker.Allow());
    breaker.RecordFailure();
    ASSERT_TRUE(breaker.Allow());
    breaker.RecordFailure();
    ASSERT_TRUE(breaker.Allow());
    breaker.RecordSuccess();  // resets the consecutive count
  }
  EXPECT_EQ(breaker.state(), resilience::BreakerState::kClosed);
  EXPECT_EQ(breaker.stats().opens, 0u);
}

TEST(CircuitBreaker, OpensAtThresholdAndFastRejects) {
  resilience::CircuitBreaker breaker(FastBreaker());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(breaker.Allow());
    breaker.RecordFailure();
  }
  EXPECT_EQ(breaker.state(), resilience::BreakerState::kOpen);
  EXPECT_FALSE(breaker.Allow());
  EXPECT_FALSE(breaker.Allow());
  EXPECT_EQ(breaker.stats().opens, 1u);
  EXPECT_EQ(breaker.stats().fast_rejects, 2u);
}

TEST(CircuitBreaker, HalfOpenProbesCloseOnSuccess) {
  resilience::CircuitBreaker breaker(FastBreaker());
  for (int i = 0; i < 3; ++i) {
    breaker.Allow();
    breaker.RecordFailure();
  }
  std::this_thread::sleep_for(80ms);  // cooldown elapses
  ASSERT_TRUE(breaker.Allow());       // probe 1 admitted
  EXPECT_EQ(breaker.state(), resilience::BreakerState::kHalfOpen);
  breaker.RecordSuccess();
  ASSERT_TRUE(breaker.Allow());       // probe 2 admitted
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), resilience::BreakerState::kClosed);
  EXPECT_EQ(breaker.stats().closes, 1u);
  EXPECT_GE(breaker.stats().probes, 2u);
}

TEST(CircuitBreaker, HalfOpenFailureReopens) {
  resilience::CircuitBreaker breaker(FastBreaker());
  for (int i = 0; i < 3; ++i) {
    breaker.Allow();
    breaker.RecordFailure();
  }
  std::this_thread::sleep_for(80ms);
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordFailure();  // the probe fails: straight back to open
  EXPECT_EQ(breaker.state(), resilience::BreakerState::kOpen);
  EXPECT_FALSE(breaker.Allow());
  EXPECT_EQ(breaker.stats().opens, 2u);
}

TEST(CircuitBreaker, HalfOpenBoundsConcurrentProbes) {
  resilience::CircuitBreaker breaker(FastBreaker());
  for (int i = 0; i < 3; ++i) {
    breaker.Allow();
    breaker.RecordFailure();
  }
  std::this_thread::sleep_for(80ms);
  // half_open_successes = 2 concurrent probes max; the third is refused.
  EXPECT_TRUE(breaker.Allow());
  EXPECT_TRUE(breaker.Allow());
  EXPECT_FALSE(breaker.Allow());
}

TEST(CircuitBreaker, ThresholdZeroDisables) {
  resilience::CircuitBreakerOptions options;
  options.failure_threshold = 0;
  resilience::CircuitBreaker breaker(options);
  EXPECT_FALSE(breaker.enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(breaker.Allow());
    breaker.RecordFailure();
  }
  EXPECT_EQ(breaker.state(), resilience::BreakerState::kClosed);
}

// ---------------------------------------------------------------------------
// IPC deadlines
// ---------------------------------------------------------------------------

TEST(IpcDeadlines, ReadFrameTimesOutOnSilentPipe) {
  auto pipe = ipc::MakePipe();
  ASSERT_TRUE(pipe.ok());
  const auto start = std::chrono::steady_clock::now();
  auto frame = ipc::ReadFrame(pipe->first.get(), 64u << 20,
                              util::Deadline::After(100ms));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, 2s) << "deadline must bound the wait";
}

TEST(IpcDeadlines, WriteFrameTimesOutWhenPipeIsFull) {
  auto pipe = ipc::MakePipe();
  ASSERT_TRUE(pipe.ok());
  ASSERT_TRUE(ipc::SetNonBlocking(pipe->second.get(), true).ok());
  // Stuff the pipe until the kernel buffer is full, then demand more.
  ipc::Frame big;
  big.type = ipc::MessageType::kAnalyzeRequest;
  big.payload.assign(1u << 20, 'x');
  Status st = Status::Ok();
  for (int i = 0; i < 64 && st.ok(); ++i) {
    st = ipc::WriteFrame(pipe->second.get(), big,
                         util::Deadline::After(100ms));
  }
  ASSERT_FALSE(st.ok()) << "a never-drained pipe must eventually block";
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
}

// ---------------------------------------------------------------------------
// Hung and crashing daemons
// ---------------------------------------------------------------------------

using DaemonChaosTest = ChaosTest;

TEST_F(DaemonChaosTest, HungDaemonMissesDeadlineThenRecovers) {
  auto& injector = resilience::FaultInjector::Global();
  injector.set_hang(5000ms);
  injector.Arm(resilience::FaultPoint::kDaemonHang, 1.0);

  ipc::DaemonClient client(ipc::DaemonClient::Mode::kPersistent,
                           OneFragment());
  const auto start = std::chrono::steady_clock::now();
  auto v = client.Analyze("SELECT 1", util::Deadline::After(150ms));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, 3s) << "hung daemon must not pin the caller";

  // The stream is desynchronized: kill, disarm, and the client respawns a
  // healthy daemon on next use.
  client.Kill();
  injector.DisarmAll();
  auto healthy = client.Analyze("SELECT 1", util::Deadline::After(2000ms));
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_FALSE(healthy->attack_detected);
}

TEST_F(DaemonChaosTest, CrashingDaemonSurfacesErrorNotVerdict) {
  auto& injector = resilience::FaultInjector::Global();
  injector.Arm(resilience::FaultPoint::kDaemonKill, 1.0);
  ipc::DaemonClient client(ipc::DaemonClient::Mode::kPersistent,
                           OneFragment());
  auto v = client.Analyze("SELECT 1", util::Deadline::After(2000ms));
  ASSERT_FALSE(v.ok()) << "a daemon that died mid-request has no verdict";
  injector.DisarmAll();
}

TEST_F(DaemonChaosTest, CorruptFrameRejectedByDaemon) {
  auto& injector = resilience::FaultInjector::Global();
  ipc::DaemonClient client(ipc::DaemonClient::Mode::kPersistent,
                           OneFragment());
  ASSERT_TRUE(client.Ping().ok());  // spawn while the wire is clean
  injector.Arm(resilience::FaultPoint::kFrameCorrupt, 1.0);
  auto v = client.Analyze("SELECT 1", util::Deadline::After(500ms));
  EXPECT_FALSE(v.ok()) << "corrupt frame cannot produce a verdict";
  injector.DisarmAll();
}

TEST_F(DaemonChaosTest, PoolKillsAndReplacesHungDaemons) {
  auto& injector = resilience::FaultInjector::Global();
  injector.set_hang(5000ms);
  injector.Arm(resilience::FaultPoint::kDaemonHang, 1.0);

  ipc::DaemonPool::Options options;
  options.max_size = 2;
  options.per_call_timeout = 150ms;
  ipc::DaemonPool pool(OneFragment(), options);

  const auto start = std::chrono::steady_clock::now();
  auto v = pool.Analyze("SELECT 1");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kDeadlineExceeded);
  // Two attempts, each bounded by per_call_timeout; both daemons killed.
  EXPECT_LT(elapsed, 3s);
  EXPECT_GE(pool.stats().replaced, 2u);
  EXPECT_GE(pool.stats().deadline_misses, 1u);

  // Disarm: freshly spawned daemons are healthy and the pool recovers.
  injector.DisarmAll();
  auto healthy = pool.Analyze("SELECT 1");
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_FALSE(healthy->attack_detected);
}

TEST_F(DaemonChaosTest, PoolRetriesThroughCrashTrains) {
  auto& injector = resilience::FaultInjector::Global();
  // Every other analyze request kills its daemon; the pool's single retry
  // rides through because the retry lands on the non-firing evaluation.
  injector.Arm(resilience::FaultPoint::kDaemonKill, 0.5);
  ipc::DaemonPool::Options options;
  options.max_size = 1;
  options.per_call_timeout = 2000ms;
  ipc::DaemonPool pool(OneFragment(), options);
  std::size_t answered = 0;
  for (int i = 0; i < 6; ++i) {
    auto v = pool.Analyze("SELECT 1");
    if (v.ok()) ++answered;
  }
  injector.DisarmAll();
  EXPECT_GE(answered, 4u) << "retry must absorb isolated daemon crashes";
  EXPECT_GE(pool.stats().replaced, 1u);
}

// ---------------------------------------------------------------------------
// Pool shutdown race
// ---------------------------------------------------------------------------

TEST(DaemonPoolShutdown, RacingAnalyzeCallsDrainSafely) {
  // Hammer Analyze from several threads while Shutdown lands mid-traffic.
  // Pre-fix this was documented "must not race — stop traffic first"; now
  // the pool must drain in-flight calls and answer late ones Unavailable.
  for (int round = 0; round < 3; ++round) {
    ipc::DaemonPool::Options options;
    options.max_size = 2;
    options.per_call_timeout = 1000ms;
    auto pool = std::make_unique<ipc::DaemonPool>(OneFragment(), options);

    std::atomic<bool> stop{false};
    std::atomic<std::size_t> ok_count{0};
    std::atomic<std::size_t> unavailable{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          auto v = pool->Analyze("SELECT 1");
          if (v.ok()) {
            ok_count.fetch_add(1, std::memory_order_relaxed);
          } else if (v.status().code() == StatusCode::kUnavailable) {
            unavailable.fetch_add(1, std::memory_order_relaxed);
            break;  // pool is gone; a real caller would degrade here
          }
        }
      });
    }
    std::this_thread::sleep_for(10ms);
    pool->Shutdown();  // races the Analyze loop on purpose
    stop.store(true);
    for (auto& th : threads) th.join();
    pool.reset();
    EXPECT_GT(ok_count.load() + unavailable.load(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Degraded-mode policy in the engine
// ---------------------------------------------------------------------------

core::JozaConfig DegradedConfig(core::DegradedMode mode, bool nti) {
  core::JozaConfig cfg;
  cfg.enable_nti = nti;
  cfg.query_cache = false;
  cfg.structure_cache = false;
  cfg.degraded_mode = mode;
  cfg.breaker.failure_threshold = 3;
  cfg.breaker.cooldown = 50ms;
  cfg.breaker.half_open_successes = 1;
  return cfg;
}

TEST(DegradedMode, FailClosedBlocksEverythingAndBreakerOpens) {
  core::Joza joza(OneFragment(),
                  DegradedConfig(core::DegradedMode::kFailClosed, false));
  std::atomic<bool> backend_up{false};
  joza.SetPtiBackend([&](std::string_view, const std::vector<sql::Token>&,
                         util::Deadline) -> StatusOr<pti::PtiResult> {
    if (!backend_up.load()) return Status::Unavailable("injected outage");
    pti::PtiResult r;
    r.attack_detected = false;
    return r;
  });

  for (int i = 0; i < 10; ++i) {
    core::Verdict v = joza.Check("SELECT 1", {});
    EXPECT_TRUE(v.attack) << "fail-closed must block during the outage";
    EXPECT_TRUE(v.degraded);
  }
  EXPECT_EQ(joza.breaker().state(), resilience::BreakerState::kOpen);
  const core::JozaStats stats = joza.stats();
  EXPECT_EQ(stats.degraded_blocks, 10u);
  EXPECT_EQ(stats.attacks_detected, 0u) << "outage blocks are not attacks";
  // Checks 4..10 never reached the backend: the breaker refused them.
  EXPECT_GE(stats.breaker_fast_rejects, 1u);

  // Recovery: backend heals, cooldown elapses, one probe closes the
  // breaker, verdicts flow again.
  backend_up.store(true);
  std::this_thread::sleep_for(80ms);
  core::Verdict probe = joza.Check("SELECT 1", {});
  EXPECT_FALSE(probe.attack) << "half-open probe should reach the backend";
  EXPECT_FALSE(probe.degraded);
  EXPECT_EQ(joza.breaker().state(), resilience::BreakerState::kClosed);
  EXPECT_GE(joza.breaker().stats().closes, 1u);
  core::Verdict after = joza.Check("SELECT 1", {});
  EXPECT_FALSE(after.attack);
}

TEST(DegradedMode, NtiOnlyKeepsServingAndStillCatchesTaintedQueries) {
  core::Joza joza(OneFragment(),
                  DegradedConfig(core::DegradedMode::kNtiOnly, true));
  joza.SetPtiBackend([](std::string_view, const std::vector<sql::Token>&,
                        util::Deadline) -> StatusOr<pti::PtiResult> {
    return Status::Unavailable("injected outage");
  });

  // Benign query, benign inputs: NTI-only mode keeps serving.
  core::Verdict benign = joza.Check("SELECT 1", {});
  EXPECT_FALSE(benign.attack) << "nti-only must not block benign traffic";
  EXPECT_TRUE(benign.degraded);
  EXPECT_TRUE(benign.pti_unavailable);

  // Tainted query whose critical tokens come verbatim from an input: NTI
  // alone still detects it.
  std::vector<http::Input> inputs = {
      {http::InputKind::kGet, "id", "1 OR 1=1"}};
  core::Verdict attack =
      joza.Check("SELECT * FROM posts WHERE id=1 OR 1=1", inputs);
  EXPECT_TRUE(attack.attack) << "NTI must still catch tainted queries";
  EXPECT_EQ(attack.detected_by, core::DetectedBy::kNti);

  const core::JozaStats stats = joza.stats();
  EXPECT_EQ(stats.degraded_checks, 2u);
  EXPECT_EQ(stats.degraded_blocks, 0u);
}

TEST(DegradedMode, NtiOnlyWithoutNtiStillFailsClosed) {
  // With NTI disabled there is no analyzer left: kNtiOnly must not turn
  // into fail-open.
  core::Joza joza(OneFragment(),
                  DegradedConfig(core::DegradedMode::kNtiOnly, false));
  joza.SetPtiBackend([](std::string_view, const std::vector<sql::Token>&,
                        util::Deadline) -> StatusOr<pti::PtiResult> {
    return Status::Unavailable("injected outage");
  });
  core::Verdict v = joza.Check("SELECT 1", {});
  EXPECT_TRUE(v.attack) << "no analyzer at all must fail closed";
  EXPECT_TRUE(v.degraded);
}

TEST(DegradedMode, DeadlineMissDegradesInsteadOfPinning) {
  // End to end: engine -> pool -> hung daemon, bounded by the check's
  // deadline, lands in fail-closed degradation.
  auto& injector = resilience::FaultInjector::Global();
  injector.DisarmAll();
  injector.ResetCounters();
  injector.set_hang(5000ms);
  injector.Arm(resilience::FaultPoint::kDaemonHang, 1.0);

  ipc::DaemonPool::Options options;
  options.max_size = 1;
  options.per_call_timeout = 150ms;
  ipc::DaemonPool pool(OneFragment(), options);
  core::Joza joza(OneFragment(),
                  DegradedConfig(core::DegradedMode::kFailClosed, false));
  joza.SetPtiBackend(pool.AsPtiBackend());

  const auto start = std::chrono::steady_clock::now();
  const core::Verdict v =
      joza.Check("SELECT 1", {}, util::Deadline::After(500ms));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(v.attack);
  EXPECT_TRUE(v.degraded);
  EXPECT_LT(elapsed, 3s) << "worker must not hang on a stalled daemon";

  injector.DisarmAll();
  injector.set_hang(30000ms);
}

// ---------------------------------------------------------------------------
// Gateway hostile-client guards
// ---------------------------------------------------------------------------

int ConnectSocket(int fd, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  return ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
}

int ConnectTo(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (ConnectSocket(fd, port) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::string RecvUntilClose(int fd, std::chrono::milliseconds cap) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(cap.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((cap.count() % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  std::string out;
  char chunk[4096];
  for (;;) {
    ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    out.append(chunk, static_cast<std::size_t>(n));
  }
  return out;
}

// A PTI backend that spends `delay` on any query naming id 4242 and finds
// every query benign (the traffic these tests send is).
core::PtiFn SlowOn4242(std::chrono::milliseconds delay) {
  return [delay](std::string_view query, const std::vector<sql::Token>&,
                 util::Deadline) -> StatusOr<pti::PtiResult> {
    if (query.find("4242") != std::string_view::npos) {
      std::this_thread::sleep_for(delay);
    }
    return pti::PtiResult{};
  };
}

class GatewayChaosTest : public ChaosTest {
 protected:
  gateway::GatewayConfig GuardedConfig() {
    gateway::GatewayConfig cfg;
    cfg.workers = 2;
    cfg.read_timeout = 150ms;
    cfg.max_request_bytes = 4096;
    cfg.request_deadline = 1000ms;
    cfg.keepalive_timeout = 2000ms;
    return cfg;
  }
};

TEST_F(GatewayChaosTest, SlowlorisGets408NotAPinnedWorker) {
  gateway::GatewayServer server([] { return attack::MakeTestbed(); }, nullptr,
                                GuardedConfig());
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  int slow = ConnectTo(port.value());
  ASSERT_GE(slow, 0);
  // First bytes arrive, then the client stalls forever mid-headers.
  ASSERT_GT(::send(slow, "GET / HTT", 9, 0), 0);
  const auto start = std::chrono::steady_clock::now();
  const std::string response = RecvUntilClose(slow, 2000ms);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ::close(slow);
  EXPECT_NE(response.find("408"), std::string::npos)
      << "slowloris must be answered, got: " << response;
  EXPECT_LT(elapsed, 1500ms) << "guard must fire at read_timeout, not idle";

  // The worker the slow client occupied is free again.
  gateway::KeepAliveClient client(port.value());
  auto ok = client.Get("/post?id=7");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->status, 200);
  EXPECT_GE(server.stats().request_timeouts, 1u);
  server.Stop();
}

TEST_F(GatewayChaosTest, OversizedRequestGets413) {
  gateway::GatewayServer server([] { return attack::MakeTestbed(); }, nullptr,
                                GuardedConfig());
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  int fd = ConnectTo(port.value());
  ASSERT_GE(fd, 0);
  std::string huge = "GET /?pad=" + std::string(8192, 'a') + " HTTP/1.1\r\n";
  ASSERT_GT(::send(fd, huge.data(), huge.size(), 0), 0);
  const std::string response = RecvUntilClose(fd, 2000ms);
  ::close(fd);
  EXPECT_NE(response.find("413"), std::string::npos)
      << "oversized request must be answered, got: " << response;
  EXPECT_GE(server.stats().oversized_requests, 1u);
  server.Stop();
}

TEST_F(GatewayChaosTest, OversizedDeclaredBodyGets413) {
  gateway::GatewayServer server([] { return attack::MakeTestbed(); }, nullptr,
                                GuardedConfig());
  auto port = server.Start();
  ASSERT_TRUE(port.ok());
  int fd = ConnectTo(port.value());
  ASSERT_GE(fd, 0);
  const std::string req =
      "POST /comment HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n";
  ASSERT_GT(::send(fd, req.data(), req.size(), 0), 0);
  const std::string response = RecvUntilClose(fd, 2000ms);
  ::close(fd);
  EXPECT_NE(response.find("413"), std::string::npos);
  server.Stop();
}

TEST_F(GatewayChaosTest, AcceptFailDropsConnectionButServerSurvives) {
  auto& injector = resilience::FaultInjector::Global();
  gateway::GatewayServer server([] { return attack::MakeTestbed(); }, nullptr,
                                GuardedConfig());
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  injector.Arm(resilience::FaultPoint::kAcceptFail, 1.0);
  {
    gateway::KeepAliveClient doomed(port.value());
    auto r = doomed.Get("/post?id=7");
    EXPECT_FALSE(r.ok()) << "dropped connection cannot yield a response";
  }
  injector.DisarmAll();
  gateway::KeepAliveClient client(port.value());
  auto ok = client.Get("/post?id=7");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->status, 200);
  server.Stop();
}

TEST_F(GatewayChaosTest, DegradedGatewayNeverFailsOpen) {
  // Full stack under a total PTI outage: protected gateway + pool whose
  // daemons all hang. Every data request must come back virtualized
  // ("Database error"), never with leaked rows, within the deadline.
  auto& injector = resilience::FaultInjector::Global();
  injector.set_hang(5000ms);

  auto proto = attack::MakeTestbed();
  core::JozaConfig cfg;
  // Caches off so every request exercises the (hung) PTI path.
  cfg.query_cache = false;
  cfg.structure_cache = false;
  cfg.degraded_mode = core::DegradedMode::kFailClosed;
  cfg.breaker.failure_threshold = 3;
  cfg.breaker.cooldown = 200ms;
  core::Joza joza = core::Joza::Install(*proto, cfg);

  // Arm BEFORE the pool forks anything: daemons inherit the injector state
  // at fork time, so a pre-outage daemon would answer healthily forever.
  injector.Arm(resilience::FaultPoint::kDaemonHang, 1.0);

  ipc::DaemonPool::Options poptions;
  poptions.max_size = 2;
  poptions.per_call_timeout = 150ms;
  ipc::DaemonPool pool(php::FragmentSet::FromSources(proto->sources()),
                       poptions);
  joza.SetPtiBackend(pool.AsPtiBackend());

  gateway::GatewayConfig gcfg = GuardedConfig();
  gateway::GatewayServer server([] { return attack::MakeTestbed(); }, &joza,
                                gcfg);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  gateway::KeepAliveClient client(port.value());
  for (int i = 0; i < 6; ++i) {
    // Distinct ids dodge the query cache so every request needs PTI.
    const auto start = std::chrono::steady_clock::now();
    auto r = client.Get("/post?id=" + std::to_string(100 + i));
    const auto elapsed = std::chrono::steady_clock::now() - start;
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_LT(elapsed, 3s) << "request " << i << " blew the deadline budget";
    EXPECT_EQ(r->status, 200);
    EXPECT_NE(r->body.find("Database error"), std::string::npos)
        << "degraded response must be virtualized, got: " << r->body;
    EXPECT_EQ(r->body.find("<li>"), std::string::npos)
        << "FAIL OPEN: rows leaked during the outage";
  }
  EXPECT_GT(joza.stats().degraded_blocks, 0u);

  injector.DisarmAll();
  server.Stop();
  pool.Shutdown();
}

TEST_F(GatewayChaosTest, SlowAnalysisStallsOnlyItsOwnRequest) {
  // One request whose query needs a 500 ms PTI call, and cached requests
  // on another connection of the same shard: the cached ones must not wait
  // behind the slow one.
  auto proto = attack::MakeTestbed();
  core::JozaConfig cfg;
  cfg.structure_cache = false;  // the slow text cannot ride a cached shape
  core::Joza joza = core::Joza::Install(*proto, cfg);
  joza.SetPtiBackend(SlowOn4242(500ms));

  gateway::GatewayConfig gcfg;
  gcfg.workers = 2;
  gcfg.event_shards = 1;
  gateway::GatewayServer server([] { return attack::MakeTestbed(); }, &joza,
                                gcfg);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  // Warm the query cache through the connection that will probe.
  gateway::KeepAliveClient probe(port.value());
  for (int i = 1; i <= 16; ++i) {
    auto r = probe.Get("/post?id=" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->status, 200);
  }

  std::thread slow([&] {
    gateway::KeepAliveClient client(port.value());
    auto r = client.Get("/post?id=4242");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });
  std::this_thread::sleep_for(50ms);
  for (int i = 1; i <= 16; ++i) {
    const auto start = std::chrono::steady_clock::now();
    auto r = probe.Get("/post?id=" + std::to_string(i));
    const auto elapsed = std::chrono::steady_clock::now() - start;
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, 200);
    EXPECT_LT(elapsed, 100ms)
        << "cached request " << i << " waited behind the slow analysis";
  }
  slow.join();
  EXPECT_GE(joza.stats().query_cache_hits, 16u);
  server.Stop();
}

TEST_F(GatewayChaosTest, OneDeadlineLongRequestDoesNotShedTheNext) {
  // One request whose analysis outlasts request_deadline must not make the
  // gateway shed the fast requests after it: the shed reads each request's
  // own queue wait, never what an earlier request cost.
  auto proto = attack::MakeTestbed();
  core::Joza joza = core::Joza::Install(*proto, core::JozaConfig{});
  joza.SetPtiBackend(SlowOn4242(300ms));

  gateway::GatewayConfig gcfg;
  gcfg.workers = 1;
  gcfg.request_deadline = 250ms;
  gateway::GatewayServer server([] { return attack::MakeTestbed(); }, &joza,
                                gcfg);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  gateway::KeepAliveClient client(port.value());
  for (const int id : {4242, 1, 2, 3, 4, 5}) {
    auto r = client.Get("/post?id=" + std::to_string(id));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, 200) << "/post?id=" << id << " got: " << r->body;
  }
  EXPECT_EQ(client.reconnects(), 0u) << "every request shares one connection";
  EXPECT_EQ(server.stats().shed_by_deadline, 0u);
  server.Stop();
}

TEST_F(GatewayChaosTest, RequestThatWaitedOutItsDeadlineIsShed) {
  // The one handler is busy for 300 ms; a request queued behind it waits
  // past the 100 ms deadline and is shed. The next request finds the
  // handler free and is served.
  auto proto = attack::MakeTestbed();
  core::Joza joza = core::Joza::Install(*proto, core::JozaConfig{});
  joza.SetPtiBackend(SlowOn4242(300ms));

  gateway::GatewayConfig gcfg;
  gcfg.workers = 1;  // and one shard
  gcfg.request_deadline = 100ms;
  gateway::GatewayServer server([] { return attack::MakeTestbed(); }, &joza,
                                gcfg);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  std::thread slow([&] {
    gateway::KeepAliveClient client(port.value());
    auto r = client.Get("/post?id=4242");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, 200);
  });
  // The second request goes out once the first has reached the handler.
  for (int i = 0; i < 1000 && server.shard_stats()[0].requests == 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  gateway::KeepAliveClient queued(port.value());
  auto shed = queued.Get("/post?id=1");
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed->status, 503);
  EXPECT_EQ(shed->body, "shed: deadline");
  slow.join();

  gateway::KeepAliveClient next(port.value());
  auto served = next.Get("/post?id=2");
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->status, 200);
  EXPECT_EQ(server.stats().shed_by_deadline, 1u);
  server.Stop();
}

// Lowers the soft RLIMIT_NOFILE for its lifetime. The fd table is
// process-wide, so the old limit comes back on every exit path.
class ScopedFdLimit {
 public:
  explicit ScopedFdLimit(rlim_t soft) {
    if (::getrlimit(RLIMIT_NOFILE, &saved_) != 0) return;
    rlimit tight = saved_;
    tight.rlim_cur = soft;
    ok_ = ::setrlimit(RLIMIT_NOFILE, &tight) == 0;
  }
  ~ScopedFdLimit() {
    if (ok_) ::setrlimit(RLIMIT_NOFILE, &saved_);
  }
  ScopedFdLimit(const ScopedFdLimit&) = delete;
  ScopedFdLimit& operator=(const ScopedFdLimit&) = delete;

  bool ok() const { return ok_; }

 private:
  rlimit saved_{};
  bool ok_ = false;
};

TEST_F(GatewayChaosTest, FullFdTableStillClosesIdleConnections) {
  // With the fd table full and no usable reserve descriptor, every accept
  // of a pending connect fails. The shard must still run its timers: an
  // idle keep-alive connection accepted before the table filled is closed
  // at keepalive_timeout, which is how a full table drains.
  //
  // Everything the server opens lands at or above the lowest free
  // descriptor, so a soft limit of that number fills the table for every
  // later allocation, and releasing the shard's reserve frees no slot
  // under the limit.
  const int lowest_free = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);

  gateway::GatewayConfig cfg;
  cfg.workers = 1;
  cfg.event_shards = 1;
  cfg.keepalive_timeout = 300ms;
  gateway::GatewayServer server([] { return attack::MakeTestbed(); }, nullptr,
                                cfg);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  // One served request makes sure the shard has accepted the connection
  // and armed its idle timer before the table fills.
  int idle = ConnectTo(port.value());
  ASSERT_GE(idle, 0);
  const std::string request =
      "GET /post?id=7 HTTP/1.1\r\nHost: localhost\r\n\r\n";
  ASSERT_TRUE(gateway::SendAll(idle, request).ok());
  char first[64];
  ASSERT_GT(::recv(idle, first, sizeof first, 0), 0);
  // Connecting needs no new descriptor on this side, only the socket.
  int pending = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(pending, 0);

  std::chrono::steady_clock::duration took{};
  {
    ScopedFdLimit full(static_cast<rlim_t>(lowest_free));
    ASSERT_TRUE(full.ok());
    ASSERT_EQ(ConnectSocket(pending, port.value()), 0);
    const auto start = std::chrono::steady_clock::now();
    RecvUntilClose(idle, 3000ms);  // the rest of the response, then EOF
    took = std::chrono::steady_clock::now() - start;
  }
  EXPECT_LT(took, 2s) << "the shard never ran its idle timer";
  EXPECT_EQ(server.stats().accept_overflows, 0u)
      << "no connection was accepted and closed";
  ::close(pending);
  ::close(idle);
  server.Stop();
}

}  // namespace
}  // namespace joza
