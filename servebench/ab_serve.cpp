#include "ab_serve.h"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <thread>
#include <utility>

#include "attack/catalog.h"
#include "engine.h"
#include "gateway/client.h"
#include "gateway/gateway.h"
#include "util/hash.h"

namespace servebench {

namespace {

using Clock = std::chrono::steady_clock;
using joza::gateway::GatewayServer;
using joza::gateway::KeepAliveClient;

enum Phase { kWarmup = 0, kMeasured = 1 };

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// Core placement. Both twins' event shards share one core, so a core slowed
// by a neighbouring tenant slows both twins alike and cancels out of the
// slowdown ratio (only one twin serves at a time). The PTI daemon gets a
// second core and the clients the rest. Threads and forked children inherit
// the mask of the thread that creates them, so the benchmark narrows its
// own mask around each spawn. With fewer than three cores nothing is
// pinned.
struct Placement {
  bool pinned = false;
  cpu_set_t shard{}, daemon{}, clients{};

  Placement() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
    if (cpus.size() < 3) return;
    CPU_ZERO(&shard);
    CPU_ZERO(&daemon);
    CPU_ZERO(&clients);
    CPU_SET(cpus[0], &shard);
    CPU_SET(cpus[1], &daemon);
    for (std::size_t i = 2; i < cpus.size(); ++i) CPU_SET(cpus[i], &clients);
    pinned = true;
  }
};

const Placement& CorePlacement() {
  static const Placement placement;
  return placement;
}

// Narrows the calling thread's mask for the scope (no-op when unpinned).
class ScopedAffinity {
 public:
  explicit ScopedAffinity(const cpu_set_t& mask) {
    CPU_ZERO(&saved_);
    active_ = CorePlacement().pinned &&
              sched_getaffinity(0, sizeof saved_, &saved_) == 0 &&
              sched_setaffinity(0, sizeof mask, &mask) == 0;
  }
  ~ScopedAffinity() {
    if (active_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  ScopedAffinity(const ScopedAffinity&) = delete;
  ScopedAffinity& operator=(const ScopedAffinity&) = delete;

 private:
  cpu_set_t saved_;
  bool active_ = false;
};

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Read-only route the factory adds to both twins for the matched-state
// guard. The database belongs to the shard thread, so its row count is read
// there and travels back over HTTP; it is requested only after the
// measured part, and costs every other request one path comparison.
constexpr const char* kCommentRowsPath = "/servebench/comment-rows";

joza::gateway::AppFactory TestbedFactory(std::shared_ptr<std::atomic<int>> built) {
  return [built] {
    auto app = joza::attack::MakeTestbed();
    const joza::webapp::Application* owner = app.get();
    app->AddRoute(
        kCommentRowsPath,
        [owner](const joza::http::Request&, const joza::webapp::QueryRunner&) {
          const joza::db::Table* table =
              owner->database().FindTable("wp_comments");
          return joza::http::Response{
              200, std::to_string(table == nullptr ? 0 : table->rows.size()),
              0.0};
        },
        joza::php::SourceFile{"servebench/comment_rows.php", "<?php ?>"});
    built->fetch_add(1);
    return app;
  };
}

struct Reply {
  bool ok = false;
  std::string raw;
};

struct BlockRun {
  double wall_s = 0.0;
  double client_cpu_s = 0.0;
  std::vector<Reply> replies;
  std::vector<double> latency_us;
};

struct Twin {
  std::shared_ptr<std::atomic<int>> apps_built =
      std::make_shared<std::atomic<int>>(0);
  std::unique_ptr<GatewayServer> server;
  std::vector<std::unique_ptr<KeepAliveClient>> clients;
  // Digest and count of every request sent, per phase: the guard that
  // both twins saw byte-identical traffic.
  std::uint64_t digest[2] = {joza::kFnvOffset, joza::kFnvOffset};
  std::size_t sent[2] = {0, 0};
};

// Closed loop: connection c sends requests c, c+C, c+2C, ... of the block,
// each only after the previous response arrived.
BlockRun ServeBlock(Twin& twin, const BenchRequest* requests, std::size_t n,
                    Phase phase) {
  BlockRun run;
  run.replies.resize(n);
  run.latency_us.resize(n);
  const std::size_t conns = twin.clients.size();
  std::vector<Clock::time_point> first(conns), last(conns);
  std::vector<double> cpu(conns, 0.0);
  std::vector<std::thread> threads;
  threads.reserve(conns);
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      ScopedAffinity on_client_cores(CorePlacement().clients);
      const double cpu0 = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
      KeepAliveClient& client = *twin.clients[c];
      first[c] = Clock::now();
      for (std::size_t i = c; i < n; i += conns) {
        const auto t0 = Clock::now();
        auto reply = client.RoundTrip(requests[i].raw);
        const auto t1 = Clock::now();
        run.latency_us[i] = Seconds(t1 - t0) * 1e6;
        if (reply.ok()) {
          run.replies[i].ok = true;
          run.replies[i].raw = std::move(reply).value();
        }
      }
      last[c] = Clock::now();
      cpu[c] = CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - cpu0;
    });
  }
  for (std::thread& t : threads) t.join();
  run.wall_s = Seconds(*std::max_element(last.begin(), last.end()) -
                       *std::min_element(first.begin(), first.end()));
  for (double c : cpu) run.client_cpu_s += c;
  for (std::size_t i = 0; i < n; ++i) {
    twin.digest[phase] = joza::Fnv1a64(requests[i].raw, twin.digest[phase]);
  }
  twin.sent[phase] += n;
  return run;
}

int StatusOf(const std::string& raw) {
  const std::size_t sp = raw.find(' ');
  return sp == std::string::npos ? 0 : std::atoi(raw.c_str() + sp + 1);
}

bool EmptyBody(const std::string& raw) {
  const std::size_t end = raw.find("\r\n\r\n");
  return end != std::string::npos && end + 4 == raw.size();
}

// The output oracle for one request served to both twins.
void Judge(const BenchRequest& request, const Reply& prot, const Reply& plain,
           FailureTally* tally) {
  ++tally->attempted;
  if (!prot.ok || !plain.ok) return tally->Add(Failure::kTransport);
  const int ps = StatusOf(prot.raw);
  const int qs = StatusOf(plain.raw);
  if (ps == 429 || qs == 429) return tally->Add(Failure::kRefused429);
  if (ps == 503 || qs == 503) return tally->Add(Failure::kRefused503);
  if (request.attack) {
    // Termination policy: the blank 500 page.
    if (ps != 500 || !EmptyBody(prot.raw)) {
      tally->Add(Failure::kAttackNotBlocked);
    }
    return;
  }
  if (prot.raw != plain.raw) tally->Add(Failure::kBenignMismatch);
}

void JudgeAll(const BenchRequest* requests, const BlockRun& prot,
              const BlockRun& plain, FailureTally* tally) {
  for (std::size_t i = 0; i < prot.replies.size(); ++i) {
    Judge(requests[i], prot.replies[i], plain.replies[i], tally);
  }
}

// Serves the warm-up in the same blocks as the measured part.
std::vector<BlockRun> ServeWarmup(Twin& twin, const Workload& w) {
  std::vector<BlockRun> runs;
  for (std::size_t at = 0; at < w.warmup.size(); at += w.sizes.block) {
    const std::size_t n = std::min(w.sizes.block, w.warmup.size() - at);
    runs.push_back(ServeBlock(twin, w.warmup.data() + at, n, kWarmup));
  }
  return runs;
}

bool StartTwin(Twin& twin, joza::core::Joza* joza, std::size_t connections,
               std::string* error) {
  joza::gateway::GatewayConfig config;
  config.workers = 1;  // one event shard: see README.md, "Why one shard"
  twin.server = std::make_unique<GatewayServer>(
      TestbedFactory(twin.apps_built), joza, config);
  ScopedAffinity on_shard_core(CorePlacement().shard);
  auto port = twin.server->Start();
  if (!port.ok()) {
    *error = "gateway did not start: " + port.status().ToString();
    return false;
  }
  for (std::size_t c = 0; c < connections; ++c) {
    twin.clients.push_back(std::make_unique<KeepAliveClient>(port.value()));
  }
  return true;
}

// wp_comments rows of the twin's database, or -1 when unreadable.
long long CommentRows(Twin& twin) {
  auto reply = twin.clients.front()->Get(kCommentRowsPath);
  if (!reply.ok() || reply.value().status != 200) return -1;
  return std::atoll(reply.value().body.c_str());
}

Counters GatewayDeltas(const Counters& before, const Counters& after) {
  Counters out;
  for (const char* name :
       {"requests_served", "batches", "batched_requests",
        "throttled_by_limiter", "shed_by_deadline", "connections_rejected"}) {
    out.emplace_back(name, CounterDelta(before, after, name));
  }
  return out;
}

}  // namespace

bool ServeRound(const Workload& w, const AbConfig& config, RoundResult* out,
                std::string* error) {
  *out = RoundResult{};
  const auto setup0 = Clock::now();
  ProtectedEngine engine;
  {
    ScopedAffinity on_daemon_core(CorePlacement().daemon);
    if (!BuildProtectedEngine(&engine, error)) return false;
  }
  out->setup_s = Seconds(Clock::now() - setup0);

  Twin plain, prot;
  if (!StartTwin(plain, nullptr, config.connections, error)) return false;
  const auto start0 = Clock::now();
  if (!StartTwin(prot, engine.joza.get(), config.connections, error)) {
    return false;
  }
  out->setup_s += Seconds(Clock::now() - start0);
  for (const Twin* twin : {&plain, &prot}) {
    out->shards = std::max(out->shards, twin->server->shard_count());
    if (twin->server->shard_count() != 1) {
      *error = "guard: a twin runs " +
               std::to_string(twin->server->shard_count()) +
               " event shards; the matched-state argument allows exactly 1";
      return false;
    }
  }

  // Identical warm-up for both twins; the protected one counts as set-up.
  const auto warm0 = Clock::now();
  const std::vector<BlockRun> prot_warm = ServeWarmup(prot, w);
  out->setup_s += Seconds(Clock::now() - warm0);
  const std::vector<BlockRun> plain_warm = ServeWarmup(plain, w);
  for (std::size_t b = 0; b < prot_warm.size(); ++b) {
    JudgeAll(w.warmup.data() + b * w.sizes.block, prot_warm[b], plain_warm[b],
             &out->failures);
  }

  const Counters prot_gw0 = prot.server->stats().Counters();
  const Counters plain_gw0 = plain.server->stats().Counters();
  const Counters engine0 = engine.joza->stats().Counters();
  const double process_cpu0 = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);

  std::vector<bool> protected_first;
  for (std::size_t at = 0, b = 0; at < w.measured.size();
       at += w.sizes.block, ++b) {
    const std::size_t n = std::min(w.sizes.block, w.measured.size() - at);
    const BenchRequest* block = w.measured.data() + at;
    const bool prot_first = (b + config.round_index) % 2 == 0;
    protected_first.push_back(prot_first);
    BlockRun p, q;
    if (prot_first) {
      p = ServeBlock(prot, block, n, kMeasured);
      q = ServeBlock(plain, block, n, kMeasured);
    } else {
      q = ServeBlock(plain, block, n, kMeasured);
      p = ServeBlock(prot, block, n, kMeasured);
    }
    JudgeAll(block, p, q, &out->failures);
    out->protected_wall_s += p.wall_s;
    out->plain_wall_s += q.wall_s;
    out->protected_requests += n;
    out->loadgen_cpu_s += p.client_cpu_s + q.client_cpu_s;
    out->protected_latency_us.insert(out->protected_latency_us.end(),
                                     p.latency_us.begin(), p.latency_us.end());
    out->plain_latency_us.insert(out->plain_latency_us.end(),
                                 q.latency_us.begin(), q.latency_us.end());
  }
  out->process_cpu_s = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - process_cpu0;

  out->protected_gateway =
      GatewayDeltas(prot_gw0, prot.server->stats().Counters());
  out->plain_gateway =
      GatewayDeltas(plain_gw0, plain.server->stats().Counters());
  const Counters engine1 = engine.joza->stats().Counters();
  for (const char* name :
       {"degraded_checks", "breaker_fast_rejects", "pti_failures",
        "nti_planner_exact_find", "nti_planner_exact_automaton",
        "nti_planner_exact_batch"}) {
    out->engine.emplace_back(name, CounterDelta(engine0, engine1, name));
  }
  const auto pool_stats = engine.pool->stats();
  out->pool_waits = pool_stats.waits;
  out->pool_failures = pool_stats.failures;

  const long long plain_rows = CommentRows(plain);
  const long long prot_rows = CommentRows(prot);
  out->comment_rows = prot_rows < 0 ? 0 : static_cast<std::uint64_t>(prot_rows);

  for (Twin* twin : {&plain, &prot}) {
    twin->clients.clear();
    twin->server->Stop();
  }

  // --- matched-state guards ----------------------------------------------
  if (plain.apps_built->load() != 1 || prot.apps_built->load() != 1) {
    *error = "guard: a twin built more than one application";
    return false;
  }
  if (plain.sent[kWarmup] != prot.sent[kWarmup] ||
      plain.digest[kWarmup] != prot.digest[kWarmup]) {
    *error = "guard: the twins were not given identical warm-ups";
    return false;
  }
  if (plain.sent[kMeasured] != w.measured.size() ||
      prot.sent[kMeasured] != w.measured.size() ||
      plain.digest[kMeasured] != prot.digest[kMeasured]) {
    *error = "guard: the measured part was not the same fixed count of "
             "identical requests on both twins";
    return false;
  }
  if (out->failures.total() == 0 &&
      (Counter(out->protected_gateway, "requests_served") !=
           w.measured.size() ||
       Counter(out->plain_gateway, "requests_served") != w.measured.size())) {
    *error = "guard: a gateway served a different request count than was "
             "sent";
    return false;
  }
  for (std::size_t b = 0; b < protected_first.size(); ++b) {
    const bool expected = (b + config.round_index) % 2 == 0;
    if (protected_first[b] != expected ||
        (b > 0 && protected_first[b] == protected_first[b - 1])) {
      *error = "guard: block order did not alternate";
      return false;
    }
  }
  if (plain_rows < 0 || plain_rows != prot_rows) {
    *error = "guard: wp_comments rows differ at round end (plain " +
             std::to_string(plain_rows) + ", protected " +
             std::to_string(prot_rows) + ")";
    return false;
  }
  return true;
}

}  // namespace servebench
