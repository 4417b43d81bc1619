// Concurrent protection gateway: the serving tier in front of the engine.
//
// The paper deploys Joza inside a production Apache/PHP stack; this layer
// is the reproduction's equivalent of that deployment tier. Two io models
// share one behavioral contract (same status codes, same hardening, same
// admission control, same stats):
//
//   * kThreads — the original blocking-socket thread pool: one accept
//     thread feeds a bounded queue, N workers each own a private
//     webapp::Application and serve one connection at a time. Concurrency
//     is capped at thread count and idle keep-alives pin threads.
//   * kEpoll (default) — an edge-triggered epoll readiness loop: a small
//     set of event-loop shards, each owning its own SO_REUSEPORT accept
//     socket, connection table, non-blocking read/write state machines
//     with partial-read/partial-write resumption, and a timer wheel for
//     keep-alive idle, slowloris first-byte, and write-stall deadlines —
//     idle connections cost memory, not threads. Each shard drains up to
//     batch_max ready requests per tick and serves them one by one.
//
// In both models all workers/shards share ONE core::Joza engine — its
// sharded caches and atomic stats make Check() safe and cheap under
// concurrency, and shared caches are the point: traffic on any shard warms
// PTI verdicts for all of them. Stop() drains gracefully: stop accepting,
// finish admitted requests, sever idle keep-alives, join everything.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/joza.h"
#include "resilience/admission.h"
#include "util/status.h"
#include "webapp/application.h"

namespace joza::tenant {
class Fleet;
}  // namespace joza::tenant

namespace joza::gateway {

struct GatewayConfig {
  int port = 0;               // 0 picks a free port
  std::size_t workers = 4;    // serving threads (epoll: default shard count)
  int listen_backlog = 64;    // kernel accept backlog
  // Connections queued between accept and a free worker (threads) or ready
  // requests buffered per shard (epoll); overflow is answered 503 and the
  // connection closed (bounded memory under overload).
  std::size_t queue_capacity = 128;
  // Keep-alive bounds: max pipelined requests per connection, and how long
  // a worker waits for the next request before closing an idle connection.
  std::size_t max_requests_per_connection = 1024;
  std::chrono::milliseconds keepalive_timeout{5000};
  // Slowloris guard: once the first byte of a request has arrived, the
  // whole request (headers + body) must arrive within this long or the
  // worker answers 408 and closes. 0 disables the bound.
  std::chrono::milliseconds read_timeout{2000};
  // Total request size cap (headers + body); beyond it the worker answers
  // 413 and closes instead of buffering without bound.
  std::size_t max_request_bytes = 1u << 20;
  // Per-request processing budget threaded to the Joza engine as the
  // ambient deadline (bounds the PTI daemon round trip; a miss degrades
  // the verdict fail-closed instead of pinning the worker). 0 disables.
  std::chrono::milliseconds request_deadline{2000};
  // Adaptive admission: AIMD bound on concurrent request handling. Beyond
  // the limit workers answer 429 immediately instead of piling onto a
  // saturated backend; deadline overruns shrink the limit.
  resilience::AimdOptions admission;
  // Deadline-aware shedding: a request picked up after its wait plus the
  // EWMA service estimate already exceed request_deadline is answered 503
  // immediately — a fast refusal beats burning a worker on work whose
  // client has timed out. Needs request_deadline > 0.
  bool shed_by_deadline = true;

  // Serving io model. kDefault resolves via the JOZA_GATEWAY_IO_MODEL
  // environment variable ("threads" or "epoll"), falling back to epoll —
  // so the whole test suite exercises the event loop by default and CI
  // re-runs it against the thread pool by exporting the variable.
  enum class IoModel { kDefault, kThreads, kEpoll };
  IoModel io_model = IoModel::kDefault;
  // Event-loop shards (epoll only). 0 means `workers`, so configs written
  // for the thread pool keep their concurrency shape on the event loop.
  std::size_t event_shards = 0;
  // Drain bound (epoll only): a shard serves up to batch_max ready
  // requests per tick before it polls its sockets and timers again.
  std::size_t batch_max = 16;

  // Multi-tenant routing policy (fleet-backed servers only): what to do
  // with a request whose tenant id — from the X-Joza-Tenant header or a
  // /t/<tenant>/ URL prefix — is missing from the fleet, malformed, or
  // oversized. Falling back to the default tenant preserves single-tenant
  // back-compat; kNotFound answers 404 so misrouted traffic is loud.
  enum class UnknownTenant { kDefaultTenant, kNotFound };
  UnknownTenant unknown_tenant = UnknownTenant::kDefaultTenant;
};

// Per-event-loop-shard counters (epoll model; empty under threads).
struct ShardStats {
  std::size_t connections = 0;  // connections this shard accepted
  std::size_t batches = 0;      // ready-queue drains
  std::size_t requests = 0;     // requests served by those drains
  // Drain-size distribution: 1, 2, 3-4, 5-8, 9-16, 17+.
  std::size_t batch_histogram[6] = {0, 0, 0, 0, 0, 0};
};

struct GatewayStats {
  std::size_t connections_accepted = 0;
  std::size_t connections_rejected = 0;  // bounded-queue overflow (503)
  std::size_t requests_served = 0;
  std::size_t keepalive_reuses = 0;      // requests beyond a conn's first
  std::size_t bad_requests = 0;
  std::size_t request_timeouts = 0;      // slowloris guard fired (408)
  std::size_t oversized_requests = 0;    // size cap fired (413)
  std::size_t shed_by_deadline = 0;      // dequeued too late to matter (503)
  std::size_t throttled_by_limiter = 0;  // AIMD concurrency refusals (429)
  std::size_t accept_overflows = 0;      // EMFILE/ENFILE accepts shed
  // Ready-queue drains (epoll model): drains, requests served by them, and
  // the largest drain seen.
  std::size_t batches = 0;
  std::size_t batched_requests = 0;
  std::size_t max_batch = 0;
  std::uint64_t admission_limit = 0;     // current AIMD concurrency limit
  std::uint64_t service_estimate_us = 0; // EWMA request service time
  std::uint64_t shed_p99_us = 0;         // p99 of shed-path handling time
  // Daemon-fleet resilience counters, filled by the installed provider
  // (the CLI wires the pool's supervisor/hedge stats through here).
  std::size_t restarts = 0;              // supervisor-admitted respawns
  std::size_t quarantines = 0;           // shard quarantine transitions
  std::size_t hedges_won = 0;            // races the hedged attempt won
  std::size_t retries_denied = 0;        // retry-budget refusals
  // Tenant routing (fleet-backed servers; 0 otherwise): requests resolved
  // to a fleet tenant, unknown-tenant refusals (404), and fail-closed
  // refusals because the tenant's engine could not be pinned (503 — cold
  // store unreadable or the memory budget could not admit it).
  std::size_t tenant_routed = 0;
  std::size_t tenant_404s = 0;
  std::size_t tenant_unavailable = 0;
  // From the shared Joza engine (0 when serving unprotected): the ruleset
  // snapshot version currently published and how many times it was swapped.
  std::uint64_t ruleset_version = 0;
  std::size_t ruleset_swaps = 0;
  // NTI matcher pipeline counters mirrored from the engine (0 when serving
  // unprotected): exact-stage hits, q-gram survivors that reached
  // the kernel, full DP verifications, and the per-input tier histogram.
  std::uint64_t nti_exact_hits = 0;
  std::uint64_t nti_seed_candidates = 0;
  std::uint64_t nti_dp_runs = 0;
  std::uint64_t nti_tier_reference = 0;
  std::uint64_t nti_tier_bounded = 0;
  std::uint64_t nti_tier_staged = 0;

  // Flattened name/value export (serving-layer counters only; engine
  // counters come from JozaStats::Counters()), consumed by the benchmark
  // subsystem's JSON emitter.
  std::vector<std::pair<const char*, std::uint64_t>> Counters() const;
};

// Builds one worker's private Application. Called once per worker thread at
// startup; every instance must expose the same routes/sources.
using AppFactory = std::function<std::unique_ptr<webapp::Application>()>;

namespace internal {
struct GatewayShared;
class ServerImpl;
}  // namespace internal

class GatewayServer {
 public:
  // `joza` may be null (serve unprotected, for baselines); when set, every
  // worker installs joza->MakeGate() on its Application and the engine must
  // outlive the server. The factory must be callable from worker threads.
  GatewayServer(AppFactory factory, core::Joza* joza,
                GatewayConfig config = {});

  // Multi-tenant form: requests are routed to per-tenant engines owned by
  // `fleet` (never null; must outlive the server). Both io models extract
  // the tenant from the X-Joza-Tenant header or a /t/<tenant>/ URL prefix,
  // defaulting to tenant::kDefaultTenant, and pin the tenant's engine for
  // the request (promoting it from the cold tier as needed). A pin failure
  // is answered 503, never served unprotected.
  GatewayServer(AppFactory factory, tenant::Fleet* fleet,
                GatewayConfig config = {});

  // Literal-nullptr disambiguation between the two pointer overloads
  // above: a bare nullptr means "unprotected" (the Joza* form).
  GatewayServer(AppFactory factory, std::nullptr_t,
                GatewayConfig config = {})
      : GatewayServer(std::move(factory), static_cast<core::Joza*>(nullptr),
                      std::move(config)) {}
  ~GatewayServer();

  GatewayServer(const GatewayServer&) = delete;
  GatewayServer& operator=(const GatewayServer&) = delete;

  // Binds 127.0.0.1, spawns the serving backend (io_model resolution
  // happens here). Returns the bound port.
  StatusOr<int> Start();

  // Graceful drain; idempotent. In-flight requests complete, admitted
  // requests get served, idle keep-alive connections are severed.
  void Stop();

  int port() const { return port_; }
  std::size_t worker_count() const;
  GatewayStats stats() const;

  // Event-loop shard counters (empty vector under the thread model).
  // Readable after Stop(); shard identity is the vector index.
  std::size_t shard_count() const;
  std::vector<ShardStats> shard_stats() const;

  // Installs a hook that augments stats() with daemon-fleet resilience
  // counters (restarts, quarantines, hedges, retry denials). Call before
  // Start(); the hook runs on whatever thread calls stats().
  void SetResilienceProvider(std::function<void(GatewayStats&)> provider) {
    resilience_provider_ = std::move(provider);
  }

 private:
  std::unique_ptr<internal::GatewayShared> shared_;
  std::unique_ptr<internal::ServerImpl> impl_;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::function<void(GatewayStats&)> resilience_provider_;
};

}  // namespace joza::gateway
