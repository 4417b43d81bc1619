// Concurrent protection gateway: the serving tier in front of the engine.
//
// The paper deploys Joza inside a production Apache/PHP stack; this layer
// is the reproduction's equivalent of that deployment tier. One design:
//
//   * Event-loop shards do the I/O. Each owns an SO_REUSEPORT accept
//     socket, a connection table, non-blocking read/write state machines
//     with partial-read/partial-write resumption, and a timer wheel for
//     keep-alive idle, slowloris first-byte and write-stall deadlines. An
//     idle connection costs a table entry and a timer, not a thread.
//   * A pool of `workers` handler threads does the work. Every framed
//     request is handed to it; each handler owns a private
//     webapp::Application, runs the deadline shed, tenant routing and the
//     app — through a gate bound to the request's engine scope — and
//     renders the response, which its shard then writes. A slow analysis
//     therefore delays only its own request, never a shard.
//
// All handlers share ONE core::Joza engine — its sharded caches and
// relaxed atomic counters make Check() safe and cheap under concurrency,
// and shared caches are the point: traffic on any handler warms PTI
// verdicts for all of them.
// Stop() drains gracefully: stop accepting, finish admitted requests,
// sever idle keep-alives, join everything.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/joza.h"
#include "util/counters.h"
#include "util/status.h"
#include "webapp/application.h"

namespace joza::tenant {
class Fleet;
}  // namespace joza::tenant

namespace joza::gateway {

struct GatewayConfig {
  int port = 0;               // 0 picks a free port
  std::size_t workers = 4;    // handler threads (and default shard count)
  int listen_backlog = 64;    // kernel accept backlog
  // Framed requests a shard may hold waiting for a free handler; overflow
  // is answered 503 and the connection closed (bounded memory under
  // overload).
  std::size_t queue_capacity = 128;
  // Keep-alive bounds: max requests per connection, and how long an idle
  // connection may wait for its next request before it is closed.
  std::size_t max_requests_per_connection = 1024;
  std::chrono::milliseconds keepalive_timeout{5000};
  // Slowloris guard: once the first byte of a request has arrived, the
  // whole request (headers + body) must arrive within this long or the
  // shard answers 408 and closes. 0 disables the bound.
  std::chrono::milliseconds read_timeout{2000};
  // Total request size cap (headers + body); beyond it the shard answers
  // 413 and closes instead of buffering without bound.
  std::size_t max_request_bytes = 1u << 20;
  // Per-request processing budget, handed to the Joza engine with the
  // request's scope (bounds the PTI daemon round trip; a miss degrades
  // the verdict fail-closed instead of pinning the handler). A request
  // that already waited this long for a handler is answered 503 at once:
  // its client has given up. 0 disables both.
  std::chrono::milliseconds request_deadline{2000};

  // Event-loop shards. 0 means `workers`.
  std::size_t event_shards = 0;

  // Multi-tenant routing policy (fleet-backed servers only): what to do
  // with a request whose tenant id — from the X-Joza-Tenant header or a
  // /t/<tenant>/ URL prefix — is missing from the fleet, malformed, or
  // oversized. Falling back to the default tenant preserves single-tenant
  // back-compat; kNotFound answers 404 so misrouted traffic is loud.
  enum class UnknownTenant { kDefaultTenant, kNotFound };
  UnknownTenant unknown_tenant = UnknownTenant::kDefaultTenant;
};

// Per-event-loop-shard counters.
struct ShardStats {
  std::uint64_t connections = 0;  // connections this shard accepted
  std::uint64_t requests = 0;     // requests it handed to the handlers

  CounterList Counters() const;
};

inline constexpr CounterField<ShardStats> kShardCounters[] = {
    {"connections", &ShardStats::connections},
    {"requests", &ShardStats::requests},
};
static_assert(sizeof(ShardStats) ==
              std::size(kShardCounters) * sizeof(std::uint64_t));

struct GatewayStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_rejected = 0;  // bounded-queue overflow (503)
  std::uint64_t requests_served = 0;
  std::uint64_t keepalive_reuses = 0;      // requests beyond a conn's first
  std::uint64_t bad_requests = 0;
  std::uint64_t request_timeouts = 0;      // slowloris guard fired (408)
  std::uint64_t oversized_requests = 0;    // size cap fired (413)
  std::uint64_t shed_by_deadline = 0;      // waited out its deadline (503)
  std::uint64_t accept_overflows = 0;      // EMFILE/ENFILE accepts shed
  std::uint64_t shed_p99_us = 0;           // p99 of shed-path handling time
  // Tenant routing (fleet-backed servers; 0 otherwise): requests resolved
  // to a fleet tenant, unknown-tenant refusals (404), and fail-closed
  // refusals because the tenant's engine could not be pinned (503 — the
  // memory budget could not admit it).
  std::uint64_t tenant_routed = 0;
  std::uint64_t tenant_404s = 0;
  std::uint64_t tenant_unavailable = 0;

  // Name/value export in kGatewayCounters order (serving-layer counters
  // only; engine counters come from JozaStats::Counters()).
  CounterList Counters() const;
};

inline constexpr CounterField<GatewayStats> kGatewayCounters[] = {
    {"connections_accepted", &GatewayStats::connections_accepted},
    {"connections_rejected", &GatewayStats::connections_rejected},
    {"requests_served", &GatewayStats::requests_served},
    {"keepalive_reuses", &GatewayStats::keepalive_reuses},
    {"bad_requests", &GatewayStats::bad_requests},
    {"request_timeouts", &GatewayStats::request_timeouts},
    {"oversized_requests", &GatewayStats::oversized_requests},
    {"shed_by_deadline", &GatewayStats::shed_by_deadline},
    {"accept_overflows", &GatewayStats::accept_overflows},
    {"shed_p99_us", &GatewayStats::shed_p99_us},
    {"tenant_routed", &GatewayStats::tenant_routed},
    {"tenant_404s", &GatewayStats::tenant_404s},
    {"tenant_unavailable", &GatewayStats::tenant_unavailable},
};
static_assert(sizeof(GatewayStats) ==
                  std::size(kGatewayCounters) * sizeof(std::uint64_t),
              "every GatewayStats field needs a row in kGatewayCounters");

// Builds one handler's private Application. Called once per handler thread
// at startup; every instance must expose the same routes/sources.
using AppFactory = std::function<std::unique_ptr<webapp::Application>()>;

namespace internal {
struct GatewayShared;
class EpollServer;
}  // namespace internal

class GatewayServer {
 public:
  // `joza` may be null (serve unprotected, for baselines); when set, every
  // request is served through a gate bound to that request's scope
  // (joza->BeginRequest) and the engine must outlive the server. The
  // factory must be callable from handler threads.
  GatewayServer(AppFactory factory, core::Joza* joza,
                GatewayConfig config = {});

  // Multi-tenant form: requests are routed to per-tenant engines owned by
  // `fleet` (never null; must outlive the server). Handlers extract the
  // tenant from the X-Joza-Tenant header or a /t/<tenant>/ URL prefix,
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

  // Binds 127.0.0.1, spawns the shards and the handler pool. Returns the
  // bound port.
  StatusOr<int> Start();

  // Graceful drain; idempotent. Admitted requests are served with
  // Connection: close, idle keep-alive connections are severed.
  void Stop();

  int port() const { return port_; }
  GatewayStats stats() const;

  // Event-loop shard counters (empty before Start()). Readable after
  // Stop(); shard identity is the vector index.
  std::size_t shard_count() const;
  std::vector<ShardStats> shard_stats() const;

 private:
  std::unique_ptr<internal::GatewayShared> shared_;
  std::unique_ptr<internal::EpollServer> server_;
  int port_ = 0;
  std::atomic<bool> running_{false};
};

}  // namespace joza::gateway
