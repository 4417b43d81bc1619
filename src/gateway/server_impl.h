// Internal seam between the GatewayServer facade and its two serving
// backends (blocking thread pool, edge-triggered epoll event loop).
//
// Everything behaviorally observable lives in GatewayShared — config,
// admission control, EWMA/shed tracking, and every stats counter — so both
// backends update the same state and the facade's stats() reads one place
// regardless of io model. Backends own only their I/O machinery (threads,
// epoll fds, connection tables).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gateway/gateway.h"
#include "resilience/admission.h"
#include "resilience/hedge.h"
#include "tenant/fleet.h"

namespace joza::gateway::internal {

struct GatewayShared {
  GatewayShared(AppFactory f, core::Joza* j, const GatewayConfig& c)
      : factory(std::move(f)),
        joza(j),
        config(c),
        aimd(c.admission) {}

  AppFactory factory;
  core::Joza* joza = nullptr;
  // Multi-tenant routing: when set, joza stays null and every request pins
  // a per-tenant engine through the fleet instead (exactly one of the two
  // is non-null on a protected server).
  tenant::Fleet* fleet = nullptr;
  GatewayConfig config;

  resilience::AimdLimiter aimd;
  resilience::ServiceTimeEwma service_ewma;
  resilience::LatencyTracker shed_latency;  // shed-path handling times
  std::atomic<bool> stopping{false};

  std::atomic<std::size_t> connections_accepted{0};
  std::atomic<std::size_t> connections_rejected{0};
  std::atomic<std::size_t> requests_served{0};
  std::atomic<std::size_t> keepalive_reuses{0};
  std::atomic<std::size_t> bad_requests{0};
  std::atomic<std::size_t> request_timeouts{0};
  std::atomic<std::size_t> oversized_requests{0};
  std::atomic<std::size_t> shed_by_deadline{0};
  std::atomic<std::size_t> throttled_by_limiter{0};
  // Event-loop additions: EMFILE/ENFILE accepts shed via the reserve-fd
  // parachute, and ready-queue drain accounting (see epoll_server.cpp).
  std::atomic<std::size_t> accept_overflows{0};
  std::atomic<std::size_t> batches{0};
  std::atomic<std::size_t> batched_requests{0};
  std::atomic<std::size_t> max_batch{0};
  // Tenant routing roll-ups (fleet-backed servers only).
  std::atomic<std::size_t> tenant_routed{0};
  std::atomic<std::size_t> tenant_404s{0};
  std::atomic<std::size_t> tenant_unavailable{0};
};

// Outcome of tenant extraction for one parsed request.
struct TenantRoute {
  std::string id;          // resolved tenant (valid unless not_found)
  bool not_found = false;  // answer 404 (UnknownTenant::kNotFound policy)
};

// Extracts the request's tenant on behalf of both io models: a
// /t/<tenant>/ URL prefix takes precedence (and is stripped from
// request.path so tenant apps see tenant-relative paths), then the
// X-Joza-Tenant header, then the default tenant. A missing, malformed,
// oversized, or unregistered id resolves per config.unknown_tenant.
// Counts tenant_routed / tenant_404s; no-op default route when no fleet.
TenantRoute ResolveTenant(GatewayShared& shared, http::Request& request);

// One serving backend. Start binds and spawns; Stop drains gracefully and
// joins. The facade keeps the impl alive after Stop so per-shard counters
// remain readable.
class ServerImpl {
 public:
  virtual ~ServerImpl() = default;
  virtual StatusOr<int> Start() = 0;
  virtual void Stop() = 0;
  virtual std::size_t shard_count() const { return 0; }
  virtual std::vector<ShardStats> shard_stats() const { return {}; }
};

std::unique_ptr<ServerImpl> MakeThreadServer(GatewayShared& shared);
std::unique_ptr<ServerImpl> MakeEpollServer(GatewayShared& shared);

// HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close; an explicit
// Connection header overrides either way. Shared so both backends answer
// byte-identically.
bool WantsKeepAlive(std::string_view raw);
std::string RenderResponse(const http::Response& response, bool keep_alive);

}  // namespace joza::gateway::internal
