// Internals shared by the GatewayServer facade, the event-loop shards and
// the handler pool.
//
// Everything behaviorally observable lives in GatewayShared — config,
// shed-latency tracking, and every stats counter — so the facade's stats()
// reads one place. EpollServer owns the I/O machinery (shard threads, epoll
// fds, connection tables) and the handler threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gateway/gateway.h"
#include "resilience/latency_tracker.h"
#include "tenant/fleet.h"

namespace joza::gateway::internal {

struct GatewayShared {
  GatewayShared(AppFactory f, core::Joza* j, const GatewayConfig& c)
      : factory(std::move(f)), joza(j), config(c) {}

  AppFactory factory;
  core::Joza* joza = nullptr;
  // Multi-tenant routing: when set, joza stays null and every request pins
  // a per-tenant engine through the fleet instead (exactly one of the two
  // is non-null on a protected server).
  tenant::Fleet* fleet = nullptr;
  GatewayConfig config;

  resilience::LatencyTracker shed_latency;  // shed-path handling times
  std::atomic<bool> stopping{false};

  // Live counters, touched only through Bump and LoadCounters;
  // shed_p99_us stays 0 here (stats() reads it from shed_latency).
  GatewayStats stats;
};

// Outcome of tenant extraction for one parsed request.
struct TenantRoute {
  std::string id;          // resolved tenant (valid unless not_found)
  bool not_found = false;  // answer 404 (UnknownTenant::kNotFound policy)
};

// Extracts the request's tenant: a /t/<tenant>/ URL prefix takes
// precedence (and is stripped from request.path so tenant apps see
// tenant-relative paths), then the X-Joza-Tenant header, then the default
// tenant. A missing, malformed, oversized, or unregistered id resolves per
// config.unknown_tenant. Counts tenant_routed / tenant_404s; no-op default
// route when no fleet.
TenantRoute ResolveTenant(GatewayShared& shared, http::Request& request);

class Shard;
class HandlerPool;

// The serving machinery: event-loop shards plus the handler pool. Start
// binds and spawns; Stop (once, after a successful Start) drains
// gracefully and joins. The facade keeps it alive after Stop so per-shard
// counters remain readable.
class EpollServer {
 public:
  explicit EpollServer(GatewayShared& shared);
  ~EpollServer();

  StatusOr<int> Start();
  void Stop();

  std::size_t shard_count() const { return shards_.size(); }
  std::vector<ShardStats> shard_stats() const;

 private:
  GatewayShared& shared_;
  std::unique_ptr<HandlerPool> handlers_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

// HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close; an explicit
// Connection header overrides either way.
bool WantsKeepAlive(std::string_view raw);
std::string RenderResponse(const http::Response& response, bool keep_alive);

}  // namespace joza::gateway::internal
