#include "gateway/gateway.h"

#include "gateway/server_impl.h"

namespace joza::gateway {

GatewayServer::GatewayServer(AppFactory factory, core::Joza* joza,
                             GatewayConfig config) {
  if (config.workers == 0) config.workers = 1;
  if (config.queue_capacity == 0) config.queue_capacity = 1;
  shared_ = std::make_unique<internal::GatewayShared>(std::move(factory),
                                                      joza, config);
}

GatewayServer::GatewayServer(AppFactory factory, tenant::Fleet* fleet,
                             GatewayConfig config)
    : GatewayServer(std::move(factory), static_cast<core::Joza*>(nullptr),
                    std::move(config)) {
  shared_->fleet = fleet;
}

GatewayServer::~GatewayServer() { Stop(); }

StatusOr<int> GatewayServer::Start() {
  if (running_.load()) return Status::InvalidArgument("already running");
  shared_->stopping.store(false);
  server_ = std::make_unique<internal::EpollServer>(*shared_);
  auto port = server_->Start();
  if (!port.ok()) {
    server_.reset();
    return port.status();
  }
  port_ = port.value();
  running_.store(true);
  return port_;
}

void GatewayServer::Stop() {
  if (!running_.exchange(false)) return;
  server_->Stop();
  // server_ stays alive: per-shard counters remain readable after Stop().
}

std::size_t GatewayServer::worker_count() const {
  return shared_->config.workers;
}

std::size_t GatewayServer::shard_count() const {
  return server_ ? server_->shard_count() : 0;
}

std::vector<ShardStats> GatewayServer::shard_stats() const {
  return server_ ? server_->shard_stats() : std::vector<ShardStats>{};
}

std::vector<std::pair<const char*, std::uint64_t>> GatewayStats::Counters()
    const {
  return {
      {"connections_accepted", connections_accepted},
      {"connections_rejected", connections_rejected},
      {"requests_served", requests_served},
      {"keepalive_reuses", keepalive_reuses},
      {"bad_requests", bad_requests},
      {"request_timeouts", request_timeouts},
      {"oversized_requests", oversized_requests},
      {"shed_by_deadline", shed_by_deadline},
      {"accept_overflows", accept_overflows},
      {"shed_p99_us", shed_p99_us},
      {"tenant_routed", tenant_routed},
      {"tenant_404s", tenant_404s},
      {"tenant_unavailable", tenant_unavailable},
  };
}

GatewayStats GatewayServer::stats() const {
  const internal::GatewayShared& s = *shared_;
  GatewayStats out;
  out.connections_accepted =
      s.connections_accepted.load(std::memory_order_relaxed);
  out.connections_rejected =
      s.connections_rejected.load(std::memory_order_relaxed);
  out.requests_served = s.requests_served.load(std::memory_order_relaxed);
  out.keepalive_reuses = s.keepalive_reuses.load(std::memory_order_relaxed);
  out.bad_requests = s.bad_requests.load(std::memory_order_relaxed);
  out.request_timeouts = s.request_timeouts.load(std::memory_order_relaxed);
  out.oversized_requests =
      s.oversized_requests.load(std::memory_order_relaxed);
  out.shed_by_deadline = s.shed_by_deadline.load(std::memory_order_relaxed);
  out.accept_overflows = s.accept_overflows.load(std::memory_order_relaxed);
  out.shed_p99_us = static_cast<std::uint64_t>(
      s.shed_latency
          .Quantile(0.99, std::chrono::microseconds(0), /*min_samples=*/1)
          .count());
  out.tenant_routed = s.tenant_routed.load(std::memory_order_relaxed);
  out.tenant_404s = s.tenant_404s.load(std::memory_order_relaxed);
  out.tenant_unavailable =
      s.tenant_unavailable.load(std::memory_order_relaxed);
  return out;
}

}  // namespace joza::gateway
