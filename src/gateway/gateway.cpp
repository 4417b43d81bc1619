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

std::size_t GatewayServer::shard_count() const {
  return server_ ? server_->shard_count() : 0;
}

std::vector<ShardStats> GatewayServer::shard_stats() const {
  return server_ ? server_->shard_stats() : std::vector<ShardStats>{};
}

CounterList ShardStats::Counters() const {
  return ExportCounters(*this, kShardCounters);
}

CounterList GatewayStats::Counters() const {
  return ExportCounters(*this, kGatewayCounters);
}

GatewayStats GatewayServer::stats() const {
  GatewayStats out = LoadCounters(shared_->stats, kGatewayCounters);
  out.shed_p99_us = static_cast<std::uint64_t>(
      shared_->shed_latency
          .Quantile(0.99, std::chrono::microseconds(0), /*min_samples=*/1)
          .count());
  return out;
}

}  // namespace joza::gateway
