// The protected side of the A/B: one Joza engine installed on the testbed,
// with PTI behind a daemon pool exactly as `joza_gateway --pti pool` wires
// it (the paper's section IV-C1 daemon deployment), and the CLI's cache
// bound. Shared by the served rounds and the in-process replays.
#pragma once

#include <chrono>
#include <cstddef>
#include <memory>
#include <string>

#include "attack/catalog.h"
#include "core/joza.h"
#include "ipc/daemon_pool.h"

namespace servebench {

// joza_gateway's default --cache-capacity.
inline constexpr std::size_t kCliCacheCapacity = 1 << 16;
// One daemon: with one event shard at most one analysis is in flight, and
// clients + shard + daemons must fit the machine's cores.
inline constexpr std::size_t kPoolSize = 1;

struct ProtectedEngine {
  std::unique_ptr<joza::core::Joza> joza;
  // Declared after the engine so it is torn down first; the engine's PTI
  // backend points into it.
  std::unique_ptr<joza::ipc::DaemonPool> pool;
};

// Testbed build + Joza::Install (fragment extraction, automaton build) +
// daemon-pool spawn. Pinging the pool forks its daemon now, so the fork
// happens before any server or client socket of the caller exists and the
// spawn cost lands here rather than in the first timed request.
inline bool BuildProtectedEngine(ProtectedEngine* out, std::string* error) {
  auto proto = joza::attack::MakeTestbed();
  joza::core::JozaConfig config;
  config.cache_capacity = kCliCacheCapacity;
  out->joza = std::make_unique<joza::core::Joza>(
      joza::core::Joza::Install(*proto, config));
  joza::ipc::DaemonPool::Options options;
  options.max_size = kPoolSize;
  options.supervisor.restart_budget = 16;  // joza_gateway --restart-budget
  out->pool = std::make_unique<joza::ipc::DaemonPool>(
      out->joza->ruleset()->pti->fragments(), options);
  if (joza::Status st = out->pool->Ping(); !st.ok()) {
    *error = "daemon pool did not start: " + st.ToString();
    return false;
  }
  out->joza->SetPtiBackend(out->pool->AsPtiBackend());
  return true;
}

}  // namespace servebench
