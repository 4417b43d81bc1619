// PTI daemon: server loop and client (Section IV-C1).
//
// The daemon is a native process holding the fragment automaton in memory.
// The application launches it on demand and talks to it over anonymous
// pipes. Two lifetimes exist, matching the paper:
//   * spawn-per-request — a fresh daemon per analysis (the "unoptimized"
//     tier of Figure 7: the child rebuilds the fragment index every time);
//   * persistent — one long-lived daemon reused across requests (the
//     optimized tier).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "ipc/framing.h"
#include "phpsrc/fragments.h"
#include "pti/pti.h"
#include "util/status.h"

namespace joza::ipc {

// Runs the daemon side: reads frames from `read_fd`, answers on
// `write_fd`, until Shutdown or EOF. Returns the number of queries served.
// `fragments` seeds the analyzer at ruleset version `initial_version`;
// kAddFragments frames (FragmentUpdate payloads) extend it and move the
// version to the one each update names. Pong and Ack payloads carry the
// current version (EncodeU64) so the client can prove convergence, and
// every analyze verdict is stamped with the version it was computed under.
// Honours the daemon-hang / daemon-kill fault-injection points (inherited
// across fork) so chaos tests can stall or crash daemons mid-request.
std::size_t ServePtiDaemon(int read_fd, int write_fd,
                           php::FragmentSet fragments,
                           pti::PtiConfig config = {},
                           std::uint64_t initial_version = 0);

class DaemonClient {
 public:
  enum class Mode {
    kPersistent,       // fork once, reuse across Analyze calls
    kSpawnPerRequest,  // fork + index build per Analyze call
  };

  // The client owns a copy of the fragment texts so spawned children can
  // rebuild the analyzer (models the daemon loading fragments at startup).
  // `initial_version` is the ruleset version those fragments correspond to
  // (the pool's update-log position at spawn time).
  DaemonClient(Mode mode, php::FragmentSet fragments,
               pti::PtiConfig config = {}, std::uint64_t initial_version = 0);
  ~DaemonClient();

  DaemonClient(const DaemonClient&) = delete;
  DaemonClient& operator=(const DaemonClient&) = delete;

  Mode mode() const { return mode_; }

  // Pid of the live daemon child, or -1 before the first spawn / after
  // Shutdown. The pool uses it for health accounting; tests use it to kill
  // daemons and exercise fail-closed replacement.
  int child_pid() const { return child_pid_; }

  // Round-trips one query through the daemon. A finite deadline bounds the
  // whole round trip; a miss leaves the stream desynchronized, so the
  // caller must Kill() and discard this client (a hung daemon is
  // indistinguishable from a dead one on the request path).
  StatusOr<PtiVerdictWire> Analyze(std::string_view query,
                                   util::Deadline deadline = util::Deadline());

  // Health check round trip.
  Status Ping(util::Deadline deadline = util::Deadline());

  // Version handshake: pings the daemon and returns the ruleset version it
  // reports (the Pong payload). A daemon answering with a version other
  // than ruleset_version() is stale and should be replaced.
  StatusOr<std::uint64_t> Handshake(util::Deadline deadline = util::Deadline());

  // The ruleset version this client believes the daemon is at (bumped by
  // one per fragment text shipped, matching the pool's update log).
  std::uint64_t ruleset_version() const { return version_; }

  // Ships additional fragments to the (persistent) daemon; each text bumps
  // the version by one.
  Status AddFragments(const std::vector<std::string>& fragment_texts,
                      util::Deadline deadline = util::Deadline());

  // Same, naming the exact version the daemon must land on. Returns the
  // version the daemon acked; a value != target_version means the daemon
  // diverged (stale replica) and must be discarded.
  StatusOr<std::uint64_t> AddFragmentsAt(
      const std::vector<std::string>& fragment_texts,
      std::uint64_t target_version,
      util::Deadline deadline = util::Deadline());

  // Stops the persistent daemon (no-op for spawn-per-request). The
  // handshake is time-bounded; an unresponsive daemon is killed instead.
  void Shutdown();

  // SIGKILLs the daemon and reaps it without any handshake — for daemons
  // that missed a deadline (hung) or broke the protocol.
  void Kill();

 private:
  Status EnsureSpawned();
  StatusOr<Frame> RoundTrip(const Frame& request, util::Deadline deadline);
  Status SpawnChild(Fd& to_child_w, Fd& from_child_r);

  Mode mode_;
  php::FragmentSet fragments_;
  pti::PtiConfig config_;
  std::uint64_t version_ = 0;  // ruleset version fragments_ corresponds to
  Fd to_daemon_;    // parent writes requests
  Fd from_daemon_;  // parent reads responses
  int child_pid_ = -1;
};

}  // namespace joza::ipc
