#include "ipc/daemon.h"

#include <csignal>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "resilience/injector.h"

namespace joza::ipc {

std::size_t ServePtiDaemon(int read_fd, int write_fd,
                           php::FragmentSet fragments,
                           pti::PtiConfig config,
                           std::uint64_t initial_version) {
  pti::PtiAnalyzer analyzer(std::move(fragments), config);
  // The analyzer's own snapshot starts at 0; the daemon's externally
  // visible version is the update-log position the client seeded it with.
  std::uint64_t version = initial_version;
  std::size_t served = 0;
  for (;;) {
    auto frame = ReadFrame(read_fd);
    if (!frame.ok()) break;  // EOF or broken pipe: the app went away
    switch (frame->type) {
      case MessageType::kPing:
        // Version handshake: the Pong carries the daemon's current ruleset
        // version so the client can detect a stale replica.
        if (!WriteFrame(write_fd, {MessageType::kPong, EncodeU64(version)})
                 .ok()) {
          return served;
        }
        break;
      case MessageType::kAnalyzeRequest: {
        auto& injector = resilience::FaultInjector::Global();
        if (injector.ShouldFire(resilience::FaultPoint::kDaemonKill)) {
          ::_exit(3);  // crash mid-request: the client sees EOF
        }
        if (injector.ShouldFire(resilience::FaultPoint::kDaemonHang)) {
          // Stall without answering; the client's deadline machinery must
          // kill and replace this daemon.
          std::this_thread::sleep_for(injector.hang());
        }
        const std::string& query = frame->payload;
        pti::PtiResult r = analyzer.Analyze(query);
        PtiVerdictWire wire;
        wire.attack_detected = r.attack_detected;
        wire.untrusted_critical_tokens =
            static_cast<std::uint32_t>(r.untrusted_critical_tokens.size());
        wire.hits = static_cast<std::uint32_t>(r.hits);
        wire.fragments_scanned =
            static_cast<std::uint32_t>(r.fragments_scanned);
        wire.ruleset_version = version;
        for (const auto& t : r.untrusted_critical_tokens) {
          wire.untrusted_texts.emplace_back(t.text);
        }
        ++served;
        if (!WriteFrame(write_fd,
                        {MessageType::kAnalyzeResponse, EncodeVerdict(wire)})
                 .ok()) {
          return served;
        }
        break;
      }
      case MessageType::kAddFragments: {
        auto update = DecodeFragmentUpdate(frame->payload);
        if (!update.ok()) {
          WriteFrame(write_fd,
                     {MessageType::kError, update.status().message()});
          break;
        }
        // Raw fragments arrive pre-extracted; one successor snapshot is
        // built, stamped with the version the update names, and the Ack
        // echoes it so the client can verify convergence.
        analyzer.AddRawFragments(update->fragments, update->version);
        version = update->version;
        WriteFrame(write_fd, {MessageType::kAck, EncodeU64(version)});
        break;
      }
      case MessageType::kShutdown:
        WriteFrame(write_fd, {MessageType::kAck, EncodeU64(version)});
        return served;
      default:
        WriteFrame(write_fd, {MessageType::kError, "unexpected message type"});
        break;
    }
  }
  return served;
}

DaemonClient::DaemonClient(Mode mode, php::FragmentSet fragments,
                           pti::PtiConfig config,
                           std::uint64_t initial_version)
    : mode_(mode),
      fragments_(std::move(fragments)),
      config_(config),
      version_(initial_version) {}

DaemonClient::~DaemonClient() { Shutdown(); }

Status DaemonClient::SpawnChild(Fd& to_child_w, Fd& from_child_r) {
  if (resilience::FaultInjector::Global().ShouldFire(
          resilience::FaultPoint::kSpawnFail)) {
    return Status::Unavailable("injected spawn failure");
  }
  auto req_pipe = MakePipe();  // parent -> child
  if (!req_pipe.ok()) return req_pipe.status();
  auto resp_pipe = MakePipe();  // child -> parent
  if (!resp_pipe.ok()) return resp_pipe.status();

  pid_t pid = ::fork();
  if (pid < 0) return Status::Internal("fork() failed");
  if (pid == 0) {
    // Child: the daemon. Close the parent-side ends, serve, exit.
    req_pipe->second.Close();
    resp_pipe->first.Close();
    ServePtiDaemon(req_pipe->first.get(), resp_pipe->second.get(), fragments_,
                   config_, version_);
    ::_exit(0);
  }
  // Parent. Non-blocking ends so deadline-bounded I/O can never stall
  // inside a syscall (the child keeps plain blocking pipes).
  req_pipe->first.Close();
  resp_pipe->second.Close();
  to_child_w = std::move(req_pipe->second);
  from_child_r = std::move(resp_pipe->first);
  SetNonBlocking(to_child_w.get(), true);
  SetNonBlocking(from_child_r.get(), true);
  child_pid_ = pid;
  return Status::Ok();
}

Status DaemonClient::EnsureSpawned() {
  if (to_daemon_.valid()) return Status::Ok();
  return SpawnChild(to_daemon_, from_daemon_);
}

StatusOr<Frame> DaemonClient::RoundTrip(const Frame& request,
                                        util::Deadline deadline) {
  if (mode_ == Mode::kSpawnPerRequest) {
    // Fresh daemon for this one request: its index build cost lands in the
    // round-trip latency, exactly like the paper's unoptimized tier.
    Fd w, r;
    if (auto st = SpawnChild(w, r); !st.ok()) return st;
    auto respond = [&]() -> StatusOr<Frame> {
      if (auto st = WriteFrame(w.get(), request, deadline); !st.ok()) {
        return st;
      }
      return ReadFrame(r.get(), 64u << 20, deadline);
    };
    auto response = respond();
    w.Close();  // EOF lets the child exit
    if (!response.ok() &&
        response.status().code() == StatusCode::kDeadlineExceeded) {
      ::kill(child_pid_, SIGKILL);  // a hung one-shot child never exits
    }
    int status = 0;
    ::waitpid(child_pid_, &status, 0);
    child_pid_ = -1;
    return response;
  }
  if (auto st = EnsureSpawned(); !st.ok()) return st;
  if (auto st = WriteFrame(to_daemon_.get(), request, deadline); !st.ok()) {
    return st;
  }
  return ReadFrame(from_daemon_.get(), 64u << 20, deadline);
}

StatusOr<PtiVerdictWire> DaemonClient::Analyze(std::string_view query,
                                               util::Deadline deadline) {
  auto response = RoundTrip(
      Frame{MessageType::kAnalyzeRequest, std::string(query)}, deadline);
  if (!response.ok()) return response.status();
  if (response->type != MessageType::kAnalyzeResponse) {
    return Status::Internal("daemon returned unexpected frame type");
  }
  return DecodeVerdict(response->payload);
}

Status DaemonClient::Ping(util::Deadline deadline) {
  auto version = Handshake(deadline);
  return version.ok() ? Status::Ok() : version.status();
}

StatusOr<std::uint64_t> DaemonClient::Handshake(util::Deadline deadline) {
  auto response = RoundTrip(Frame{MessageType::kPing, ""}, deadline);
  if (!response.ok()) return response.status();
  if (response->type != MessageType::kPong) {
    return Status::Internal("daemon returned unexpected frame type");
  }
  return DecodeU64(response->payload);
}

Status DaemonClient::AddFragments(
    const std::vector<std::string>& fragment_texts, util::Deadline deadline) {
  auto acked =
      AddFragmentsAt(fragment_texts, version_ + fragment_texts.size(),
                     deadline);
  return acked.ok() ? Status::Ok() : acked.status();
}

StatusOr<std::uint64_t> DaemonClient::AddFragmentsAt(
    const std::vector<std::string>& fragment_texts,
    std::uint64_t target_version, util::Deadline deadline) {
  for (const std::string& f : fragment_texts) fragments_.AddRaw(f);
  version_ = target_version;
  if (mode_ == Mode::kSpawnPerRequest || !to_daemon_.valid()) {
    return target_version;  // next spawn starts at this version
  }
  FragmentUpdate update;
  update.version = target_version;
  update.fragments = fragment_texts;
  auto response = RoundTrip(
      Frame{MessageType::kAddFragments, EncodeFragmentUpdate(update)},
      deadline);
  if (!response.ok()) return response.status();
  if (response->type != MessageType::kAck) {
    return Status::Internal("daemon rejected fragment update");
  }
  return DecodeU64(response->payload);
}

void DaemonClient::Shutdown() {
  bool handshake_ok = true;
  if (to_daemon_.valid()) {
    // Bounded handshake: a hung daemon must not turn shutdown into a hang.
    const auto deadline =
        util::Deadline::After(std::chrono::milliseconds(500));
    handshake_ok =
        WriteFrame(to_daemon_.get(), Frame{MessageType::kShutdown, ""},
                   deadline)
            .ok() &&
        ReadFrame(from_daemon_.get(), 64u << 20, deadline).ok();
    to_daemon_.Close();
    from_daemon_.Close();
  }
  if (child_pid_ > 0) {
    if (!handshake_ok) ::kill(child_pid_, SIGKILL);
    int status = 0;
    ::waitpid(child_pid_, &status, 0);
    child_pid_ = -1;
  }
}

void DaemonClient::Kill() {
  to_daemon_.Close();
  from_daemon_.Close();
  if (child_pid_ > 0) {
    ::kill(child_pid_, SIGKILL);
    int status = 0;
    ::waitpid(child_pid_, &status, 0);
    child_pid_ = -1;
  }
}

}  // namespace joza::ipc
