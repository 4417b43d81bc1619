// Edge-triggered epoll backend: event-loop shards with SO_REUSEPORT
// accept sockets, non-blocking read/write state machines, a timer wheel
// per shard, and a bounded drain of framed requests into the application.
//
// Ownership model: every connection belongs to exactly one shard for its
// whole life — the shard's thread is the only one that touches its fd,
// parser, output buffer, or timers, so the connection table needs no
// locks. The kernel spreads accepts across the shards' SO_REUSEPORT
// listeners by 4-tuple hash. Cross-thread state is confined to
// GatewayShared's atomics and the engine's own thread-safe innards.
//
// Drain loop: each loop iteration serves up to batch_max framed requests
// from the shard's ready queue, one at a time and in arrival order, before
// it polls sockets and timers again. Admission-control semantics (AIMD
// 429, deadline shed 503, bounded ready queue 503) and tenant pinning are
// applied per request, identical to the thread backend.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <thread>
#include <unordered_map>

#include "gateway/server_impl.h"
#include "gateway/timer_wheel.h"
#include "http/request_parser.h"
#include "resilience/injector.h"
#include "util/deadline.h"

namespace joza::gateway::internal {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kMaxEvents = 256;
// Bound on the drain-time flush wait for peers slow to absorb their last
// response; after this the remaining connections are severed.
constexpr std::chrono::milliseconds kDrainFlushBudget{250};

http::Response SimpleResponse(int status, const char* body) {
  http::Response r;
  r.status = status;
  r.body = body;
  return r;
}

// Drain-size histogram buckets: 1, 2, 3-4, 5-8, 9-16, 17+.
std::size_t HistogramBucket(std::size_t batch_size) {
  if (batch_size <= 2) return batch_size - 1;
  if (batch_size <= 4) return 2;
  if (batch_size <= 8) return 3;
  if (batch_size <= 16) return 4;
  return 5;
}

// One event-loop shard: accept socket, epoll instance, connection table,
// timer wheel, ready-request queue. Runs single-threaded.
class Shard {
 public:
  explicit Shard(GatewayShared& shared)
      : shared_(shared), wheel_(Clock::now()) {}
  ~Shard();

  Status Open(int port_hint, int* bound_port);
  void Spawn() {
    thread_ = std::thread([this] { Run(); });
  }
  void Join() {
    if (thread_.joinable()) thread_.join();
  }
  void Wake();

  ShardStats Snapshot() const {
    ShardStats out;
    out.connections = conns_accepted_.load(std::memory_order_relaxed);
    out.batches = batches_.load(std::memory_order_relaxed);
    out.requests = batch_requests_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < 6; ++i) {
      out.batch_histogram[i] = histogram_[i].load(std::memory_order_relaxed);
    }
    return out;
  }

 private:
  enum class TimerKind { kIdle, kRead };

  struct Conn {
    std::uint64_t gen = 0;
    http::RequestParser parser;
    std::string out;            // rendered responses not yet written
    std::size_t out_off = 0;
    std::size_t served = 0;     // responses produced on this connection
    std::size_t pending = 0;    // framed requests sitting in ready_
    bool peer_eof = false;      // peer half-closed; serve pending, then go
    bool want_close = false;    // close once out is flushed and pending==0
    bool read_armed = false;    // slowloris deadline armed for this request
    TimerKind timer_kind = TimerKind::kIdle;
    Clock::time_point timer_due{};      // authoritative deadline
    bool timer_scheduled = false;       // a wheel entry is outstanding
    Clock::time_point scheduled_due{};  // when that entry fires
  };

  struct Ready {
    int fd = -1;
    std::uint64_t gen = 0;
    std::string raw;
    Clock::time_point enqueued;
  };

  void Run();
  void AcceptBurst();
  void HandleEvent(const epoll_event& ev);
  // Reads until EAGAIN, frames requests into ready_, manages timers and
  // EOF. Returns false if the connection was closed.
  bool ReadAvailable(int fd, Conn& conn);
  // Appends rendered bytes and attempts a flush. Returns false if the
  // connection was closed (error, or want_close completed).
  bool Flush(int fd, Conn& conn);
  void QueueResponse(Conn& conn, const http::Response& response,
                     bool keep_alive);
  // Serves up to batch_max requests from the front of ready_.
  void ServeReady();
  // Parses, routes and serves one framed request on its connection.
  void ServeOne(const Ready& item);
  void OnTimer(const TimerWheel::Entry& entry);
  void Arm(int fd, Conn& conn, TimerKind kind, Clock::time_point due);
  void CloseConn(int fd);
  void Drain();

  const GatewayConfig& config() const { return shared_.config; }

  GatewayShared& shared_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int reserve_fd_ = -1;  // EMFILE parachute
  std::thread thread_;

  webapp::Application* app_ = nullptr;  // set for the thread's lifetime
  TimerWheel wheel_;
  std::unordered_map<int, Conn> conns_;
  std::deque<Ready> ready_;
  std::uint64_t gen_counter_ = 0;

  // Read by stats() from other threads.
  std::atomic<std::size_t> conns_accepted_{0};
  std::atomic<std::size_t> batches_{0};
  std::atomic<std::size_t> batch_requests_{0};
  std::atomic<std::size_t> histogram_[6] = {};
};

class EpollServer : public ServerImpl {
 public:
  explicit EpollServer(GatewayShared& shared) : shared_(shared) {}
  ~EpollServer() override { Stop(); }

  StatusOr<int> Start() override;
  void Stop() override;

  std::size_t shard_count() const override { return shards_.size(); }
  std::vector<ShardStats> shard_stats() const override {
    std::vector<ShardStats> out;
    out.reserve(shards_.size());
    for (const auto& shard : shards_) out.push_back(shard->Snapshot());
    return out;
  }

 private:
  GatewayShared& shared_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> running_{false};
};

Shard::~Shard() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (reserve_fd_ >= 0) ::close(reserve_fd_);
}

Status Shard::Open(int port_hint, int* bound_port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    return Status::Unavailable(std::string("socket(): ") +
                               std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  // Every shard binds the same port; the kernel hashes incoming 4-tuples
  // across the listeners, which is the per-core sharding mechanism.
  if (::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) !=
      0) {
    return Status::Unavailable(std::string("setsockopt(SO_REUSEPORT): ") +
                               std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port_hint));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    return Status::Unavailable(std::string("bind(): ") +
                               std::strerror(errno));
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  *bound_port = ntohs(addr.sin_port);
  if (::listen(listen_fd_, config().listen_backlog) != 0) {
    return Status::Unavailable(std::string("listen(): ") +
                               std::strerror(errno));
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Status::Unavailable(std::string("epoll_create1(): ") +
                               std::strerror(errno));
  }
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    return Status::Unavailable(std::string("eventfd(): ") +
                               std::strerror(errno));
  }
  reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);

  epoll_event ev{};
  ev.events = EPOLLIN;  // level-triggered for listener and wakeup
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  return Status::Ok();
}

void Shard::Wake() {
  if (wake_fd_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof one);
  }
}

void Shard::Arm(int fd, Conn& conn, TimerKind kind, Clock::time_point due) {
  conn.timer_kind = kind;
  conn.timer_due = due;
  // One outstanding wheel entry per connection is enough as long as it
  // fires no later than the authoritative deadline; OnTimer revalidates
  // against timer_due and re-schedules early fires.
  if (!conn.timer_scheduled || due < conn.scheduled_due) {
    wheel_.Schedule(fd, conn.gen, due);
    conn.timer_scheduled = true;
    conn.scheduled_due = due;
  }
}

void Shard::OnTimer(const TimerWheel::Entry& entry) {
  auto it = conns_.find(entry.fd);
  if (it == conns_.end() || it->second.gen != entry.gen) return;
  Conn& conn = it->second;
  conn.timer_scheduled = false;
  const auto now = Clock::now();
  if (conn.timer_due > now) {
    // Clamped, superseded, or re-armed entry: fire again at the real
    // deadline.
    Arm(entry.fd, conn, conn.timer_kind, conn.timer_due);
    return;
  }
  if (conn.timer_kind == TimerKind::kRead && conn.parser.has_partial()) {
    // Slowloris guard: the request started but never finished arriving.
    shared_.request_timeouts.fetch_add(1, std::memory_order_relaxed);
    QueueResponse(conn, SimpleResponse(408, "Request Timeout"), false);
    conn.want_close = true;
    Flush(entry.fd, conn);
    return;
  }
  if (conn.pending > 0) {
    // Requests admitted but not yet served (deep ready backlog): the
    // connection is not idle, give it another idle period.
    Arm(entry.fd, conn, TimerKind::kIdle,
        now + config().keepalive_timeout);
    return;
  }
  // Idle keep-alive expiry (or a write stalled for the whole idle budget):
  // sever silently, exactly like the blocking backend's SO_RCVTIMEO path.
  CloseConn(entry.fd);
}

void Shard::CloseConn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  ::close(fd);  // also removes it from the epoll interest list
  conns_.erase(it);
}

void Shard::QueueResponse(Conn& conn, const http::Response& response,
                          bool keep_alive) {
  conn.out += RenderResponse(response, keep_alive);
}

bool Shard::Flush(int fd, Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    const ssize_t n = ::send(fd, conn.out.data() + conn.out_off,
                             conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;  // kernel buffer full; EPOLLOUT edge resumes the write
    }
    CloseConn(fd);  // peer went away mid-response
    return false;
  }
  conn.out.clear();
  conn.out_off = 0;
  if (conn.want_close && conn.pending == 0) {
    CloseConn(fd);
    return false;
  }
  return true;
}

void Shard::AcceptBurst() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // Reserve-fd parachute: momentarily release our spare descriptor
        // so the pending connection can be accepted and immediately
        // closed — the client gets a clean refusal instead of the listen
        // backlog wedging forever.
        if (reserve_fd_ >= 0) ::close(reserve_fd_);
        int doomed = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (doomed >= 0) ::close(doomed);
        reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
        shared_.accept_overflows.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      break;  // EAGAIN (burst drained) or listener closed
    }
    if (resilience::FaultInjector::Global().ShouldFire(
            resilience::FaultPoint::kAcceptFail)) {
      // Simulated post-accept failure (fd exhaustion, dying client): drop
      // the connection on the floor; the client sees a reset.
      ::close(fd);
      continue;
    }
    shared_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    conns_accepted_.fetch_add(1, std::memory_order_relaxed);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    Conn& conn = conns_[fd];
    conn = Conn{};
    conn.gen = ++gen_counter_;
    conn.parser = http::RequestParser(config().max_request_bytes);

    epoll_event ev{};
    // Registered once, edge-triggered, for the connection's whole life:
    // readiness transitions arrive as edges and the state machines read
    // and write to EAGAIN on each one.
    ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);

    Arm(fd, conn, TimerKind::kIdle,
        Clock::now() + config().keepalive_timeout);
  }
}

bool Shard::ReadAvailable(int fd, Conn& conn) {
  auto& injector = resilience::FaultInjector::Global();
  if (injector.ShouldFire(resilience::FaultPoint::kSlowClient)) {
    // Stall the shard before it reads, as if the client dribbled the
    // request in slowly — the same injection point the thread backend
    // exposes, saturating the loop without touching sockets.
    std::this_thread::sleep_for(injector.hang());
  }
  char chunk[16384];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n > 0) {
      if (!conn.parser.Feed(
              std::string_view(chunk, static_cast<std::size_t>(n)))) {
        // Size-cap guard fired (unterminated headers or declared body
        // beyond max_request_bytes).
        shared_.oversized_requests.fetch_add(1, std::memory_order_relaxed);
        QueueResponse(conn, SimpleResponse(413, "Payload Too Large"),
                      false);
        conn.want_close = true;
        return Flush(fd, conn);
      }
      continue;  // edge-triggered: keep reading until EAGAIN
    }
    if (n == 0) {
      conn.peer_eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConn(fd);  // reset
    return false;
  }

  // Frame completed requests into the shard's ready queue.
  std::string raw;
  std::size_t framed = 0;
  while (conn.parser.Next(&raw)) {
    ++framed;
    if (conn.served + conn.pending >= config().max_requests_per_connection) {
      // Per-connection cap: the capped response already said
      // "Connection: close"; anything pipelined beyond it is dropped.
      conn.want_close = true;
      break;
    }
    if (ready_.size() >= config().queue_capacity) {
      // Bounded admission queue, same overflow answer as the thread
      // backend's bounded connection queue.
      shared_.connections_rejected.fetch_add(1, std::memory_order_relaxed);
      QueueResponse(conn, SimpleResponse(503, "overloaded"), false);
      conn.want_close = true;
      break;
    }
    ready_.push_back(Ready{fd, conn.gen, std::move(raw), Clock::now()});
    ++conn.pending;
  }

  // Timer transitions. The slowloris deadline arms when a request's first
  // byte arrives and is never extended by further bytes — has_partial()
  // going true is exactly that transition. A completed request resets the
  // arming so a pipelined successor gets its own fresh budget (the
  // blocking reader arms per ReadOneRequest call the same way).
  if (framed > 0) conn.read_armed = false;
  if (conn.parser.has_partial()) {
    if (!conn.read_armed) {
      conn.read_armed = true;
      if (config().read_timeout.count() > 0) {
        Arm(fd, conn, TimerKind::kRead,
            Clock::now() + config().read_timeout);
      } else {
        // Guard disabled: the idle budget still bounds the wait, closing
        // silently like the blocking backend's SO_RCVTIMEO.
        Arm(fd, conn, TimerKind::kIdle,
            Clock::now() + config().keepalive_timeout);
      }
    }
  } else {
    conn.read_armed = false;
    Arm(fd, conn, TimerKind::kIdle,
        Clock::now() + config().keepalive_timeout);
  }

  if (conn.peer_eof) {
    if (conn.parser.has_partial()) {
      // EOF mid-request: nothing to answer.
      CloseConn(fd);
      return false;
    }
    if (conn.pending == 0 && conn.out_off >= conn.out.size()) {
      // Clean close between requests.
      CloseConn(fd);
      return false;
    }
    // The peer half-closed after sending (shutdown(SHUT_WR) clients):
    // serve what was admitted, flush, then close.
    conn.want_close = true;
  }
  if (!conn.out.empty()) return Flush(fd, conn);
  return true;
}

void Shard::HandleEvent(const epoll_event& ev) {
  const int fd = ev.data.fd;
  if (fd == listen_fd_) {
    AcceptBurst();
    return;
  }
  if (fd == wake_fd_) {
    std::uint64_t drained;
    while (::read(wake_fd_, &drained, sizeof drained) > 0) {
    }
    return;
  }
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  if (ev.events & (EPOLLHUP | EPOLLERR)) {
    CloseConn(fd);
    return;
  }
  if (ev.events & EPOLLOUT) {
    if (!conn.out.empty() && !Flush(fd, conn)) return;
  }
  if (ev.events & (EPOLLIN | EPOLLRDHUP)) {
    ReadAvailable(fd, conn);
  }
}

void Shard::ServeOne(const Ready& item) {
  auto it = conns_.find(item.fd);
  if (it == conns_.end() || it->second.gen != item.gen) return;
  Conn& conn = it->second;
  --conn.pending;

  // Deadline-aware shed: if the request's queue wait plus the typical
  // service time already blow the budget, its client has (or is about to
  // have) timed out — a fast 503 frees the shard for work that can still
  // make its deadline.
  if (config().shed_by_deadline && config().request_deadline.count() > 0 &&
      !shared_.stopping.load(std::memory_order_relaxed)) {
    const auto waited = Clock::now() - item.enqueued;
    const auto estimate = shared_.service_ewma.estimate();
    if (waited + estimate > config().request_deadline) {
      // Not counted as served — the thread backend's shed path bypasses
      // the serve loop the same way.
      const auto shed_start = Clock::now();
      shared_.shed_by_deadline.fetch_add(1, std::memory_order_relaxed);
      QueueResponse(conn, SimpleResponse(503, "shed: deadline"), false);
      conn.want_close = true;
      Flush(item.fd, conn);
      shared_.shed_latency.Record(
          std::chrono::duration_cast<std::chrono::microseconds>(
              Clock::now() - shed_start));
      return;
    }
  }

  // Tenant routing (fleet-backed servers): resolve before admission so a
  // 404/503 refusal never consumes an AIMD slot, and pin the tenant's
  // engine for the whole handling below — one Acquire per request, as in
  // the thread backend.
  StatusOr<http::Request> parsed = http::ParseRawRequest(item.raw);
  TenantRoute route;
  StatusOr<tenant::Fleet::EnginePin> pin = Status::NotFound("no fleet");
  if (parsed.ok()) {
    route = ResolveTenant(shared_, parsed.value());
    if (shared_.fleet != nullptr && !route.not_found) {
      pin = shared_.fleet->Acquire(route.id);
    }
  }

  http::Response response;
  bool keep_alive = false;
  if (!parsed.ok()) {
    shared_.bad_requests.fetch_add(1, std::memory_order_relaxed);
    response.status = 400;
    response.body = "Bad Request";
  } else if (route.not_found) {
    response.status = 404;
    response.body = "Unknown Tenant";
  } else if (shared_.fleet != nullptr && !pin.ok()) {
    // Fail-closed: the tenant exists but its engine could not be pinned
    // (cold image unreadable, budget refusal). Never serve unprotected.
    shared_.tenant_unavailable.fetch_add(1, std::memory_order_relaxed);
    response.status = 503;
    response.body = "Tenant Unavailable";
  } else if (!shared_.aimd.TryAcquire()) {
    // At the adaptive concurrency limit: refuse immediately rather than
    // stacking more work onto a backend already blowing deadlines.
    shared_.throttled_by_limiter.fetch_add(1, std::memory_order_relaxed);
    response.status = 429;
    response.body = "Too Many Requests";
    keep_alive = false;
  } else {
    keep_alive = WantsKeepAlive(item.raw);
    // Per-request budget, visible to the Joza engine (and through it the
    // daemon pool) as the ambient deadline for this shard thread.
    util::Deadline request_deadline;
    if (config().request_deadline.count() > 0) {
      request_deadline = util::Deadline::After(config().request_deadline);
    }
    const auto handle_start = Clock::now();
    {
      util::ScopedRequestDeadline scope(request_deadline);
      if (shared_.fleet != nullptr) {
        // The pin keeps the tenant's engine alive across a concurrent
        // demotion; the gate is swapped out again before the pin drops.
        app_->SetQueryGate(pin.value()->MakeGate());
        response = app_->Handle(parsed.value());
        app_->SetQueryGate(nullptr);
      } else {
        response = app_->Handle(parsed.value());
      }
    }
    const auto elapsed = Clock::now() - handle_start;
    // A completion that consumed the whole budget is the AIMD overload
    // signal; on-time completions grow the limit back.
    const bool overloaded = config().request_deadline.count() > 0 &&
                            elapsed >= config().request_deadline;
    shared_.service_ewma.Record(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed));
    shared_.aimd.Release(overloaded);
  }
  // During drain, finish this request but do not start another.
  if (shared_.stopping.load(std::memory_order_relaxed)) keep_alive = false;
  if (conn.served + 1 >= config().max_requests_per_connection) {
    keep_alive = false;
  }
  if (conn.peer_eof || conn.want_close) keep_alive = false;

  // Count before the send: a client that has its response in hand must
  // observe the request in stats() (tests and monitoring read it there).
  shared_.requests_served.fetch_add(1, std::memory_order_relaxed);
  if (conn.served > 0) {
    shared_.keepalive_reuses.fetch_add(1, std::memory_order_relaxed);
  }
  QueueResponse(conn, response, keep_alive);
  ++conn.served;
  if (!keep_alive) conn.want_close = true;
  if (!Flush(item.fd, conn)) return;
  if (!conn.parser.has_partial()) {
    Arm(item.fd, conn, TimerKind::kIdle,
        Clock::now() + config().keepalive_timeout);
  }
}

void Shard::ServeReady() {
  if (ready_.empty()) return;
  const std::size_t n = std::min(ready_.size(), config().batch_max);

  batches_.fetch_add(1, std::memory_order_relaxed);
  batch_requests_.fetch_add(n, std::memory_order_relaxed);
  histogram_[HistogramBucket(n)].fetch_add(1, std::memory_order_relaxed);
  shared_.batches.fetch_add(1, std::memory_order_relaxed);
  shared_.batched_requests.fetch_add(n, std::memory_order_relaxed);
  std::size_t seen_max = shared_.max_batch.load(std::memory_order_relaxed);
  while (n > seen_max && !shared_.max_batch.compare_exchange_weak(
                             seen_max, n, std::memory_order_relaxed)) {
  }

  // Strictly in arrival order: HTTP pipelining demands per-connection
  // response order.
  for (std::size_t i = 0; i < n; ++i) {
    const Ready item = std::move(ready_.front());
    ready_.pop_front();
    ServeOne(item);
  }
}

void Shard::Run() {
  // One private application per shard: handlers and the in-memory db are
  // single-threaded; only the Joza engine is shared.
  std::unique_ptr<webapp::Application> app = shared_.factory();
  if (shared_.joza != nullptr) app->SetQueryGate(shared_.joza->MakeGate());
  app_ = app.get();

  epoll_event events[kMaxEvents];
  while (!shared_.stopping.load(std::memory_order_relaxed)) {
    const auto now = Clock::now();
    const int timeout =
        ready_.empty() ? wheel_.NextDelayMs(now, /*cap_ms=*/100) : 0;
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout);
    for (int i = 0; i < n; ++i) HandleEvent(events[i]);
    wheel_.Advance(Clock::now(),
                   [this](const TimerWheel::Entry& e) { OnTimer(e); });
    ServeReady();
  }
  Drain();
  app_->SetQueryGate(nullptr);
  app_ = nullptr;
}

void Shard::Drain() {
  // Stop accepting.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Serve everything already admitted (stopping forces Connection: close
  // on each response, so served connections wind down by themselves).
  while (!ready_.empty()) ServeReady();
  // Give peers a bounded window to absorb the final responses.
  const auto deadline = Clock::now() + kDrainFlushBudget;
  for (;;) {
    bool unflushed = false;
    for (const auto& [fd, conn] : conns_) {
      if (conn.out_off < conn.out.size()) unflushed = true;
    }
    if (!unflushed || Clock::now() >= deadline) break;
    epoll_event events[kMaxEvents];
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, 10);
    for (int i = 0; i < n; ++i) {
      auto it = conns_.find(events[i].data.fd);
      if (it == conns_.end()) continue;
      if (events[i].events & EPOLLOUT) Flush(it->first, it->second);
    }
  }
  // Sever whatever is left: idle keep-alives and mid-request connections.
  while (!conns_.empty()) CloseConn(conns_.begin()->first);
}

StatusOr<int> EpollServer::Start() {
  if (running_.load()) return Status::InvalidArgument("already running");
  const std::size_t shard_count = shared_.config.event_shards > 0
                                      ? shared_.config.event_shards
                                      : shared_.config.workers;
  int port = shared_.config.port;
  shards_.clear();
  for (std::size_t i = 0; i < shard_count; ++i) {
    auto shard = std::make_unique<Shard>(shared_);
    int bound = 0;
    // Shard 0 resolves port 0 to a concrete port; the rest must share it.
    if (Status st = shard->Open(port, &bound); !st.ok()) {
      shards_.clear();
      return st;
    }
    port = bound;
    shards_.push_back(std::move(shard));
  }
  running_.store(true);
  for (auto& shard : shards_) shard->Spawn();
  return port;
}

void EpollServer::Stop() {
  if (!running_.exchange(false)) return;
  shared_.stopping.store(true);
  for (auto& shard : shards_) shard->Wake();
  for (auto& shard : shards_) shard->Join();
}

}  // namespace

std::unique_ptr<ServerImpl> MakeEpollServer(GatewayShared& shared) {
  return std::make_unique<EpollServer>(shared);
}

}  // namespace joza::gateway::internal
