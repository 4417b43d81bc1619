// The gateway's serving machinery: edge-triggered epoll shards do the I/O
// and a pool of handler threads does the work.
//
// Shards: every connection belongs to exactly one shard for its whole life
// — the shard's thread is the only one that touches its fd, parser, output
// buffer, or timers, so the connection table needs no locks. The kernel
// spreads accepts across the shards' SO_REUSEPORT listeners by 4-tuple
// hash. A shard frames requests, enforces the slowloris, size and idle
// bounds, and writes responses; it never calls into an Application.
//
// Hand-off: a framed request goes to the handler pool's queue. A handler
// runs the deadline shed, tenant routing and the app on its private
// Application (gated through the request's engine scope), renders the
// response, and returns the bytes to the request's shard through the
// shard's eventfd. A connection has at most one request at the handlers
// and its shard leaves the socket unread meanwhile, so pipelined requests
// wait on their connection and responses leave in request order. A
// blocked PTI call therefore holds one handler and one connection, never a
// shard.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "gateway/server_impl.h"
#include "gateway/timer_wheel.h"
#include "http/request_parser.h"
#include "resilience/injector.h"
#include "util/deadline.h"

namespace joza::gateway::internal {

using Clock = std::chrono::steady_clock;

namespace {

constexpr int kMaxEvents = 256;
// Bound on the drain-time flush wait for peers slow to absorb their last
// response; after this the remaining connections are severed.
constexpr std::chrono::milliseconds kDrainFlushBudget{250};

// The EMFILE parachute: a spare descriptor released to accept-and-close a
// connection the full fd table would otherwise leave in the backlog.
int OpenReserveFd() { return ::open("/dev/null", O_RDONLY | O_CLOEXEC); }

http::Response SimpleResponse(int status, const char* body) {
  http::Response r;
  r.status = status;
  r.body = body;
  return r;
}

}  // namespace

// One framed request on its way to a handler.
struct Job {
  Shard* shard = nullptr;
  int fd = -1;
  std::uint64_t gen = 0;
  std::string raw;
  Clock::time_point enqueued;
  bool reused = false;      // not the connection's first request
  // Request cap reached, or the peer half-closed and no complete request
  // follows this one.
  bool must_close = false;
};

// A handler's rendered response on its way back to the shard.
struct Completion {
  int fd = -1;
  std::uint64_t gen = 0;
  std::string bytes;
  bool keep_alive = false;
};

// The `workers` handler threads, each with a private Application, fed from
// one queue that every shard submits to.
class HandlerPool {
 public:
  explicit HandlerPool(GatewayShared& shared) : shared_(shared) {}

  void Spawn(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      threads_.emplace_back([this] { Run(); });
    }
  }
  void Submit(Job job);
  // Call once every shard has drained: handlers finish the queue and exit.
  void Join();

 private:
  void Run();
  // Sheds, parses, routes and serves one request; renders its response.
  Completion Serve(webapp::Application& app, const Job& job);

  const GatewayConfig& config() const { return shared_.config; }

  GatewayShared& shared_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> queue_;
  bool closing_ = false;
  std::vector<std::thread> threads_;
};

// One event-loop shard: accept socket, epoll instance, connection table,
// timer wheel. Runs single-threaded; handlers reach it only through
// Picked() and Complete().
class Shard {
 public:
  Shard(GatewayShared& shared, HandlerPool& handlers)
      : shared_(shared), handlers_(handlers), wheel_(Clock::now()) {}
  ~Shard();

  Status Open(int port_hint, int* bound_port);
  void Spawn() {
    thread_ = std::thread([this] { Run(); });
  }
  void Join() {
    if (thread_.joinable()) thread_.join();
  }
  void Wake();

  // Handler side: one of this shard's jobs left the queue.
  void Picked() { queued_.fetch_sub(1, std::memory_order_relaxed); }
  // Handler side: a response is rendered; the shard writes it.
  void Complete(Completion done);

  ShardStats Snapshot() const { return LoadCounters(stats_, kShardCounters); }

 private:
  enum class TimerKind { kIdle, kRead };

  struct Conn {
    std::uint64_t gen = 0;
    http::RequestParser parser;
    std::string out;            // rendered responses not yet written
    std::size_t out_off = 0;
    std::size_t served = 0;     // responses produced on this connection
    bool busy = false;          // a request is at the handlers
    bool unread = false;        // readable while busy; read on completion
    bool peer_eof = false;      // peer half-closed; answer what it sent
    bool want_close = false;    // close once out is flushed and !busy
    bool read_armed = false;    // slowloris deadline armed for this request
    TimerKind timer_kind = TimerKind::kIdle;
    Clock::time_point timer_due{};      // authoritative deadline
    bool timer_scheduled = false;       // a wheel entry is outstanding
    Clock::time_point scheduled_due{};  // when that entry fires
  };

  void Run();
  void AcceptBurst();
  void HandleEvent(const epoll_event& ev);
  // Reads until EAGAIN, then Advance. Returns false if the connection was
  // closed.
  bool ReadAvailable(int fd, Conn& conn);
  // Hands the next buffered request off, manages timers, and closes a
  // half-closed connection once it has nothing left to answer. Returns
  // false if the connection was closed.
  bool Advance(int fd, Conn& conn);
  // Hands one framed request to the handlers, or answers 503 when this
  // shard already holds queue_capacity requests for them.
  void Dispatch(int fd, Conn& conn, std::string raw);
  // Writes what handlers completed and resumes their connections.
  void TakeCompletions();
  // Attempts a flush. Returns false if the connection was closed (error,
  // or want_close completed).
  bool Flush(int fd, Conn& conn);
  void QueueResponse(Conn& conn, const http::Response& response,
                     bool keep_alive);
  void OnTimer(const TimerWheel::Entry& entry);
  void Arm(int fd, Conn& conn, TimerKind kind, Clock::time_point due);
  void CloseConn(int fd);
  void Drain();

  const GatewayConfig& config() const { return shared_.config; }

  GatewayShared& shared_;
  HandlerPool& handlers_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int reserve_fd_ = -1;  // EMFILE parachute

  TimerWheel wheel_;
  std::unordered_map<int, Conn> conns_;
  std::uint64_t gen_counter_ = 0;
  std::size_t in_flight_ = 0;  // handed off, completion not yet taken

  // This shard's jobs waiting in the handler queue (bounded by
  // queue_capacity); handlers decrement it as they pick jobs up.
  std::atomic<std::size_t> queued_{0};
  std::mutex done_mu_;
  std::vector<Completion> done_;   // guarded by done_mu_
  std::vector<Completion> taken_;  // shard thread only

  // Read by stats() from other threads.
  ShardStats stats_;

  std::thread thread_;  // last: runs over every member above
};

// ---------------------------------------------------------------------------
// Handler pool
// ---------------------------------------------------------------------------

void HandlerPool::Submit(Job job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void HandlerPool::Join() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closing_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
}

void HandlerPool::Run() {
  // One private application per handler: routes and the in-memory db are
  // single-threaded; only the Joza engine is shared.
  std::unique_ptr<webapp::Application> app = shared_.factory();
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return !queue_.empty() || closing_; });
      if (queue_.empty()) break;  // closing and nothing left to serve
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job.shard->Picked();
    job.shard->Complete(Serve(*app, job));
  }
}

Completion HandlerPool::Serve(webapp::Application& app, const Job& job) {
  Completion done;
  done.fd = job.fd;
  done.gen = job.gen;

  // Deadline shed: a request that waited its whole budget for a handler
  // has a client that has (or is about to have) timed out — a fast 503
  // frees the handler for work that can still make its deadline. The rule
  // reads only this request's own wait, so one slow request never sheds
  // the ones after it.
  const auto picked = Clock::now();
  if (config().request_deadline.count() > 0 &&
      picked - job.enqueued >= config().request_deadline &&
      !shared_.stopping.load(std::memory_order_relaxed)) {
    // Not counted as served.
    Bump(shared_.stats.shed_by_deadline);
    done.bytes = RenderResponse(SimpleResponse(503, "shed: deadline"), false);
    shared_.shed_latency.Record(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              picked));
    return done;
  }

  // Tenant routing (fleet-backed servers): pin the tenant's engine for the
  // whole handling below — one Acquire per request.
  StatusOr<http::Request> parsed = http::ParseRawRequest(job.raw);
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
    Bump(shared_.stats.bad_requests);
    response.status = 400;
    response.body = "Bad Request";
  } else if (route.not_found) {
    response.status = 404;
    response.body = "Unknown Tenant";
  } else if (shared_.fleet != nullptr && !pin.ok()) {
    // Fail-closed: the tenant exists but its engine could not be pinned
    // (the memory budget cannot admit it). Never serve unprotected.
    Bump(shared_.stats.tenant_unavailable);
    response.status = 503;
    response.body = "Tenant Unavailable";
  } else {
    keep_alive = WantsKeepAlive(job.raw);
    // Per-request budget: the request's scope bounds every PTI call of the
    // request (through the engine, the daemon pool's round trip) by it.
    util::Deadline request_deadline;
    if (config().request_deadline.count() > 0) {
      request_deadline = util::Deadline::After(config().request_deadline);
    }
    // The fleet pin keeps the tenant's engine alive across a concurrent
    // demotion. Every query of the request goes through one scope: one
    // snapshot pin, one deadline and one preparation of the request's
    // inputs. The gate is swapped out again before the scope and the pin
    // drop.
    core::Joza* engine =
        shared_.fleet != nullptr ? pin.value().get() : shared_.joza;
    if (engine != nullptr) {
      core::RequestScope request_scope =
          engine->BeginRequest(parsed.value(), request_deadline);
      app.SetQueryGate(request_scope.MakeGate());
      response = app.Handle(parsed.value());
      app.SetQueryGate(nullptr);
    } else {
      response = app.Handle(parsed.value());
    }
  }
  // During drain, finish this request but do not start another.
  if (shared_.stopping.load(std::memory_order_relaxed)) keep_alive = false;
  if (job.must_close) keep_alive = false;

  // Count before the write: a client that has its response in hand must
  // observe the request in stats() (tests and monitoring read it there).
  Bump(shared_.stats.requests_served);
  if (job.reused) {
    Bump(shared_.stats.keepalive_reuses);
  }
  done.bytes = RenderResponse(response, keep_alive);
  done.keep_alive = keep_alive;
  return done;
}

// ---------------------------------------------------------------------------
// Shard
// ---------------------------------------------------------------------------

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
  reserve_fd_ = OpenReserveFd();

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

void Shard::Complete(Completion done) {
  bool was_empty;
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    was_empty = done_.empty();
    done_.push_back(std::move(done));
  }
  // One wake per non-empty list is enough: the shard drains its eventfd
  // before it takes the list, so a non-empty list always has a wake behind
  // it.
  if (was_empty) Wake();
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
  if (conn.busy) {
    // A request is at the handlers: the connection is not idle and its
    // socket is not being read, so give it another idle period.
    Arm(entry.fd, conn, TimerKind::kIdle, now + config().keepalive_timeout);
    return;
  }
  if (conn.timer_kind == TimerKind::kRead && conn.parser.has_partial()) {
    // Slowloris guard: the request started but never finished arriving.
    Bump(shared_.stats.request_timeouts);
    QueueResponse(conn, SimpleResponse(408, "Request Timeout"), false);
    conn.want_close = true;
    Flush(entry.fd, conn);
    return;
  }
  // Idle keep-alive expiry (or a write stalled for the whole idle budget):
  // sever silently.
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
  if (conn.want_close && !conn.busy) {
    CloseConn(fd);
    return false;
  }
  return true;
}

void Shard::AcceptBurst() {
  // A reserve lost in an earlier burst (its open failed, or another thread
  // took the freed slot) is replaced as soon as a descriptor is free.
  if (reserve_fd_ < 0) reserve_fd_ = OpenReserveFd();
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // Momentarily release the reserve so the pending connection can be
        // accepted and immediately closed — the client gets a clean
        // refusal instead of the listen backlog wedging forever.
        if (reserve_fd_ >= 0) ::close(reserve_fd_);
        const int doomed =
            ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (doomed >= 0) {
          ::close(doomed);
          Bump(shared_.stats.accept_overflows);
        }
        reserve_fd_ = OpenReserveFd();
        // A full table fails accept4 even with nothing pending, so
        // retrying at once could spin forever: end the burst and let this
        // loop's timers and completions run and free descriptors.
        if (doomed < 0 || reserve_fd_ < 0) break;
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
    Bump(shared_.stats.connections_accepted);
    Bump(stats_.connections);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    Conn& conn = conns_[fd];
    conn = Conn();
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
  // A request is at the handlers: leave the socket unread until its
  // response is queued. TakeCompletions resumes here.
  if (conn.busy) {
    conn.unread = true;
    return true;
  }
  conn.unread = false;
  char chunk[16384];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n > 0) {
      if (!conn.parser.Feed(
              std::string_view(chunk, static_cast<std::size_t>(n)))) {
        // Size-cap guard fired (unterminated headers or declared body
        // beyond max_request_bytes).
        Bump(shared_.stats.oversized_requests);
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
  return Advance(fd, conn);
}

bool Shard::Advance(int fd, Conn& conn) {
  std::string raw;
  if (!conn.want_close && conn.parser.Next(&raw)) {
    conn.read_armed = false;  // a pipelined successor gets a fresh budget
    Dispatch(fd, conn, std::move(raw));
  }

  // Timer transitions. The slowloris deadline arms when a request's first
  // byte arrives and is never extended by further bytes — has_partial()
  // going true is exactly that transition.
  if (conn.parser.has_partial()) {
    if (!conn.read_armed) {
      conn.read_armed = true;
      if (config().read_timeout.count() > 0) {
        Arm(fd, conn, TimerKind::kRead,
            Clock::now() + config().read_timeout);
      } else {
        // Guard disabled: the idle budget still bounds the wait.
        Arm(fd, conn, TimerKind::kIdle,
            Clock::now() + config().keepalive_timeout);
      }
    }
  } else {
    conn.read_armed = false;
    Arm(fd, conn, TimerKind::kIdle,
        Clock::now() + config().keepalive_timeout);
  }

  if (conn.peer_eof && !conn.busy) {
    // The peer half-closed (shutdown(SHUT_WR) clients) and every complete
    // request it sent has been answered; anything still buffered is a
    // request that can never finish. Flush, then close.
    conn.want_close = true;
  }
  return Flush(fd, conn);
}

void Shard::Dispatch(int fd, Conn& conn, std::string raw) {
  if (queued_.load(std::memory_order_relaxed) >= config().queue_capacity) {
    // Bounded hand-off: refuse rather than buffer without bound.
    Bump(shared_.stats.connections_rejected);
    QueueResponse(conn, SimpleResponse(503, "overloaded"), false);
    conn.want_close = true;
    return;
  }
  Job job;
  job.shard = this;
  job.fd = fd;
  job.gen = conn.gen;
  job.raw = std::move(raw);
  job.enqueued = Clock::now();
  job.reused = conn.served > 0;
  // A half-closed peer's pipelined requests are all answered; once the FIN
  // is seen, only the last complete one's response says Connection: close.
  job.must_close = (conn.peer_eof && !conn.parser.has_complete()) ||
                   conn.served + 1 >= config().max_requests_per_connection;
  queued_.fetch_add(1, std::memory_order_relaxed);
  handlers_.Submit(std::move(job));
  conn.busy = true;
  ++in_flight_;
  Bump(stats_.requests);
}

void Shard::TakeCompletions() {
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    taken_.swap(done_);
  }
  for (Completion& done : taken_) {
    --in_flight_;
    auto it = conns_.find(done.fd);
    // The connection closed, or its fd now names a newer connection.
    if (it == conns_.end() || it->second.gen != done.gen) continue;
    Conn& conn = it->second;
    conn.busy = false;
    ++conn.served;
    if (conn.out.empty()) {
      conn.out = std::move(done.bytes);
    } else {
      conn.out += done.bytes;
    }
    if (!done.keep_alive) conn.want_close = true;
    if (!Flush(done.fd, conn)) continue;
    // The connection's next request may already be buffered, or waiting in
    // the socket if it became readable meanwhile (edge-triggered: no new
    // edge will say so). Draining admits nothing new.
    conn.read_armed = false;
    if (conn.want_close || shared_.stopping.load(std::memory_order_relaxed)) {
      continue;
    }
    if (conn.unread) {
      ReadAvailable(done.fd, conn);
    } else {
      Advance(done.fd, conn);
    }
  }
  taken_.clear();
}

void Shard::HandleEvent(const epoll_event& ev) {
  const int fd = ev.data.fd;
  if (fd == listen_fd_) {
    AcceptBurst();
    return;
  }
  if (fd == wake_fd_) {
    std::uint64_t count;  // one read resets the eventfd counter
    [[maybe_unused]] ssize_t n = ::read(wake_fd_, &count, sizeof count);
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

void Shard::Run() {
  epoll_event events[kMaxEvents];
  while (!shared_.stopping.load(std::memory_order_relaxed)) {
    const int timeout = wheel_.NextDelayMs(Clock::now(), /*cap_ms=*/100);
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout);
    for (int i = 0; i < n; ++i) HandleEvent(events[i]);
    TakeCompletions();
    wheel_.Advance(Clock::now(),
                   [this](const TimerWheel::Entry& e) { OnTimer(e); });
  }
  Drain();
}

void Shard::Drain() {
  // Stop accepting.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Wake-ups, flushes and completions only: no new request is read.
  auto pump = [this] {
    epoll_event events[kMaxEvents];
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, 10);
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        HandleEvent(events[i]);
        continue;
      }
      auto it = conns_.find(fd);
      if (it != conns_.end() && (events[i].events & EPOLLOUT) &&
          !it->second.out.empty()) {
        Flush(fd, it->second);
      }
    }
    TakeCompletions();
  };
  // Serve everything already admitted: stopping makes each response
  // Connection: close, so served connections wind down by themselves.
  while (in_flight_ > 0) pump();
  // Give peers a bounded window to absorb the final responses.
  const auto deadline = Clock::now() + kDrainFlushBudget;
  for (;;) {
    bool unflushed = false;
    for (const auto& [fd, conn] : conns_) {
      if (conn.out_off < conn.out.size()) unflushed = true;
    }
    if (!unflushed || Clock::now() >= deadline) break;
    pump();
  }
  // Sever whatever is left: idle keep-alives and mid-request connections.
  while (!conns_.empty()) CloseConn(conns_.begin()->first);
}

// ---------------------------------------------------------------------------
// EpollServer
// ---------------------------------------------------------------------------

EpollServer::EpollServer(GatewayShared& shared)
    : shared_(shared), handlers_(std::make_unique<HandlerPool>(shared)) {}

EpollServer::~EpollServer() = default;

StatusOr<int> EpollServer::Start() {
  const std::size_t shard_count = shared_.config.event_shards > 0
                                      ? shared_.config.event_shards
                                      : shared_.config.workers;
  int port = shared_.config.port;
  for (std::size_t i = 0; i < shard_count; ++i) {
    auto shard = std::make_unique<Shard>(shared_, *handlers_);
    int bound = 0;
    // Shard 0 resolves port 0 to a concrete port; the rest must share it.
    if (Status st = shard->Open(port, &bound); !st.ok()) {
      shards_.clear();
      return st;
    }
    port = bound;
    shards_.push_back(std::move(shard));
  }
  handlers_->Spawn(shared_.config.workers);
  for (auto& shard : shards_) shard->Spawn();
  return port;
}

void EpollServer::Stop() {
  shared_.stopping.store(true);
  for (auto& shard : shards_) shard->Wake();
  // Shards drain first (their admitted requests need the handlers), then
  // the handlers find an empty queue and exit.
  for (auto& shard : shards_) shard->Join();
  handlers_->Join();
}

std::vector<ShardStats> EpollServer::shard_stats() const {
  std::vector<ShardStats> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) out.push_back(shard->Snapshot());
  return out;
}

}  // namespace joza::gateway::internal
