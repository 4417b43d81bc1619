// Keep-alive HTTP client for driving the gateway from tests, benches and
// examples.
//
// The client holds a persistent HTTP/1.1 connection, reads responses by
// Content-Length, and transparently reconnects when the server closed the
// connection (drain, per-connection request cap, idle timeout). One client
// per thread — instances are not thread-safe, by design: a load generator
// runs many clients, not one shared one.
#pragma once

#include <string>
#include <string_view>

#include "http/request.h"
#include "util/status.h"

namespace joza::gateway {

// Serializes a workload request into raw HTTP/1.1 bytes (GET query string
// or x-www-form-urlencoded POST body, cookies, keep-alive header).
std::string SerializeRequest(const http::Request& request, bool keep_alive);

// Writes all of `data`, looping over partial sends; EINTR is retried and a
// disconnected peer yields EPIPE (MSG_NOSIGNAL), never a SIGPIPE.
Status SendAll(int fd, std::string_view data);

// Status code and body of one response.
struct Reply {
  int status = 0;
  std::string body;
};

class KeepAliveClient {
 public:
  explicit KeepAliveClient(int port) : port_(port) {}
  ~KeepAliveClient() { Close(); }

  KeepAliveClient(const KeepAliveClient&) = delete;
  KeepAliveClient& operator=(const KeepAliveClient&) = delete;

  // Round-trips one request; reconnects once if the pooled connection was
  // closed under us (races with server-side idle close are benign).
  StatusOr<Reply> Get(const std::string& path_and_query);
  StatusOr<Reply> Send(const http::Request& request);

  // Raw variant: ships exactly `raw` and returns the raw response text.
  StatusOr<std::string> RoundTrip(const std::string& raw);

  void Close();
  std::size_t reconnects() const { return reconnects_; }

 private:
  Status EnsureConnected();
  StatusOr<std::string> TryRoundTrip(const std::string& raw);
  StatusOr<std::string> ReadOneResponse();
  StatusOr<Reply> Finish(StatusOr<std::string> raw);

  int port_;
  int fd_ = -1;
  std::string buf_;  // bytes past the previous response (pipelining slack)
  std::size_t reconnects_ = 0;
};

}  // namespace joza::gateway
