#include "gateway/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "http/request_parser.h"
#include "util/codec.h"
#include "util/strings.h"

namespace joza::gateway {

Status SendAll(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    // MSG_NOSIGNAL: a peer that disconnected mid-request must surface as
    // EPIPE here, not as a process-wide SIGPIPE.
    ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(std::string("send(): ") +
                                 std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

std::string SerializeRequest(const http::Request& request, bool keep_alive) {
  std::string query;
  for (const http::Input& p : request.get_params) {
    query += query.empty() ? "?" : "&";
    query += UrlEncode(p.name) + "=" + UrlEncode(p.value);
  }
  std::string body;
  for (const http::Input& p : request.post_params) {
    if (!body.empty()) body += "&";
    body += UrlEncode(p.name) + "=" + UrlEncode(p.value);
  }
  std::string raw = request.method + " " + request.path + query + " HTTP/1.1\r\n";
  raw += "Host: localhost\r\n";
  for (const http::Input& h : request.headers) {
    raw += h.name + ": " + h.value + "\r\n";
  }
  if (!request.cookies.empty()) {
    raw += "Cookie: ";
    for (std::size_t i = 0; i < request.cookies.size(); ++i) {
      if (i > 0) raw += "; ";
      raw += request.cookies[i].name + "=" + request.cookies[i].value;
    }
    raw += "\r\n";
  }
  if (!body.empty()) {
    raw += "Content-Type: application/x-www-form-urlencoded\r\n";
    raw += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  raw += keep_alive ? "Connection: keep-alive\r\n\r\n"
                    : "Connection: close\r\n\r\n";
  raw += body;
  return raw;
}

void KeepAliveClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buf_.clear();
}

Status KeepAliveClient::EnsureConnected() {
  if (fd_ >= 0) return Status::Ok();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Status::Unavailable("socket()");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port_));
  while (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
         0) {
    if (errno == EINTR || errno == EALREADY) continue;
    if (errno == EISCONN) break;
    ::close(fd_);
    fd_ = -1;
    return Status::Unavailable(std::string("connect(): ") +
                               std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  buf_.clear();
  return Status::Ok();
}

StatusOr<std::string> KeepAliveClient::ReadOneResponse() {
  std::size_t header_end = buf_.find("\r\n\r\n");
  char chunk[4096];
  while (header_end == std::string::npos) {
    ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(std::string("recv(): ") +
                                 std::strerror(errno));
    }
    if (n == 0) return Status::NotFound("server closed connection");
    buf_.append(chunk, static_cast<std::size_t>(n));
    header_end = buf_.find("\r\n\r\n");
  }
  std::size_t content_length = 0;
  const std::optional<std::string_view> declared = http::FindHeader(
      std::string_view(buf_).substr(0, header_end), "content-length");
  if (declared) {
    // The value points into buf_ and is followed by CRLF.
    content_length = static_cast<std::size_t>(
        std::strtoul(declared->data(), nullptr, 10));
  }
  const std::size_t total = header_end + 4 + content_length;
  while (buf_.size() < total) {
    ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable("recv() during response body");
    }
    if (n == 0) return Status::Unavailable("connection closed mid-response");
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
  std::string response = buf_.substr(0, total);
  buf_.erase(0, total);
  return response;
}

StatusOr<std::string> KeepAliveClient::TryRoundTrip(const std::string& raw) {
  if (Status st = EnsureConnected(); !st.ok()) return st;
  if (Status st = SendAll(fd_, raw); !st.ok()) {
    Close();
    return st;
  }
  auto response = ReadOneResponse();
  if (!response.ok()) Close();
  return response;
}

StatusOr<std::string> KeepAliveClient::RoundTrip(const std::string& raw) {
  const bool had_connection = fd_ >= 0;
  auto response = TryRoundTrip(raw);
  if (response.ok() || !had_connection) return response;
  // The pooled connection was stale (server closed it between requests):
  // reconnect once and retry.
  ++reconnects_;
  return TryRoundTrip(raw);
}

StatusOr<Reply> KeepAliveClient::Finish(StatusOr<std::string> raw) {
  if (!raw.ok()) return raw.status();
  const std::string& text = raw.value();
  Reply out;
  const std::size_t sp = text.find(' ');
  if (sp == std::string::npos) return Status::ParseError("bad status line");
  out.status = std::atoi(text.c_str() + sp + 1);
  const std::size_t body = text.find("\r\n\r\n");
  if (body != std::string::npos) out.body = text.substr(body + 4);
  // Respect a server-side close so the next call reconnects cleanly.
  const std::optional<std::string_view> connection = http::FindHeader(
      std::string_view(text).substr(0, body), "connection");
  if (connection && ContainsIgnoreCase(*connection, "close")) Close();
  return out;
}

StatusOr<Reply> KeepAliveClient::Send(const http::Request& request) {
  return Finish(RoundTrip(SerializeRequest(request, true)));
}

StatusOr<Reply> KeepAliveClient::Get(const std::string& path_and_query) {
  return Finish(RoundTrip("GET " + path_and_query +
                          " HTTP/1.1\r\nHost: localhost\r\n"
                          "Connection: keep-alive\r\n\r\n"));
}

}  // namespace joza::gateway
