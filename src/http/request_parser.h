// Incremental HTTP/1.1 request framing for non-blocking sockets.
//
// The event-driven gateway reads whatever bytes the kernel has and must
// resume mid-request on the next readiness edge; this parser owns that
// state. Feed() appends raw bytes as they arrive (possibly one at a time,
// possibly several pipelined requests in one segment) and Next() extracts
// complete requests in order. A request is its headers up to the
// "\r\n\r\n" terminator plus Content-Length body bytes, and two
// hostile-client guards bound the buffer — an unterminated header block and
// a declared body may not exceed max_request_bytes (-> 413 upstream).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace joza::http {

// Value (trimmed) of the first header in `head` whose name, the text of a
// header line up to its colon, equals `name` ignoring case. `head` is a
// start line followed by header lines; scanning stops at a blank line.
// Text elsewhere — the start line, a longer name such as
// X-Content-Length, a value — never matches.
std::optional<std::string_view> FindHeader(std::string_view head,
                                           std::string_view name);

class RequestParser {
 public:
  explicit RequestParser(std::size_t max_request_bytes = 1u << 20)
      : max_request_bytes_(max_request_bytes) {}

  // Appends newly received bytes. Returns false iff the size cap tripped
  // (the connection should be answered 413 and closed); once overflowed
  // the parser stays in that state.
  bool Feed(std::string_view bytes);

  // Extracts the next complete request (headers + body, raw bytes) if one
  // is buffered. Call repeatedly: one Feed() may complete several
  // pipelined requests.
  bool Next(std::string* raw);

  bool overflowed() const { return overflowed_; }

  // A whole request is buffered: Next() would return it.
  bool has_complete() const {
    return !overflowed_ && total_ != npos_ && buffer_.size() >= total_;
  }

  // A started-but-incomplete request is at the front of the buffer: the
  // slowloris read deadline should be armed (at the first byte of a
  // request, never during idle keep-alive waits).
  bool has_partial() const {
    return !overflowed_ && !buffer_.empty() && !has_complete();
  }

 private:
  // Locates the front request's end (header terminator + declared body).
  void Scan();

  std::string buffer_;
  std::size_t header_end_ = npos_;  // offset of "\r\n\r\n" in buffer_
  std::size_t total_ = npos_;      // full byte length of the front request
  std::size_t scan_from_ = 0;      // resume point for the terminator search
  bool overflowed_ = false;
  std::size_t max_request_bytes_;

  static constexpr std::size_t npos_ = static_cast<std::size_t>(-1);
};

}  // namespace joza::http
