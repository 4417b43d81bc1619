#include "http/request_parser.h"

#include <cstdlib>

#include "util/strings.h"

namespace joza::http {

std::optional<std::string_view> FindHeader(std::string_view head,
                                           std::string_view name) {
  std::size_t pos = head.find("\r\n");  // skip the start line
  while (pos != std::string_view::npos) {
    pos += 2;
    std::size_t end = head.find("\r\n", pos);
    const std::string_view line = head.substr(
        pos, end == std::string_view::npos ? std::string_view::npos
                                           : end - pos);
    if (line.empty()) break;
    const std::size_t colon = line.find(':');
    if (colon != std::string_view::npos &&
        EqualsIgnoreCase(Trim(line.substr(0, colon)), name)) {
      return Trim(line.substr(colon + 1));
    }
    pos = end;
  }
  return std::nullopt;
}

bool RequestParser::Feed(std::string_view bytes) {
  if (overflowed_) return false;
  buffer_.append(bytes.data(), bytes.size());
  Scan();
  return !overflowed_;
}

void RequestParser::Scan() {
  if (overflowed_ || total_ != npos_) return;
  if (header_end_ == npos_) {
    // Resume the terminator search just before the previously scanned tail
    // so a "\r\n\r\n" split across feeds is still found.
    const std::size_t from = scan_from_ > 3 ? scan_from_ - 3 : 0;
    header_end_ = buffer_.find("\r\n\r\n", from);
    scan_from_ = buffer_.size();
    if (header_end_ == npos_) {
      // An unterminated header block larger than the whole-request cap is
      // hostile.
      if (buffer_.size() > max_request_bytes_) overflowed_ = true;
      return;
    }
  }
  std::size_t content_length = 0;
  const std::optional<std::string_view> declared = FindHeader(
      std::string_view(buffer_).substr(0, header_end_), "content-length");
  if (declared) {
    // The value points into buffer_ and is followed by CRLF, so strtoul
    // stops inside it.
    content_length = static_cast<std::size_t>(
        std::strtoul(declared->data(), nullptr, 10));
    if (content_length > max_request_bytes_ ||
        header_end_ + 4 + content_length > max_request_bytes_) {
      overflowed_ = true;
      return;
    }
  }
  total_ = header_end_ + 4 + content_length;
}

bool RequestParser::Next(std::string* raw) {
  if (overflowed_) return false;
  Scan();
  if (total_ == npos_ || buffer_.size() < total_) return false;
  raw->assign(buffer_, 0, total_);
  buffer_.erase(0, total_);
  header_end_ = npos_;
  total_ = npos_;
  scan_from_ = 0;
  Scan();  // pipelined leftovers: frame the next request immediately
  return true;
}

}  // namespace joza::http
