#include "resilience/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "resilience/injector.h"
#include "util/hash.h"

namespace joza::resilience {

namespace {

void PutU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

// Bounds-checked little-endian reads; false = truncated image.
bool GetU64(std::string_view image, std::size_t& pos, std::uint64_t& v) {
  if (image.size() - pos < 8) return false;
  v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(image[pos + i]))
         << (8 * i);
  }
  pos += 8;
  return true;
}

bool GetU32(std::string_view image, std::size_t& pos, std::uint32_t& v) {
  if (image.size() - pos < 4) return false;
  v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(
             static_cast<unsigned char>(image[pos + i]))
         << (8 * i);
  }
  pos += 4;
  return true;
}

bool GetBytes(std::string_view image, std::size_t& pos, std::size_t len,
              std::string_view& out) {
  if (image.size() - pos < len) return false;
  out = image.substr(pos, len);
  pos += len;
  return true;
}

}  // namespace

std::string EncodeRulesetSnapshot(const php::FragmentSet& fragments,
                                  std::uint64_t version) {
  std::string out;
  out.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  PutU64(out, version);
  PutU64(out, fragments.fragments().size());
  for (const php::Fragment& f : fragments.fragments()) {
    PutU32(out, static_cast<std::uint32_t>(f.text.size()));
    out.append(f.text);
    PutU32(out, static_cast<std::uint32_t>(f.source_path.size()));
    out.append(f.source_path);
    PutU64(out, f.line);
  }
  PutU64(out, Fnv1a64(out));
  return out;
}

StatusOr<RulesetSnapshotData> ParseRulesetSnapshot(std::string_view image) {
  constexpr std::size_t kHeader = sizeof(kSnapshotMagic) + 8 + 8;
  constexpr std::size_t kTrailer = 8;  // checksum
  if (image.size() < kHeader + kTrailer) {
    return Status::ParseError("snapshot truncated: " +
                              std::to_string(image.size()) + " bytes");
  }
  if (std::memcmp(image.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Status::ParseError("snapshot magic mismatch (format skew?)");
  }
  // Checksum covers everything before the trailing 8 bytes. Verify first so
  // a bit flip anywhere — including in the length fields the decoder below
  // trusts for allocation sizing — is caught before decoding.
  const std::string_view body = image.substr(0, image.size() - kTrailer);
  std::size_t tail_pos = image.size() - kTrailer;
  std::uint64_t stored_sum = 0;
  GetU64(image, tail_pos, stored_sum);
  if (Fnv1a64(body) != stored_sum) {
    return Status::ParseError("snapshot checksum mismatch");
  }

  std::size_t pos = sizeof(kSnapshotMagic);
  RulesetSnapshotData data;
  std::uint64_t count = 0;
  if (!GetU64(body, pos, data.version) || !GetU64(body, pos, count)) {
    return Status::ParseError("snapshot header truncated");
  }
  // A count that cannot fit in the remaining bytes is corruption even if
  // the checksum matched (malicious construction) — refuse before looping.
  if (count > (body.size() - pos) / (4 + 4 + 8)) {
    return Status::ParseError("snapshot fragment count implausible: " +
                              std::to_string(count));
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint32_t text_len = 0, path_len = 0;
    std::uint64_t line = 0;
    std::string_view text, path;
    if (!GetU32(body, pos, text_len) || !GetBytes(body, pos, text_len, text) ||
        !GetU32(body, pos, path_len) || !GetBytes(body, pos, path_len, path) ||
        !GetU64(body, pos, line)) {
      return Status::ParseError("snapshot fragment " + std::to_string(i) +
                                " truncated");
    }
    data.fragments.AddRaw(text, path, static_cast<std::size_t>(line));
  }
  if (pos != body.size()) {
    return Status::ParseError("snapshot has trailing garbage");
  }
  return data;
}

Status SaveRulesetSnapshot(const std::string& path,
                           const php::FragmentSet& fragments,
                           std::uint64_t version) {
  const std::string image = EncodeRulesetSnapshot(fragments, version);
  const std::string tmp = path + ".tmp";

  if (FaultInjector::Global().ShouldFire(FaultPoint::kSnapshotIo)) {
    ::unlink(tmp.c_str());
    return Status::Unavailable("injected snapshot I/O failure");
  }

  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Unavailable("snapshot open failed: " +
                               std::string(std::strerror(errno)));
  }
  std::size_t off = 0;
  while (off < image.size()) {
    const ssize_t n = ::write(fd, image.data() + off, image.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::Unavailable("snapshot write failed: " +
                                 std::string(std::strerror(saved)));
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::Unavailable("snapshot fsync failed: " +
                               std::string(std::strerror(saved)));
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return Status::Unavailable("snapshot close failed: " +
                               std::string(std::strerror(errno)));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int saved = errno;
    ::unlink(tmp.c_str());
    return Status::Unavailable("snapshot rename failed: " +
                               std::string(std::strerror(saved)));
  }
  return Status::Ok();
}

std::string TenantSnapshotPath(const std::string& base,
                               std::string_view tenant) {
  std::string path = base;
  path += '.';
  path.append(tenant);
  return path;
}

StatusOr<RulesetSnapshotData> LoadRulesetSnapshot(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound("no snapshot at " + path + ": " +
                            std::string(std::strerror(errno)));
  }
  std::string image;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      return Status::Unavailable("snapshot read failed: " +
                                 std::string(std::strerror(saved)));
    }
    if (n == 0) break;
    image.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return ParseRulesetSnapshot(image);
}

}  // namespace joza::resilience
