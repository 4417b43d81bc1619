// Hashing for the safety caches, the structure hash and file checksums.
//
// Fnv1a64 is the byte-at-a-time hash: stable across builds (snapshot
// checksums, the structure hash, db/). WordHash64 is the query-cache key:
// it reads eight bytes per load and folds sixteen per 64×64→128-bit
// multiply, so a query costs one dependent multiply per 16 bytes instead
// of one per byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace joza {

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

constexpr std::uint64_t Fnv1a64(std::string_view data,
                                std::uint64_t seed = kFnvOffset) {
  std::uint64_t h = seed;
  for (char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

constexpr std::uint64_t HashCombine(std::uint64_t h, std::uint64_t v) {
  // Mix the value through the FNV prime and a xorshift to avoid clustering.
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

namespace hash_detail {

// The full 128-bit product, folded to 64 bits by XOR of its halves.
inline std::uint64_t MulFold(std::uint64_t a, std::uint64_t b) {
  const unsigned __int128 p = static_cast<unsigned __int128>(a) * b;
  return static_cast<std::uint64_t>(p) ^ static_cast<std::uint64_t>(p >> 64);
}

inline std::uint64_t Load64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline std::uint64_t Load32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// Odd 64-bit constants with balanced bits (those of wyhash).
inline constexpr std::uint64_t kMix0 = 0xa0761d6478bd642full;
inline constexpr std::uint64_t kMix1 = 0xe7037ed1a0b428dbull;
inline constexpr std::uint64_t kMix2 = 0x8ebc6af09c88c6e3ull;

}  // namespace hash_detail

// Word-at-a-time 64-bit hash of `data` under `seed`. The running state
// enters both operands of every multiply, so no input word zeroes a product
// whatever came before it; the seed is public, though, so like Fnv1a64 it
// is not collision resistant against an adversary who knows the seed.
inline std::uint64_t WordHash64(std::string_view data, std::uint64_t seed) {
  using namespace hash_detail;
  const char* p = data.data();
  const std::size_t n = data.size();
  std::uint64_t h = seed ^ MulFold(seed ^ kMix0, kMix1);
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  if (n <= 16) {
    if (n >= 4) {
      // Two overlapping 4-byte pairs cover 4..16 bytes.
      const std::size_t mid = (n >> 3) << 2;
      a = (Load32(p) << 32) | Load32(p + mid);
      b = (Load32(p + n - 4) << 32) | Load32(p + n - 4 - mid);
    } else if (n > 0) {
      a = (std::uint64_t{static_cast<unsigned char>(p[0])} << 16) |
          (std::uint64_t{static_cast<unsigned char>(p[n >> 1])} << 8) |
          static_cast<unsigned char>(p[n - 1]);
    }
  } else {
    std::size_t left = n;
    for (; left > 16; left -= 16, p += 16) {
      h = MulFold(Load64(p) ^ kMix1 ^ h, Load64(p + 8) ^ kMix2 ^ h);
    }
    // The last 16 bytes, overlapping the last stripe when fewer are left.
    a = Load64(p + left - 16);
    b = Load64(p + left - 8);
  }
  return MulFold(MulFold(a ^ kMix1 ^ h, b ^ kMix2 ^ h) ^ kMix0, n ^ kMix1);
}

}  // namespace joza
