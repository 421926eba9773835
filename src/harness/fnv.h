// Byte-wise 64-bit FNV-1a: the chaos verdict and explorer state digests,
// the invariant checker's corrupted-frame keys and ShardDirector's ring.
#pragma once

#include <cstdint>
#include <string_view>

#include "net/bytes.h"

namespace sttcp::harness {

/// The FNV-1a offset basis (ShardDirector's ring).
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
/// The seed of the run digests and corrupted-frame keys: the offset basis's
/// decimal form, 14695981039346656037, short of its last digit. Kept as it
/// is, since every digest value depends on it.
constexpr std::uint64_t kDigestSeed = 1469598103934665603ull;

/// Fold `bytes` into `h`, one byte at a time.
inline std::uint64_t fnv_mix(std::uint64_t h, net::BytesView bytes) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Fold a string's bytes.
inline std::uint64_t fnv_mix(std::uint64_t h, std::string_view s) {
  return fnv_mix(h, net::BytesView(reinterpret_cast<const std::uint8_t*>(s.data()),
                                   s.size()));
}

/// Fold a value's eight bytes, least significant first (the same on any
/// host).
inline std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace sttcp::harness
