// The FNV-style fold behind every block-store digest: BlockDevice and
// LruBlockCache contents, BlockStoreServer's tx and state digests and
// BlockWorkload's outcome digest (docs/APPLICATION.md, "Digests").
#pragma once

#include <cstdint>

#include "net/bytes.h"

namespace sttcp::app {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// Fold one value into digest `d`.
constexpr std::uint64_t fold(std::uint64_t d, std::uint64_t v) {
  return (d ^ v) * kFnvPrime;
}

/// Fold bytes: every whole 8-byte word as one little-endian value, then each
/// byte of the tail. The words are assembled byte by byte, so the result is
/// the same on any host and at any alignment; compilers turn the assembly
/// into one load (plus a byte swap on a big-endian host).
inline std::uint64_t fold_bytes(std::uint64_t d, net::BytesView b) {
  std::size_t i = 0;
  for (; i + 8 <= b.size(); i += 8) {
    const std::uint8_t* p = b.data() + i;
    d = fold(d, std::uint64_t{p[0]} | std::uint64_t{p[1]} << 8 |
                    std::uint64_t{p[2]} << 16 | std::uint64_t{p[3]} << 24 |
                    std::uint64_t{p[4]} << 32 | std::uint64_t{p[5]} << 40 |
                    std::uint64_t{p[6]} << 48 | std::uint64_t{p[7]} << 56);
  }
  for (; i < b.size(); ++i) d = fold(d, b[i]);
  return d;
}

}  // namespace sttcp::app
