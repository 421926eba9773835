// Deterministic payload generator shared by servers, clients, tests and
// benches: byte i of the stream is a pure function of i, so any receiver can
// verify integrity at any offset — including across an ST-TCP failover,
// where the bytes before the crash came from the primary and the bytes
// after it from the backup.
//
// pattern_byte(o) depends only on o mod 65536: the low byte of o*131 is a
// function of bits 0-7 of o, and the low byte of o>>8 is bits 8-15. So one
// period stored twice back to back holds every window of up to one period at
// table + o % period, and generating or verifying the stream is a memcpy or
// memcmp against that table.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "net/bytes.h"

namespace sttcp::app {

constexpr std::uint8_t pattern_byte(std::uint64_t offset) {
  return static_cast<std::uint8_t>((offset * 131) ^ (offset >> 8));
}

/// The pattern repeats every kPatternPeriod bytes.
inline constexpr std::size_t kPatternPeriod = 65536;

namespace detail {
/// Two periods of pattern_byte back to back; constant-initialized in
/// pattern.cc, so it costs nothing at run time.
extern const std::array<std::uint8_t, 2 * kPatternPeriod> kPatternTable;
}  // namespace detail

/// Pattern bytes [offset, offset + n) as a view into the static table; valid
/// for the life of the process. Throws std::out_of_range if n > kPatternPeriod.
inline net::BytesView pattern_view(std::uint64_t offset, std::size_t n) {
  if (n > kPatternPeriod) throw std::out_of_range("pattern_view: n exceeds one period");
  return {detail::kPatternTable.data() + offset % kPatternPeriod, n};
}

inline net::Bytes pattern_bytes(std::uint64_t offset, std::size_t n) {
  net::Bytes b;
  b.reserve(n);
  while (b.size() < n) {
    const net::BytesView piece =
        pattern_view(offset + b.size(), std::min(n - b.size(), kPatternPeriod));
    b.insert(b.end(), piece.begin(), piece.end());
  }
  return b;
}

/// Verifies a chunk against the pattern; returns false on any mismatch.
inline bool pattern_verify(std::uint64_t offset, net::BytesView data) {
  for (std::size_t at = 0; at < data.size(); at += kPatternPeriod) {
    const std::size_t n = std::min(data.size() - at, kPatternPeriod);
    if (std::memcmp(data.data() + at, pattern_view(offset + at, n).data(), n) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace sttcp::app
