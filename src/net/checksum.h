// RFC 1071 Internet checksum, including the TCP/UDP pseudo-header form.
#pragma once

#include <cstdint>

#include "net/addr.h"
#include "net/bytes.h"

namespace sttcp::net {

/// One's-complement sum accumulator. Feed spans, then `finish()`.
///
/// The sum lives in a uint64: 16-bit big-endian words are accumulated
/// without intermediate folding (safe for spans up to ~2^48 bytes), and the
/// carries are folded once in finish(). Word-aligned fields added while no
/// odd dangling byte is pending skip the byte path entirely.
class ChecksumAccumulator {
 public:
  void add(BytesView data);
  void add_u16(std::uint16_t v) {
    if (!odd_) {
      sum_ += v;
      return;
    }
    const std::uint8_t b[2] = {static_cast<std::uint8_t>(v >> 8),
                               static_cast<std::uint8_t>(v)};
    add(BytesView(b, 2));
  }
  void add_u32(std::uint32_t v) {
    if (!odd_) {
      sum_ += (v >> 16) + (v & 0xffff);
      return;
    }
    add_u16(static_cast<std::uint16_t>(v >> 16));
    add_u16(static_cast<std::uint16_t>(v));
  }
  /// Final one's-complement checksum, ready to store in a header field.
  std::uint16_t finish() const;

 private:
  std::uint64_t sum_ = 0;
  bool odd_ = false;  // dangling high byte from an odd-length span
};

/// Checksum of a single contiguous buffer.
std::uint16_t internet_checksum(BytesView data);

/// TCP/UDP checksum over pseudo-header + transport segment.
/// `protocol` is the IP protocol number (6 = TCP, 17 = UDP).
std::uint16_t transport_checksum(Ipv4Addr src, Ipv4Addr dst, std::uint8_t protocol,
                                 BytesView segment);

}  // namespace sttcp::net
