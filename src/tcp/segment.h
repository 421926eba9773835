// TCP segment representation and byte-exact codec (20-byte header, no
// options), checksummed with the standard pseudo-header. Every segment,
// retransmissions included, is checksummed in full as it is written.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "net/addr.h"
#include "net/bytes.h"
#include "tcp/seq.h"

namespace sttcp::tcp {

struct TcpFlags {
  bool syn = false;
  bool ack = false;
  bool fin = false;
  bool rst = false;
  bool psh = false;

  std::string str() const;
};

struct TcpSegment {
  static constexpr std::size_t kHeaderSize = 20;

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  SeqWire seq = 0;
  SeqWire ack = 0;
  TcpFlags flags;
  std::uint16_t window = 0;
  /// A parsed segment's payload is a view into the frame it arrived in
  /// (net/frame.h): valid while that frame is alive, which covers the whole
  /// receive call. Whoever keeps a segment longer keeps its frame too.
  net::BytesView payload;

  /// Sequence space the segment occupies (payload + SYN + FIN).
  std::uint32_t seq_len() const {
    return static_cast<std::uint32_t>(payload.size()) + (flags.syn ? 1 : 0) +
           (flags.fin ? 1 : 0);
  }

  /// Write the header and `data` as the payload (two spans, written back
  /// to back; the `payload` field is not used) into `out`, which is exactly
  /// kHeaderSize plus the payload long, and checksum it there. This is how
  /// a frame is built in place: the stack passes the L4 region of a fresh
  /// frame and the send queue's bytes.
  void write(std::span<std::uint8_t> out, net::Ipv4Addr src_ip, net::Ipv4Addr dst_ip,
             std::pair<net::BytesView, net::BytesView> data) const;

  /// Header + `payload` with a valid checksum, as a fresh buffer (tests and
  /// benchmarks; the stack writes segments in place via write()).
  net::Bytes serialize(net::Ipv4Addr src_ip, net::Ipv4Addr dst_ip) const;

  /// Parse and (optionally) verify the checksum. Returns nullopt on a
  /// malformed or corrupt segment.
  static std::optional<TcpSegment> parse(net::Ipv4Addr src_ip, net::Ipv4Addr dst_ip,
                                         net::BytesView data, bool verify_checksum);

  /// Compact rendering for logs: "SYN|ACK seq=x ack=y len=n win=w".
  std::string str() const;
};

}  // namespace sttcp::tcp
