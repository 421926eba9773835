// Byte-exact codecs for the L2-L4 headers used in the simulation:
// Ethernet II, IPv4 (no options), UDP, and ICMP echo.
//
// The TCP header codec lives in src/tcp/segment.h next to the TCP machinery;
// it uses the same ByteWriter/ByteReader and transport_checksum helpers.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "net/addr.h"
#include "net/bytes.h"
#include "net/frame.h"

namespace sttcp::net {

// EtherType values.
inline constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;

// IP protocol numbers.
inline constexpr std::uint8_t kIpProtoIcmp = 1;
inline constexpr std::uint8_t kIpProtoTcp = 6;
inline constexpr std::uint8_t kIpProtoUdp = 17;

struct EthernetHeader {
  static constexpr std::size_t kSize = 14;
  MacAddr dst;
  MacAddr src;
  std::uint16_t ethertype = kEtherTypeIpv4;

  void write(ByteWriter& w) const;
  static EthernetHeader read(ByteReader& r);
};

struct Ipv4Header {
  static constexpr std::size_t kSize = 20;  // no options
  std::uint8_t tos = 0;
  std::uint16_t total_length = 0;  // filled by serializer
  std::uint16_t identification = 0;
  std::uint8_t ttl = 64;
  std::uint8_t protocol = 0;
  std::uint16_t checksum = 0;  // filled by serializer
  Ipv4Addr src;
  Ipv4Addr dst;

  /// Writes the header with length/checksum computed for `payload_len`.
  void write(ByteWriter& w, std::size_t payload_len) const;
  /// Parses and verifies the header checksum (throws on corruption).
  static Ipv4Header read(ByteReader& r);
};

struct UdpHeader {
  static constexpr std::size_t kSize = 8;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t length = 0;    // filled by serializer
  std::uint16_t checksum = 0;  // filled by serializer

  void write(ByteWriter& w, std::size_t payload_len) const;
  static UdpHeader read(ByteReader& r);
};

enum class IcmpType : std::uint8_t { kEchoReply = 0, kEchoRequest = 8 };

struct IcmpEcho {
  static constexpr std::size_t kSize = 8;  // echo header, no payload
  IcmpType type = IcmpType::kEchoRequest;
  std::uint16_t id = 0;
  std::uint16_t seq = 0;

  /// Writes type/code/checksum/id/seq into the first kSize bytes of `out`
  /// (an ICMP frame's L4 region, built in place).
  void write(std::span<std::uint8_t> out) const;
  static std::optional<IcmpEcho> parse(BytesView data);
};

/// Ethernet + IPv4 header bytes in front of every L4 segment in a frame.
inline constexpr std::size_t kIpFrameHeaderSize = EthernetHeader::kSize + Ipv4Header::kSize;

/// Fill the first kIpFrameHeaderSize bytes of `frame` -- header room left in
/// front of an L4 segment in a frame being built in place -- with the
/// Ethernet and IPv4 headers for that segment (everything past the room).
void write_ip_headers(std::span<std::uint8_t> frame, MacAddr eth_dst, MacAddr eth_src,
                      Ipv4Addr ip_src, Ipv4Addr ip_dst, std::uint8_t protocol);

/// Ethernet + IPv4 + UDP header bytes in front of a UDP payload in a frame.
inline constexpr std::size_t kUdpFrameHeaderSize = kIpFrameHeaderSize + UdpHeader::kSize;
/// Largest UDP payload one IPv4 datagram holds: the 16-bit total_length
/// (65,535) less the IPv4 and UDP headers.
inline constexpr std::size_t kMaxUdpPayload = 65'535 - Ipv4Header::kSize - UdpHeader::kSize;

/// Fill the UDP header of `segment` -- a UDP segment being built in place
/// (header room, then the payload the caller already wrote) -- including the
/// pseudo-header checksum over the whole segment. Throws std::length_error
/// when the payload exceeds kMaxUdpPayload, where the length fields would
/// wrap.
void write_udp_header(std::span<std::uint8_t> segment, Ipv4Addr ip_src, Ipv4Addr ip_dst,
                      std::uint16_t src_port, std::uint16_t dst_port);

/// Parsed view of a received frame (headers by value, payload as offsets into
/// the original buffer — callers keep the frame alive while using it).
struct ParsedFrame {
  EthernetHeader eth;
  std::optional<Ipv4Header> ip;     // present when ethertype is IPv4
  BytesView l4;                     // transport segment (header + payload)
};

/// Parses a frame. Throws std::out_of_range / std::runtime_error on
/// malformed input (a simulator bug, not expected in operation).
ParsedFrame parse_frame(BytesView frame);

}  // namespace sttcp::net
