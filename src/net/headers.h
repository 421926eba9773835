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

/// Assembled Ethernet/IPv4/UDP datagram ready for the wire, built in place
/// in one frame.
Frame build_udp_frame(MacAddr eth_dst, MacAddr eth_src, Ipv4Addr ip_src,
                      Ipv4Addr ip_dst, std::uint16_t src_port, std::uint16_t dst_port,
                      BytesView payload);

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
