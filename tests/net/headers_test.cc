#include "net/headers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "net/checksum.h"

namespace sttcp::net {
namespace {

TEST(AddrTest, MacFormatsAndFlags) {
  const MacAddr m = MacAddr::from_u64(0x0200deadbeefull);
  EXPECT_EQ(m.str(), "02:00:de:ad:be:ef");
  EXPECT_FALSE(m.is_group());
  EXPECT_TRUE(MacAddr::broadcast().is_group());
  EXPECT_TRUE(MacAddr::multicast_group(1).is_group());
  EXPECT_EQ(m.to_u64(), 0x0200deadbeefull);
}

TEST(AddrTest, MulticastGroupsDistinct) {
  EXPECT_NE(MacAddr::multicast_group(1), MacAddr::multicast_group(2));
  EXPECT_EQ(MacAddr::multicast_group(7), MacAddr::multicast_group(7));
}

TEST(AddrTest, Ipv4Formats) {
  const Ipv4Addr a(192, 168, 1, 10);
  EXPECT_EQ(a.str(), "192.168.1.10");
  EXPECT_EQ(Ipv4Addr(a.value()), a);
  EXPECT_TRUE(Ipv4Addr().is_zero());
  const SocketAddr sa{a, 80};
  EXPECT_EQ(sa.str(), "192.168.1.10:80");
}

TEST(EthernetHeaderTest, RoundTrip) {
  Bytes buf;
  ByteWriter w(buf);
  EthernetHeader h{MacAddr::from_u64(1), MacAddr::from_u64(2), kEtherTypeIpv4};
  h.write(w);
  ASSERT_EQ(buf.size(), EthernetHeader::kSize);
  ByteReader r(buf);
  const EthernetHeader parsed = EthernetHeader::read(r);
  EXPECT_EQ(parsed.dst, h.dst);
  EXPECT_EQ(parsed.src, h.src);
  EXPECT_EQ(parsed.ethertype, kEtherTypeIpv4);
}

TEST(Ipv4HeaderTest, RoundTripWithChecksum) {
  Bytes buf;
  ByteWriter w(buf);
  Ipv4Header h;
  h.protocol = kIpProtoTcp;
  h.src = Ipv4Addr(10, 0, 0, 1);
  h.dst = Ipv4Addr(10, 0, 0, 2);
  h.write(w, 100);
  ASSERT_EQ(buf.size(), Ipv4Header::kSize);
  ByteReader r(buf);
  const Ipv4Header parsed = Ipv4Header::read(r);
  EXPECT_EQ(parsed.src, h.src);
  EXPECT_EQ(parsed.dst, h.dst);
  EXPECT_EQ(parsed.protocol, kIpProtoTcp);
  EXPECT_EQ(parsed.total_length, Ipv4Header::kSize + 100);
}

TEST(Ipv4HeaderTest, CorruptionDetected) {
  Bytes buf;
  ByteWriter w(buf);
  Ipv4Header h;
  h.protocol = kIpProtoUdp;
  h.src = Ipv4Addr(10, 0, 0, 1);
  h.dst = Ipv4Addr(10, 0, 0, 2);
  h.write(w, 8);
  buf[16] ^= 0x40;  // corrupt destination address
  ByteReader r(buf);
  EXPECT_THROW(Ipv4Header::read(r), std::runtime_error);
}

TEST(IcmpEchoTest, RoundTripAndChecksum) {
  const IcmpEcho e{IcmpType::kEchoRequest, 0x1234, 7};
  Bytes b(IcmpEcho::kSize);
  e.write(b);
  auto parsed = IcmpEcho::parse(b);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->id, 0x1234);
  EXPECT_EQ(parsed->seq, 7);
  EXPECT_EQ(parsed->type, IcmpType::kEchoRequest);
  Bytes corrupt = b;
  corrupt[4] ^= 0xff;
  EXPECT_FALSE(IcmpEcho::parse(corrupt).has_value());
}

/// A UDP datagram built in place the way Host::udp_send_frame builds it.
Frame udp_frame(std::uint16_t src_port, std::uint16_t dst_port, BytesView payload) {
  const Ipv4Addr src(10, 0, 0, 1), dst(10, 0, 0, 2);
  Frame frame = Frame::allocate(kUdpFrameHeaderSize + payload.size());
  const std::span<std::uint8_t> bytes = frame.writable();
  std::copy(payload.begin(), payload.end(), bytes.begin() + kUdpFrameHeaderSize);
  write_udp_header(bytes.subspan(kIpFrameHeaderSize), src, dst, src_port, dst_port);
  write_ip_headers(bytes, MacAddr::from_u64(0xb), MacAddr::from_u64(0xa), src, dst,
                   kIpProtoUdp);
  return frame;
}

TEST(FrameTest, UdpFrameRoundTrip) {
  const Bytes payload = to_bytes("hello heartbeats");
  const Frame frame = udp_frame(5000, 6000, payload);
  const ParsedFrame p = parse_frame(frame.view());
  EXPECT_EQ(p.eth.dst, MacAddr::from_u64(0xb));
  ASSERT_TRUE(p.ip.has_value());
  EXPECT_EQ(p.ip->protocol, kIpProtoUdp);
  ByteReader r(p.l4);
  const UdpHeader uh = UdpHeader::read(r);
  EXPECT_EQ(uh.src_port, 5000);
  EXPECT_EQ(uh.dst_port, 6000);
  EXPECT_EQ(uh.length, UdpHeader::kSize + payload.size());
  const BytesView got = r.rest();
  EXPECT_TRUE(std::equal(got.begin(), got.end(), payload.begin(), payload.end()));
  // The UDP checksum (with pseudo-header) must verify.
  EXPECT_EQ(transport_checksum(p.ip->src, p.ip->dst, kIpProtoUdp, p.l4), 0);
}

TEST(FrameTest, TruncatedFrameThrows) {
  const Frame frame = udp_frame(1, 2, to_bytes("x"));
  Bytes cut(frame.begin(), frame.begin() + 20);
  EXPECT_THROW(parse_frame(cut), std::exception);
}

TEST(FrameTest, UdpPayloadPastTheIpv4LimitThrowsInsteadOfWrapping) {
  // 65,507 payload bytes fill the 16-bit IPv4 total_length exactly; one
  // more would wrap it, and the peer would drop the datagram on its
  // checksum.
  const Bytes largest(kMaxUdpPayload, 0x5a);
  const Frame frame = udp_frame(1, 2, largest);
  const ParsedFrame p = parse_frame(frame.view());
  EXPECT_EQ(p.ip->total_length, 65'535);
  EXPECT_EQ(p.l4.size(), UdpHeader::kSize + kMaxUdpPayload);
  EXPECT_EQ(transport_checksum(p.ip->src, p.ip->dst, kIpProtoUdp, p.l4), 0);
  EXPECT_THROW(udp_frame(1, 2, Bytes(kMaxUdpPayload + 1, 0x5a)), std::length_error);
}

}  // namespace
}  // namespace sttcp::net
