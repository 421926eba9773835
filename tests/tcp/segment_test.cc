#include "tcp/segment.h"

#include <gtest/gtest.h>

namespace sttcp::tcp {
namespace {

const net::Ipv4Addr kSrc(10, 0, 0, 1);
const net::Ipv4Addr kDst(10, 0, 0, 2);

TEST(SegmentTest, RoundTripDataSegment) {
  TcpSegment s;
  s.src_port = 49152;
  s.dst_port = 80;
  s.seq = 0xdeadbeef;
  s.ack = 0x12345678;
  s.flags.ack = true;
  s.flags.psh = true;
  s.window = 65535;
  const net::Bytes payload = net::to_bytes("GET / HTTP/1.0\r\n\r\n");
  s.payload = payload;
  const net::Bytes wire_bytes = s.serialize(kSrc, kDst);
  ASSERT_EQ(wire_bytes.size(), TcpSegment::kHeaderSize + s.payload.size());
  auto p = TcpSegment::parse(kSrc, kDst, wire_bytes, /*verify_checksum=*/true);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->src_port, 49152);
  EXPECT_EQ(p->dst_port, 80);
  EXPECT_EQ(p->seq, 0xdeadbeef);
  EXPECT_EQ(p->ack, 0x12345678);
  EXPECT_TRUE(p->flags.ack);
  EXPECT_TRUE(p->flags.psh);
  EXPECT_FALSE(p->flags.syn);
  EXPECT_EQ(p->window, 65535);
  EXPECT_EQ(net::to_bytes(p->payload), payload);
  // The parsed payload is a view into the wire bytes, not a copy.
  EXPECT_EQ(p->payload.data(), wire_bytes.data() + TcpSegment::kHeaderSize);
}

TEST(SegmentTest, AllFlagCombinationsRoundTrip) {
  for (int mask = 0; mask < 32; ++mask) {
    TcpSegment s;
    s.flags.syn = (mask & 1) != 0;
    s.flags.ack = (mask & 2) != 0;
    s.flags.fin = (mask & 4) != 0;
    s.flags.rst = (mask & 8) != 0;
    s.flags.psh = (mask & 16) != 0;
    auto p = TcpSegment::parse(kSrc, kDst, s.serialize(kSrc, kDst), true);
    ASSERT_TRUE(p.has_value()) << mask;
    EXPECT_EQ(p->flags.syn, s.flags.syn);
    EXPECT_EQ(p->flags.ack, s.flags.ack);
    EXPECT_EQ(p->flags.fin, s.flags.fin);
    EXPECT_EQ(p->flags.rst, s.flags.rst);
    EXPECT_EQ(p->flags.psh, s.flags.psh);
  }
}

TEST(SegmentTest, ChecksumCatchesPayloadCorruption) {
  TcpSegment s;
  const net::Bytes payload = net::to_bytes("data-to-protect");
  s.payload = payload;
  net::Bytes w = s.serialize(kSrc, kDst);
  w[TcpSegment::kHeaderSize + 3] ^= 0x20;
  EXPECT_FALSE(TcpSegment::parse(kSrc, kDst, w, true).has_value());
  // Parsing without verification still succeeds (corrupted content).
  EXPECT_TRUE(TcpSegment::parse(kSrc, kDst, w, false).has_value());
}

TEST(SegmentTest, ChecksumCoversPseudoHeader) {
  TcpSegment s;
  const net::Bytes payload = net::to_bytes("x");
  s.payload = payload;
  const net::Bytes w = s.serialize(kSrc, kDst);
  // Same bytes claimed to come from a different source IP must fail.
  EXPECT_FALSE(TcpSegment::parse(net::Ipv4Addr(10, 0, 0, 9), kDst, w, true).has_value());
}

TEST(SegmentTest, TruncatedBufferRejected) {
  TcpSegment s;
  const net::Bytes w = s.serialize(kSrc, kDst);
  for (std::size_t cut = 0; cut < TcpSegment::kHeaderSize; cut += 5) {
    EXPECT_FALSE(
        TcpSegment::parse(kSrc, kDst, net::BytesView(w.data(), cut), false).has_value());
  }
}

TEST(SegmentTest, SeqLenCountsSynFinAndPayload) {
  TcpSegment s;
  EXPECT_EQ(s.seq_len(), 0u);
  s.flags.syn = true;
  EXPECT_EQ(s.seq_len(), 1u);
  const net::Bytes payload = net::to_bytes("abc");
  s.payload = payload;
  EXPECT_EQ(s.seq_len(), 4u);
  s.flags.fin = true;
  EXPECT_EQ(s.seq_len(), 5u);
}

TEST(SegmentTest, StrRendering) {
  TcpSegment s;
  s.flags.syn = true;
  s.flags.ack = true;
  s.seq = 7;
  const std::string str = s.str();
  EXPECT_NE(str.find("SYN"), std::string::npos);
  EXPECT_NE(str.find("ACK"), std::string::npos);
  EXPECT_NE(str.find("seq=7"), std::string::npos);
}

}  // namespace
}  // namespace sttcp::tcp
