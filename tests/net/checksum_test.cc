#include "net/checksum.h"

#include <gtest/gtest.h>

namespace sttcp::net {
namespace {

TEST(ChecksumTest, Rfc1071Example) {
  // Classic example from RFC 1071 §3: bytes 00 01 f2 03 f4 f5 f6 f7.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  // One's-complement sum is 0xddf2; checksum is its complement.
  EXPECT_EQ(internet_checksum(BytesView(data, sizeof(data))),
            static_cast<std::uint16_t>(~0xddf2));
}

TEST(ChecksumTest, VerifyRoundTrip) {
  Bytes data = {0x45, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00, 0x40, 0x11};
  const std::uint16_t ck = internet_checksum(data);
  // Insert the checksum and re-sum: must be zero.
  data.push_back(static_cast<std::uint8_t>(ck >> 8));
  data.push_back(static_cast<std::uint8_t>(ck));
  EXPECT_EQ(internet_checksum(data), 0);
}

TEST(ChecksumTest, OddLengthPadsWithZero) {
  const std::uint8_t odd[] = {0xab, 0xcd, 0xef};
  const std::uint8_t padded[] = {0xab, 0xcd, 0xef, 0x00};
  EXPECT_EQ(internet_checksum(BytesView(odd, 3)), internet_checksum(BytesView(padded, 4)));
}

TEST(ChecksumTest, EmptyBufferIsAllOnesComplement) {
  EXPECT_EQ(internet_checksum(BytesView()), 0xffff);
}

TEST(ChecksumTest, AccumulatorSplitInvariance) {
  // Checksumming in chunks (even at odd offsets) must equal one pass.
  Bytes data;
  for (int i = 0; i < 33; ++i) data.push_back(static_cast<std::uint8_t>(i * 7 + 1));
  const std::uint16_t whole = internet_checksum(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    ChecksumAccumulator acc;
    acc.add(BytesView(data).subspan(0, split));
    acc.add(BytesView(data).subspan(split));
    EXPECT_EQ(acc.finish(), whole) << "split at " << split;
  }
}

TEST(ChecksumTest, TransportChecksumDetectsCorruption) {
  const Ipv4Addr src(10, 0, 0, 1);
  const Ipv4Addr dst(10, 0, 0, 2);
  Bytes seg = {0x04, 0xd2, 0x00, 0x50, 0x00, 0x0a, 0x00, 0x00, 0xde, 0xad};
  // Compute and embed a checksum at offset 6..7 (UDP-style layout).
  seg[6] = 0;
  seg[7] = 0;
  const std::uint16_t ck = transport_checksum(src, dst, 17, seg);
  seg[6] = static_cast<std::uint8_t>(ck >> 8);
  seg[7] = static_cast<std::uint8_t>(ck);
  EXPECT_EQ(transport_checksum(src, dst, 17, seg), 0);
  // Flip a payload bit: verification must fail.
  seg[8] ^= 0x01;
  EXPECT_NE(transport_checksum(src, dst, 17, seg), 0);
  seg[8] ^= 0x01;
  // Wrong pseudo-header (different destination) must also fail.
  EXPECT_NE(transport_checksum(src, Ipv4Addr(10, 0, 0, 3), 17, seg), 0);
}

}  // namespace
}  // namespace sttcp::net
