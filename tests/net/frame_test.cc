// net::Frame: one refcounted block per frame -- sharing, in-place building,
// cross-thread refcounting, and views that outlive every holder but one.
#include "net/frame.h"

#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

#include "net/headers.h"
#include "tcp/segment.h"
#include "tcp/stack.h"
#include "tests/net/testnet.h"
#include "tests/tcp/read_bytes.h"

namespace sttcp::net {
namespace {

Bytes make_bytes(std::size_t n) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::uint8_t>(i);
  return b;
}

TEST(FrameTest, DefaultIsEmpty) {
  const Frame f;
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.size(), 0u);
  EXPECT_EQ(f.data(), nullptr);
  EXPECT_TRUE(f.view().empty());
}

TEST(FrameTest, WrapsBytesWithoutChangingContent) {
  const Frame f = Frame::copy_of(make_bytes(64));
  ASSERT_EQ(f.size(), 64u);
  for (std::size_t i = 0; i < f.size(); ++i) {
    EXPECT_EQ(f[i], static_cast<std::uint8_t>(i));
  }
  EXPECT_EQ(f.view().size(), 64u);
  EXPECT_EQ(f.view().data(), f.data());
}

TEST(FrameTest, CopySharesTheBuffer) {
  const Frame a = Frame::copy_of(make_bytes(1500));
  EXPECT_EQ(a.use_count(), 1);
  const Frame b = a;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(a.use_count(), 2);
  EXPECT_EQ(b.use_count(), 2);
  // Same underlying storage: fan-out is a refcount bump, not a copy.
  EXPECT_EQ(a.data(), b.data());
  EXPECT_EQ(a, b);
}

TEST(FrameTest, MoveTransfersOwnership) {
  Frame a = Frame::copy_of(make_bytes(32));
  const std::uint8_t* p = a.data();
  const Frame b = std::move(a);
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b.use_count(), 1);
}

TEST(FrameTest, CopyOfDetachesFromSource) {
  Bytes src = make_bytes(16);
  const Frame f = Frame::copy_of(BytesView(src.data(), src.size()));
  src[0] = 0xff;  // must not be visible through the frame
  EXPECT_EQ(f[0], 0x00);
  EXPECT_EQ(f.size(), 16u);
}

TEST(FrameTest, SubframeSharesBuffer) {
  const Frame f = Frame::copy_of(make_bytes(100));
  const Frame sub = f.subframe(10, 20);
  EXPECT_EQ(sub.size(), 20u);
  EXPECT_EQ(sub.data(), f.data() + 10);
  EXPECT_EQ(sub[0], 10);
  EXPECT_EQ(f.use_count(), 2);  // no new allocation
}

TEST(FrameTest, SubframeClampsOutOfRange) {
  const Frame f = Frame::copy_of(make_bytes(10));
  EXPECT_EQ(f.subframe(4, 100).size(), 6u);
  EXPECT_EQ(f.subframe(100, 5).size(), 0u);
  EXPECT_TRUE(f.subframe(10, 0).empty());
}

TEST(FrameTest, CloneIsDetachedAndMutable) {
  const Frame f = Frame::copy_of(make_bytes(8));
  Bytes copy = f.clone();
  copy[0] = 0xaa;
  EXPECT_EQ(f[0], 0x00);
  EXPECT_EQ(copy.size(), f.size());
  EXPECT_EQ(f.use_count(), 1);  // clone did not retain the buffer
}

TEST(FrameTest, EqualityIsContentBased) {
  const Frame a = Frame::copy_of(make_bytes(32));
  const Frame b = Frame::copy_of(make_bytes(32));  // distinct block, same content
  const Frame c = Frame::copy_of(make_bytes(31));
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  Bytes other = make_bytes(32);
  other[5] ^= 1;
  EXPECT_FALSE(a == Frame::copy_of(other));
}

TEST(FrameTest, SubframeOfSubframeComposesOffsets) {
  const Frame f = Frame::copy_of(make_bytes(100));
  const Frame inner = f.subframe(20, 60).subframe(10, 5);
  EXPECT_EQ(inner.size(), 5u);
  EXPECT_EQ(inner[0], 30);
}

TEST(FrameTest, RefcountFollowsCopyMoveSubframeAndDestroy) {
  Frame a = Frame::copy_of(make_bytes(64));
  EXPECT_EQ(a.use_count(), 1);
  {
    const Frame copy = a;  // NOLINT(performance-unnecessary-copy-initialization)
    EXPECT_EQ(a.use_count(), 2);
    const Frame sub = a.subframe(8, 8);
    EXPECT_EQ(a.use_count(), 3);
    Frame moved = Frame(sub);  // a copy of the subframe, then moved below
    EXPECT_EQ(a.use_count(), 4);
    const Frame taken = std::move(moved);
    EXPECT_EQ(a.use_count(), 4);  // a move transfers, it does not add
    EXPECT_EQ(moved.use_count(), 0);  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(moved.empty());       // NOLINT(bugprone-use-after-move)
  }
  EXPECT_EQ(a.use_count(), 1);  // every handle above released its count
  Frame b;
  b = a;  // copy-assign into an empty handle
  EXPECT_EQ(a.use_count(), 2);
  b = Frame::copy_of(make_bytes(4));  // reassigning drops the old block's count
  EXPECT_EQ(a.use_count(), 1);
  EXPECT_EQ(b.use_count(), 1);
  a = a;  // NOLINT(clang-diagnostic-self-assign-overloaded): self-assignment is a no-op
  EXPECT_EQ(a.use_count(), 1);
  EXPECT_EQ(a[5], 5);
}

TEST(FrameTest, AllocateWriteThenShareRoundTrip) {
  Frame f = Frame::allocate(6);
  ASSERT_EQ(f.size(), 6u);
  ASSERT_EQ(f.writable().size(), 6u);
  ByteWriter w(f.writable());
  w.u16(0xabcd);
  w.u32(0x01020304);
  EXPECT_THROW(w.u8(0), std::out_of_range);  // a frame never grows
  const Frame shared = f;
  // Shared means immutable: no handle may write any more.
  EXPECT_THROW(f.writable(), std::logic_error);
  const Bytes expect{0xab, 0xcd, 0x01, 0x02, 0x03, 0x04};
  EXPECT_EQ(shared.clone(), expect);
  EXPECT_EQ(shared.data(), f.data());
  EXPECT_EQ(Frame::allocate(0).size(), 0u);
}

TEST(FrameTest, TwoThreadsCopyAndDropOneBlock) {
  // Frames of a sharded fabric cross shard threads: the count must stay
  // exact under concurrent copies and drops (the TSan lane runs this).
  const Frame root = Frame::copy_of(make_bytes(256));
  const auto churn = [&root] {
    std::uint64_t sum = 0;
    for (int i = 0; i < 20000; ++i) {
      const Frame copy = root;  // NOLINT(performance-unnecessary-copy-initialization)
      const Frame sub = copy.subframe(static_cast<std::size_t>(i % 200), 16);
      sum += sub[0];
    }
    return sum;
  };
  std::uint64_t sums[2] = {0, 0};
  std::thread t0([&] { sums[0] = churn(); });
  std::thread t1([&] { sums[1] = churn(); });
  t0.join();
  t1.join();
  EXPECT_EQ(sums[0], sums[1]);
  EXPECT_EQ(root.use_count(), 1);
}

TEST(FrameTest, ReplicaReplaysBufferedSegmentsAfterOtherHoldersDropTheirFrames) {
  // A replica-mode stack buffers tapped segments until the connection is
  // announced. Their payloads are views into the frames they arrived in, so
  // the buffer must keep those frames alive: by the time of the replay the
  // links, NICs and host have long dropped their handles, and ASan flags a
  // dangling view (uninstrumented, the replayed bytes would be garbage).
  testing::TestNet net;
  Host& client = net.add_host("client", 1);
  net.add_host("server", 2);
  tcp::TcpStack server(net.host(1), tcp::TcpConfig{});
  server.set_replica_mode(true);
  tcp::TcpConnection* accepted = nullptr;
  server.listen(80, [&accepted](tcp::TcpConnection& c) { accepted = &c; });

  constexpr tcp::SeqWire kIss = 5000, kIrs = 9000;
  constexpr std::size_t kSegments = 4, kLen = 700;
  Bytes sent;
  for (std::size_t i = 0; i < kSegments; ++i) {
    Bytes payload(kLen);
    for (std::size_t k = 0; k < kLen; ++k) {
      payload[k] = static_cast<std::uint8_t>(i * 37 + k);
    }
    sent.insert(sent.end(), payload.begin(), payload.end());
    tcp::TcpSegment seg;
    seg.src_port = 40000;
    seg.dst_port = 80;
    seg.seq = kIrs + 1 + static_cast<tcp::SeqWire>(i * kLen);
    seg.ack = kIss + 1;
    seg.flags.ack = true;
    seg.window = 65535;
    Frame frame = Frame::allocate(kIpFrameHeaderSize + tcp::TcpSegment::kHeaderSize + kLen);
    seg.write(frame.writable().subspan(kIpFrameHeaderSize), net.ip(0), net.ip(1),
              {payload, {}});
    ASSERT_TRUE(client.send_ip_frame(net.ip(0), net.ip(1), kIpProtoTcp, std::move(frame)));
    // `payload` dies here: only the frame holds these bytes now.
  }
  net.run_for(sim::Duration::millis(10));
  ASSERT_EQ(server.pending_segments(), kSegments);

  const tcp::FourTuple tuple{SocketAddr{net.ip(1), 80}, SocketAddr{net.ip(0), 40000}};
  tcp::TcpConnection::ReplicaInit init;
  init.iss = kIss;
  init.irs = kIrs;
  init.established = true;
  server.create_replica(tuple, init);
  EXPECT_EQ(server.pending_segments(), 0u);
  ASSERT_NE(accepted, nullptr);
  EXPECT_EQ(tcp::testing::read_bytes(*accepted, 1 << 20), sent);
}

}  // namespace
}  // namespace sttcp::net
