// TcpStack-level behaviour below the connection: replica-mode buffering and
// ISN inference for tuples the primary has not announced yet, and ephemeral
// port allocation when the range runs out.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "tcp/stack.h"
#include "tests/net/testnet.h"

namespace sttcp::tcp {
namespace {

constexpr std::uint16_t kClientPort = 40000;
constexpr SeqWire kIrs = 9000;  // the client's ISN
constexpr SeqWire kIss = 5000;  // the primary's ISN

struct Inference {
  FourTuple tuple;
  SeqWire iss;
  SeqWire irs;
  bool established;
};

/// A replica-mode stack on host 2 and a bare host 1 that injects raw
/// client segments at it, as the backup's tap sees them.
class ReplicaBufferTest : public ::testing::Test {
 protected:
  ReplicaBufferTest() {
    net_.add_host("client", 1);
    net_.add_host("backup", 2);
    stack_ = std::make_unique<TcpStack>(net_.host(1), TcpConfig{});
    stack_->set_replica_mode(true);
    stack_->set_replica_inference(
        [this](const FourTuple& t, SeqWire iss, SeqWire irs, bool established) {
          inferred_.push_back({t, iss, irs, established});
        });
  }

  FourTuple tuple() const {
    return FourTuple{net::SocketAddr{net_.ip(1), 80}, net::SocketAddr{net_.ip(0), kClientPort}};
  }

  void inject(const TcpSegment& seg) {
    const net::Bytes wire = seg.serialize(net_.ip(0), net_.ip(1));
    net::Frame frame = net::Frame::allocate(net::kIpFrameHeaderSize + wire.size());
    std::memcpy(frame.writable().data() + net::kIpFrameHeaderSize, wire.data(), wire.size());
    ASSERT_TRUE(net_.host(0).send_ip_frame(net_.ip(0), net_.ip(1), net::kIpProtoTcp,
                                           std::move(frame)));
  }

  void send_syn() {
    TcpSegment syn;
    syn.src_port = kClientPort;
    syn.dst_port = 80;
    syn.seq = kIrs;
    syn.flags.syn = true;
    syn.window = 65535;
    inject(syn);
  }

  /// The client's handshake ACK: a pure ACK of the primary's SYN-ACK.
  void send_ack(std::uint16_t client_port = kClientPort) {
    TcpSegment ack;
    ack.src_port = client_port;
    ack.dst_port = 80;
    ack.seq = kIrs + 1;
    ack.ack = kIss + 1;
    ack.flags.ack = true;
    ack.window = 65535;
    inject(ack);
  }

  void run_for(sim::Duration d) { net_.run_for(d); }

  sttcp::testing::TestNet net_;
  std::unique_ptr<TcpStack> stack_;
  std::vector<Inference> inferred_;
};

TEST_F(ReplicaBufferTest, PureAckInsideTheWindowInfersTheIss) {
  send_syn();
  run_for(sim::Duration::millis(1));
  EXPECT_TRUE(inferred_.empty());  // no accept-ISN function: the SYN alone says nothing
  send_ack();
  run_for(sim::Duration::millis(1));
  ASSERT_EQ(inferred_.size(), 1u);
  EXPECT_EQ(inferred_[0].tuple, tuple());
  EXPECT_EQ(inferred_[0].iss, kIss);
  EXPECT_EQ(inferred_[0].irs, kIrs);
  EXPECT_TRUE(inferred_[0].established);
  EXPECT_EQ(stack_->pending_segments(), 2u);
  EXPECT_EQ(stack_->stats().segments_buffered, 2u);
  EXPECT_EQ(stack_->stats().rst_sent, 0u);
}

TEST_F(ReplicaBufferTest, AckAfterTheWindowNeverInfers) {
  send_syn();
  run_for(sim::Duration::millis(1));
  run_for(TcpConfig{}.replica_isn_inference_window + sim::Duration::millis(1));
  send_ack();
  run_for(sim::Duration::millis(1));
  EXPECT_TRUE(inferred_.empty());
  // The expired window is spent: a second ACK does not infer either.
  send_ack();
  run_for(sim::Duration::millis(1));
  EXPECT_TRUE(inferred_.empty());
  EXPECT_EQ(stack_->pending_segments(), 3u);
}

TEST_F(ReplicaBufferTest, LeavingReplicaModeDropsSegmentsAndSynTimes) {
  send_syn();
  run_for(sim::Duration::millis(1));
  ASSERT_EQ(stack_->pending_segments(), 1u);
  stack_->set_replica_mode(false);
  EXPECT_EQ(stack_->pending_segments(), 0u);
  // Back in replica mode within the window of the old SYN: its time is gone
  // with its segment, so the handshake ACK infers nothing.
  stack_->set_replica_mode(true);
  send_ack();
  run_for(sim::Duration::millis(1));
  EXPECT_TRUE(inferred_.empty());
  EXPECT_EQ(stack_->pending_segments(), 1u);
}

TEST_F(ReplicaBufferTest, OneTupleBuffersAtMostTheCap) {
  const std::size_t cap = TcpStack::max_buffered_segments();
  ASSERT_EQ(cap, 256u);
  for (std::size_t i = 0; i < cap + 44; ++i) send_ack();
  run_for(sim::Duration::millis(10));
  EXPECT_EQ(stack_->pending_segments(), cap);
  EXPECT_EQ(stack_->stats().segments_buffered, cap);
  // The cap is per tuple: another client still buffers.
  send_ack(kClientPort + 1);
  run_for(sim::Duration::millis(1));
  EXPECT_EQ(stack_->pending_segments(), cap + 1);
  EXPECT_TRUE(inferred_.empty());
}

TEST_F(ReplicaBufferTest, SynAloneInfersWithTheAcceptIsnFunction) {
  stack_->set_accept_isn_fn([](const FourTuple&) { return kIss; });
  send_syn();
  run_for(sim::Duration::millis(1));
  ASSERT_EQ(inferred_.size(), 1u);
  EXPECT_EQ(inferred_[0].tuple, tuple());
  EXPECT_EQ(inferred_[0].iss, kIss);
  EXPECT_EQ(inferred_[0].irs, kIrs);
  EXPECT_FALSE(inferred_[0].established);
}

TEST(StackConnectTest, ExhaustedEphemeralRangeThrowsAndKeepsEveryConnection) {
  // 16,384 live connections from one address to one remote use every port
  // in [49152, 65535]. A NIC-less host keeps it cheap: the SYNs go nowhere
  // and the loop never runs, but the connections stay in the table.
  sim::World world;
  net::Host host(world, "h");
  const net::Ipv4Addr local(10, 0, 0, 1);
  host.add_ip(local);
  TcpStack stack(host, TcpConfig{});
  const net::SocketAddr remote{net::Ipv4Addr(10, 1, 0, 1), 80};
  constexpr std::size_t kRange = 65536 - 49152;
  for (std::size_t i = 0; i < kRange; ++i) stack.connect(local, remote, {});
  ASSERT_EQ(stack.connection_count(), kRange);
  EXPECT_THROW(stack.connect(local, remote, {}), std::runtime_error);
  EXPECT_EQ(stack.connection_count(), kRange);
  EXPECT_EQ(stack.stats().connections_initiated, kRange);
  // Another remote still has every port free.
  stack.connect(local, net::SocketAddr{net::Ipv4Addr(10, 1, 0, 2), 80}, {});
  EXPECT_EQ(stack.connection_count(), kRange + 1);
}

}  // namespace
}  // namespace sttcp::tcp
