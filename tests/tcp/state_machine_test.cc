// RFC 793 state-machine edge cases: simultaneous close, data around FINs,
// duplicate SYNs, TIME_WAIT behaviour, challenge ACKs.
#include <gtest/gtest.h>

#include "tests/tcp/tcp_fixture.h"
#include "tests/tcp/read_bytes.h"

namespace sttcp::tcp {
namespace {

using testing::read_bytes;

using testing::pattern_bytes;
using testing::TcpFixture;

class StateMachineTest : public TcpFixture {
 protected:
  TcpConnection* server_conn_ = nullptr;
  TcpConnection* client_conn_ = nullptr;
  bool client_closed_ = false;
  bool server_closed_ = false;

  void establish() {
    server_stack_->listen(80, [this](TcpConnection& c) {
      server_conn_ = &c;
      TcpConnection::Callbacks scb;
      scb.on_closed = [this](CloseReason) { server_closed_ = true; };
      c.set_callbacks(std::move(scb));
    });
    TcpConnection::Callbacks ccb;
    ccb.on_closed = [this](CloseReason) { client_closed_ = true; };
    client_conn_ = &client_stack_->connect(net_.ip(0),
                                           net::SocketAddr{net_.ip(1), 80},
                                           std::move(ccb));
    run_for(sim::Duration::millis(10));
    ASSERT_NE(server_conn_, nullptr);
    ASSERT_EQ(client_conn_->state(), TcpState::kEstablished);
  }
};

TEST_F(StateMachineTest, SimultaneousCloseReachesClosedOnBothSides) {
  establish();
  // Both sides close in the same instant: FINs cross on the wire
  // (FIN_WAIT_1 -> CLOSING -> TIME_WAIT on both).
  client_conn_->close();
  server_conn_->close();
  run_for(sim::Duration::millis(100));
  // Both must be in TIME_WAIT (or already closed), neither stuck.
  EXPECT_TRUE(client_conn_->state() == TcpState::kTimeWait ||
              client_conn_->state() == TcpState::kClosed);
  EXPECT_TRUE(server_conn_->state() == TcpState::kTimeWait ||
              server_conn_->state() == TcpState::kClosed);
  run_for(sim::Duration::seconds(5));  // 2*MSL
  EXPECT_TRUE(client_closed_);
  EXPECT_TRUE(server_closed_);
  EXPECT_EQ(client_stack_->connection_count(), 0u);
  EXPECT_EQ(server_stack_->connection_count(), 0u);
}

TEST_F(StateMachineTest, DataBeforeFinIsDeliveredThenEof) {
  establish();
  bool eof = false;
  net::Bytes got;
  TcpConnection::Callbacks scb;
  scb.on_readable = [this, &got] {
    net::Bytes b = read_bytes(*server_conn_, 65536);
    got.insert(got.end(), b.begin(), b.end());
  };
  scb.on_peer_closed = [&eof] { eof = true; };
  server_conn_->set_callbacks(std::move(scb));

  client_conn_->send(pattern_bytes(0, 5000));
  client_conn_->close();  // FIN rides right behind the data
  run_for(sim::Duration::millis(100));
  EXPECT_EQ(got, pattern_bytes(0, 5000));
  EXPECT_TRUE(eof);
  EXPECT_EQ(server_conn_->state(), TcpState::kCloseWait);
}

TEST_F(StateMachineTest, FinWait2ReceivesDataUntilPeerCloses) {
  establish();
  // Client half-closes; the server keeps sending, then closes.
  client_conn_->close();
  run_for(sim::Duration::millis(50));
  EXPECT_EQ(client_conn_->state(), TcpState::kFinWait2);
  server_conn_->send(pattern_bytes(0, 3000));
  run_for(sim::Duration::millis(50));
  EXPECT_EQ(client_conn_->readable(), 3000u);
  EXPECT_EQ(read_bytes(*client_conn_, 4096), pattern_bytes(0, 3000));
  server_conn_->close();
  run_for(sim::Duration::millis(50));
  EXPECT_EQ(client_conn_->state(), TcpState::kTimeWait);
}

TEST_F(StateMachineTest, DuplicateSynGetsSynAckAgain) {
  // A duplicate client SYN while the server sits in SYN_RCVD must re-elicit
  // the SYN-ACK, not break the pending connection. Drop the first SYN-ACK
  // so the server stays in SYN_RCVD and the client retransmits its SYN.
  server_stack_->listen(80, [this](TcpConnection& c) { server_conn_ = &c; });
  net_.link(1).drop_next(1);  // eat the first SYN-ACK (server -> switch)
  bool established = false;
  TcpConnection::Callbacks ccb;
  ccb.on_established = [&established] { established = true; };
  client_conn_ = &client_stack_->connect(net_.ip(0),
                                         net::SocketAddr{net_.ip(1), 80},
                                         std::move(ccb));
  run_for(sim::Duration::seconds(5));  // covers the SYN retransmission
  EXPECT_TRUE(established);
  ASSERT_NE(server_conn_, nullptr);
  EXPECT_EQ(server_conn_->state(), TcpState::kEstablished);
}

TEST_F(StateMachineTest, TimeWaitReAcksRetransmittedFin) {
  establish();
  // Orchestrate: server closes; client consumes FIN and closes too; the
  // server's LAST_ACK ack is dropped so the client (TIME_WAIT) sees a
  // retransmitted FIN and must re-ACK it.
  TcpConnection::Callbacks scb2;
  scb2.on_peer_closed = [this] { /* stay open */ };
  scb2.on_closed = [this](CloseReason) { server_closed_ = true; };
  server_conn_->set_callbacks(std::move(scb2));
  client_conn_->close();
  run_for(sim::Duration::millis(30));
  server_conn_->close();
  run_for(sim::Duration::millis(30));
  // Client should be in TIME_WAIT now, server closed gracefully.
  EXPECT_TRUE(client_conn_->state() == TcpState::kTimeWait ||
              client_conn_->state() == TcpState::kClosed);
  run_for(sim::Duration::seconds(5));
  EXPECT_TRUE(client_closed_);
  EXPECT_TRUE(server_closed_);
}

TEST_F(StateMachineTest, AckBeyondSndNxtElicitsChallengeAck) {
  establish();
  const auto sent_before = client_conn_->stats().segments_sent;
  // Forge a segment acknowledging data the client never sent.
  TcpSegment forged;
  forged.src_port = server_conn_->tuple().local.port;
  forged.dst_port = server_conn_->tuple().remote.port;
  forged.seq = server_conn_->iss() + 1;
  forged.ack = client_conn_->iss() + 50'000;  // far beyond snd_nxt
  forged.flags.ack = true;
  forged.window = 65535;
  client_conn_->on_segment(forged);
  run_for(sim::Duration::millis(10));
  // The client answered with a (challenge) ACK and did not advance.
  EXPECT_GT(client_conn_->stats().segments_sent, sent_before);
  EXPECT_EQ(client_conn_->bytes_acked_by_peer(), 0u);
  EXPECT_EQ(client_conn_->state(), TcpState::kEstablished);
}

TEST_F(StateMachineTest, RstIgnoredWhenFarOutOfWindow) {
  establish();
  TcpSegment forged;
  forged.src_port = server_conn_->tuple().local.port;
  forged.dst_port = server_conn_->tuple().remote.port;
  forged.seq = server_conn_->iss() + 0x40000000;  // nowhere near the window
  forged.flags.rst = true;
  client_conn_->on_segment(forged);
  run_for(sim::Duration::millis(10));
  EXPECT_EQ(client_conn_->state(), TcpState::kEstablished);
  EXPECT_FALSE(client_closed_);
}

TEST_F(StateMachineTest, CloseDuringHandshakeAbortsQuietly) {
  server_stack_->listen(80, [this](TcpConnection& c) { server_conn_ = &c; });
  // Crash the server host so the handshake hangs in SYN_SENT.
  net_.host(1).crash("gone");
  bool closed = false;
  TcpConnection::Callbacks ccb;
  ccb.on_closed = [&closed](CloseReason) { closed = true; };
  client_conn_ = &client_stack_->connect(net_.ip(0),
                                         net::SocketAddr{net_.ip(1), 80},
                                         std::move(ccb));
  run_for(sim::Duration::millis(50));
  EXPECT_EQ(client_conn_->state(), TcpState::kSynSent);
  client_conn_->close();  // app gives up
  EXPECT_TRUE(closed);
  run_for(sim::Duration::millis(10));
  EXPECT_EQ(client_stack_->connection_count(), 0u);
}

TEST_F(StateMachineTest, SendAfterCloseReturnsZero) {
  establish();
  client_conn_->close();
  EXPECT_EQ(client_conn_->send(pattern_bytes(0, 100)), 0u);
}

TEST_F(StateMachineTest, InOrderBurstInOneTickCoalescesToOneAck) {
  // Pin both ISNs so raw segments can be crafted against known sequence
  // numbers, then inject two in-order data segments into the server
  // connection within a single event-loop tick: exactly one cumulative ACK
  // (covering both) may leave, not one per segment.
  cfg_.isn_override = 1000;
  client_stack_ = std::make_unique<TcpStack>(net_.host(0), cfg_);
  server_stack_ = std::make_unique<TcpStack>(net_.host(1), cfg_);
  establish();

  const std::uint64_t sent_before = server_conn_->stats().segments_sent;
  TcpSegment a;
  a.seq = 1001;  // client ISS+1
  a.ack = 1001;  // server ISS+1
  a.flags.ack = true;
  a.window = 65535;
  const net::Bytes first = testing::pattern_bytes(0, 4);
  a.payload = first;
  TcpSegment b = a;
  b.seq = 1005;
  const net::Bytes second = testing::pattern_bytes(4, 4);
  b.payload = second;
  server_conn_->on_segment(a);
  server_conn_->on_segment(b);
  // Nothing leaves synchronously; the flush runs in this same tick.
  EXPECT_EQ(server_conn_->stats().segments_sent - sent_before, 0u);
  run_for(sim::Duration::zero());
  EXPECT_EQ(server_conn_->stats().segments_sent - sent_before, 1u);
  EXPECT_EQ(server_conn_->readable(), 8u);

  // Out-of-order segments (a gap at 1009) must keep drawing one immediate
  // duplicate ACK each — the sender's fast-retransmit signal.
  const std::uint64_t dup_before = server_conn_->stats().segments_sent;
  TcpSegment o = a;
  o.seq = 1013;
  const net::Bytes beyond_gap = testing::pattern_bytes(12, 4);
  o.payload = beyond_gap;
  server_conn_->on_segment(o);
  server_conn_->on_segment(o);
  EXPECT_EQ(server_conn_->stats().segments_sent - dup_before, 2u);
}

TEST_F(StateMachineTest, ServerInCloseWaitCanStillSend) {
  establish();
  net::Bytes got;
  TcpConnection::Callbacks ccb2;
  ccb2.on_readable = [this, &got] {
    net::Bytes b = read_bytes(*client_conn_, 65536);
    got.insert(got.end(), b.begin(), b.end());
  };
  ccb2.on_closed = [this](CloseReason) { client_closed_ = true; };
  client_conn_->set_callbacks(std::move(ccb2));
  client_conn_->close();
  run_for(sim::Duration::millis(30));
  ASSERT_EQ(server_conn_->state(), TcpState::kCloseWait);
  EXPECT_GT(server_conn_->send(pattern_bytes(0, 2000)), 0u);
  run_for(sim::Duration::millis(30));
  EXPECT_EQ(got, pattern_bytes(0, 2000));
}

}  // namespace
}  // namespace sttcp::tcp
