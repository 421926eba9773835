#include "tcp/connection.h"

#include <gtest/gtest.h>

#include "tests/tcp/tcp_fixture.h"
#include "tests/tcp/read_bytes.h"

namespace sttcp::tcp {
namespace {

using testing::read_bytes;

using testing::pattern_bytes;
using testing::TcpFixture;

class ConnectionTest : public TcpFixture {
 protected:
  /// Standard server: echoes nothing, just records accepted connections.
  TcpConnection* accepted_ = nullptr;
  void listen_server(std::uint16_t port = 80) {
    server_stack_->listen(port, [this](TcpConnection& c) { accepted_ = &c; });
  }
};

TEST_F(ConnectionTest, HandshakeEstablishesBothSides) {
  listen_server();
  bool established = false;
  TcpConnection::Callbacks cb;
  cb.on_established = [&] { established = true; };
  TcpConnection& c =
      client_stack_->connect(net_.ip(0), net::SocketAddr{net_.ip(1), 80}, std::move(cb));
  run_for(sim::Duration::millis(50));
  EXPECT_TRUE(established);
  EXPECT_EQ(c.state(), TcpState::kEstablished);
  ASSERT_NE(accepted_, nullptr);
  EXPECT_EQ(accepted_->state(), TcpState::kEstablished);
  EXPECT_EQ(accepted_->tuple().remote.port, c.tuple().local.port);
}

TEST_F(ConnectionTest, ConnectToClosedPortIsReset) {
  bool closed = false;
  CloseReason reason{};
  TcpConnection::Callbacks cb;
  cb.on_closed = [&](CloseReason r) {
    closed = true;
    reason = r;
  };
  client_stack_->connect(net_.ip(0), net::SocketAddr{net_.ip(1), 81}, std::move(cb));
  run_for(sim::Duration::millis(50));
  EXPECT_TRUE(closed);
  EXPECT_EQ(reason, CloseReason::kReset);
}

TEST_F(ConnectionTest, ConnectToDeadHostTimesOut) {
  net_.host(1).crash("dead");
  cfg_.syn_retries = 2;  // keep the test quick
  client_stack_ = std::make_unique<TcpStack>(net_.host(0), cfg_);
  bool closed = false;
  CloseReason reason{};
  TcpConnection::Callbacks cb;
  cb.on_closed = [&](CloseReason r) {
    closed = true;
    reason = r;
  };
  client_stack_->connect(net_.ip(0), net::SocketAddr{net_.ip(1), 80}, std::move(cb));
  run_for(sim::Duration::seconds(20));
  EXPECT_TRUE(closed);
  EXPECT_EQ(reason, CloseReason::kTimeout);
}

TEST_F(ConnectionTest, DataFlowsBothDirections) {
  listen_server();
  net::Bytes at_server, at_client;
  server_stack_->listen(80, [&](TcpConnection& s) {
    accepted_ = &s;
    TcpConnection::Callbacks scb;
    scb.on_readable = [&s, &at_server] {
      net::Bytes b = read_bytes(s, 4096);
      at_server.insert(at_server.end(), b.begin(), b.end());
      s.send(net::to_bytes("pong"));
    };
    s.set_callbacks(std::move(scb));
  });
  TcpConnection::Callbacks ccb;
  TcpConnection* cp = nullptr;
  ccb.on_established = [&] { cp->send(net::to_bytes("ping")); };
  ccb.on_readable = [&] {
    net::Bytes b = read_bytes(*cp, 4096);
    at_client.insert(at_client.end(), b.begin(), b.end());
  };
  cp = &client_stack_->connect(net_.ip(0), net::SocketAddr{net_.ip(1), 80},
                               std::move(ccb));
  run_for(sim::Duration::millis(100));
  EXPECT_EQ(at_server, net::to_bytes("ping"));
  EXPECT_EQ(at_client, net::to_bytes("pong"));
}

TEST_F(ConnectionTest, GracefulCloseBothSides) {
  TcpConnection* server_conn = nullptr;
  bool server_eof = false;
  bool server_closed = false;
  bool client_closed = false;
  CloseReason client_reason{};
  server_stack_->listen(80, [&](TcpConnection& s) {
    server_conn = &s;
    TcpConnection::Callbacks scb;
    scb.on_peer_closed = [&] {
      server_eof = true;
      server_conn->close();  // close our side in response
    };
    scb.on_closed = [&](CloseReason) { server_closed = true; };
    s.set_callbacks(std::move(scb));
  });
  TcpConnection* cp = nullptr;
  TcpConnection::Callbacks ccb;
  ccb.on_established = [&] { cp->close(); };
  ccb.on_closed = [&](CloseReason r) {
    client_closed = true;
    client_reason = r;
  };
  cp = &client_stack_->connect(net_.ip(0), net::SocketAddr{net_.ip(1), 80},
                               std::move(ccb));
  run_for(sim::Duration::seconds(10));  // covers TIME_WAIT (2 * 1s MSL)
  EXPECT_TRUE(server_eof);
  EXPECT_TRUE(server_closed);
  EXPECT_TRUE(client_closed);
  EXPECT_EQ(client_reason, CloseReason::kGraceful);
  // Both stacks eventually GC the connections.
  EXPECT_EQ(client_stack_->connection_count(), 0u);
  EXPECT_EQ(server_stack_->connection_count(), 0u);
}

TEST_F(ConnectionTest, AbortSendsRstToPeer) {
  TcpConnection* server_conn = nullptr;
  bool server_closed = false;
  CloseReason server_reason{};
  server_stack_->listen(80, [&](TcpConnection& s) {
    server_conn = &s;
    TcpConnection::Callbacks scb;
    scb.on_closed = [&](CloseReason r) {
      server_closed = true;
      server_reason = r;
    };
    s.set_callbacks(std::move(scb));
  });
  TcpConnection* cp = nullptr;
  bool rst_generated = false;
  TcpConnection::Callbacks ccb;
  // Abort shortly after establishment so the server has completed its accept
  // (an abort racing the handshake legitimately never reaches the app). The
  // aborted connection is destroyed soon after, so its RST notice is read
  // right at the abort.
  ccb.on_established = [&] {
    net_.world.loop().schedule_after(sim::Duration::millis(10), [&] {
      cp->abort();
      rst_generated = cp->rst_generated();
    });
  };
  cp = &client_stack_->connect(net_.ip(0), net::SocketAddr{net_.ip(1), 80},
                               std::move(ccb));
  run_for(sim::Duration::millis(100));
  EXPECT_TRUE(server_closed);
  EXPECT_EQ(server_reason, CloseReason::kReset);
  EXPECT_TRUE(rst_generated);
}

TEST_F(ConnectionTest, LostDataSegmentIsRetransmitted) {
  TcpConnection* server_conn = nullptr;
  net::Bytes at_server;
  server_stack_->listen(80, [&](TcpConnection& s) {
    server_conn = &s;
    TcpConnection::Callbacks scb;
    scb.on_readable = [&] {
      net::Bytes b = read_bytes(*server_conn, 65536);
      at_server.insert(at_server.end(), b.begin(), b.end());
    };
    s.set_callbacks(std::move(scb));
  });
  TcpConnection* cp = nullptr;
  TcpConnection::Callbacks ccb;
  ccb.on_established = [&] {
    // Drop the next two frames on the client's link (the data segments),
    // then send.
    net_.link(0).drop_next(2);
    cp->send(pattern_bytes(0, 3000));
  };
  cp = &client_stack_->connect(net_.ip(0), net::SocketAddr{net_.ip(1), 80},
                               std::move(ccb));
  run_for(sim::Duration::seconds(5));
  EXPECT_EQ(at_server, pattern_bytes(0, 3000));
  EXPECT_GE(cp->stats().retransmissions, 1u);
}

TEST_F(ConnectionTest, ReceiverWindowThrottlesSender) {
  // Server app never reads: the client must stop after filling the 64KB
  // receive buffer, then resume when the app drains it.
  TcpConnection* server_conn = nullptr;
  server_stack_->listen(80, [&](TcpConnection& s) { server_conn = &s; });
  TcpConnection* cp = nullptr;
  std::uint64_t written = 0;
  TcpConnection::Callbacks ccb;
  auto pump = [&] {
    while (written < 200000) {
      const std::size_t chunk =
          static_cast<std::size_t>(std::min<std::uint64_t>(4096, 200000 - written));
      const std::size_t n = cp->send(pattern_bytes(written, chunk));
      written += n;
      if (n < chunk) break;
    }
  };
  ccb.on_established = pump;
  ccb.on_writable = pump;
  cp = &client_stack_->connect(net_.ip(0), net::SocketAddr{net_.ip(1), 80},
                               std::move(ccb));
  run_for(sim::Duration::seconds(5));
  ASSERT_NE(server_conn, nullptr);
  // Sender is blocked: receiver buffer (64KB) + sender buffer (256KB).
  EXPECT_LE(server_conn->bytes_received(), 65536u + 1u);
  EXPECT_EQ(cp->peer_window(), 0u);
  const std::uint64_t stalled_at = server_conn->bytes_received();
  EXPECT_GT(stalled_at, 60000u);
  // Drain on the server: everything eventually arrives.
  net::Bytes drained;
  TcpConnection::Callbacks scb;
  scb.on_readable = [&] {
    net::Bytes b = read_bytes(*server_conn, 65536);
    drained.insert(drained.end(), b.begin(), b.end());
  };
  server_conn->set_callbacks(std::move(scb));
  net::Bytes first = read_bytes(*server_conn, 65536);
  drained.insert(drained.begin(), first.begin(), first.end());
  run_for(sim::Duration::seconds(30));
  EXPECT_EQ(written, 200000u);
  EXPECT_EQ(drained, pattern_bytes(0, 200000));
}

TEST_F(ConnectionTest, ZeroWindowProbesKeepConnectionAlive) {
  TcpConnection* server_conn = nullptr;
  server_stack_->listen(80, [&](TcpConnection& s) { server_conn = &s; });
  TcpConnection* cp = nullptr;
  TcpConnection::Callbacks ccb;
  ccb.on_established = [&] { cp->send(pattern_bytes(0, 100000)); };
  cp = &client_stack_->connect(net_.ip(0), net::SocketAddr{net_.ip(1), 80},
                               std::move(ccb));
  // Far beyond max_retries * RTO: the connection must survive on probes.
  run_for(sim::Duration::seconds(60));
  EXPECT_EQ(cp->state(), TcpState::kEstablished);
  EXPECT_GT(cp->stats().probes_sent, 0u);
}

TEST_F(ConnectionTest, CountersTrackStreamPositions) {
  net::Bytes at_server;
  TcpConnection* server_conn = nullptr;
  server_stack_->listen(80, [&](TcpConnection& s) {
    server_conn = &s;
    TcpConnection::Callbacks scb;
    scb.on_readable = [&] {
      net::Bytes b = read_bytes(*server_conn, 1000);  // reads lag writes
      at_server.insert(at_server.end(), b.begin(), b.end());
    };
    s.set_callbacks(std::move(scb));
  });
  TcpConnection* cp = nullptr;
  TcpConnection::Callbacks ccb;
  ccb.on_established = [&] { cp->send(pattern_bytes(0, 5000)); };
  cp = &client_stack_->connect(net_.ip(0), net::SocketAddr{net_.ip(1), 80},
                               std::move(ccb));
  run_for(sim::Duration::seconds(2));
  EXPECT_EQ(cp->app_bytes_written(), 5000u);
  EXPECT_EQ(cp->bytes_acked_by_peer(), 5000u);
  EXPECT_EQ(server_conn->bytes_received(), 5000u);
  EXPECT_EQ(server_conn->app_bytes_read(), at_server.size());
  EXPECT_EQ(server_conn->app_bytes_written(), 0u);
}

TEST_F(ConnectionTest, FinGeneratedFlagSetOnClose) {
  TcpConnection* server_conn = nullptr;
  server_stack_->listen(80, [&](TcpConnection& s) { server_conn = &s; });
  TcpConnection* cp = nullptr;
  TcpConnection::Callbacks ccb;
  ccb.on_established = [&] { cp->close(); };
  cp = &client_stack_->connect(net_.ip(0), net::SocketAddr{net_.ip(1), 80},
                               std::move(ccb));
  run_for(sim::Duration::millis(100));
  EXPECT_TRUE(cp->fin_generated());
  EXPECT_FALSE(cp->rst_generated());
  ASSERT_NE(server_conn, nullptr);
  EXPECT_TRUE(server_conn->peer_half_closed());
  EXPECT_EQ(server_conn->state(), TcpState::kCloseWait);
}

TEST_F(ConnectionTest, CloseGateWithholdsFinUntilRelease) {
  TcpConnection* server_conn = nullptr;
  server_stack_->listen(80, [&](TcpConnection& s) { server_conn = &s; });
  TcpConnection* cp = nullptr;
  TcpConnection::Callbacks ccb;
  ccb.on_established = [&] {
    cp->set_close_gate([](bool) { return false; });
    cp->send(net::to_bytes("tail"));
    cp->close();
  };
  cp = &client_stack_->connect(net_.ip(0), net::SocketAddr{net_.ip(1), 80},
                               std::move(ccb));
  run_for(sim::Duration::seconds(2));
  // Data before the FIN flowed; the FIN itself is withheld.
  ASSERT_NE(server_conn, nullptr);
  EXPECT_EQ(server_conn->bytes_received(), 4u);
  EXPECT_FALSE(server_conn->peer_half_closed());
  EXPECT_TRUE(cp->fin_generated());
  EXPECT_EQ(cp->state(), TcpState::kEstablished);  // still pre-FIN
  cp->release_fin();
  run_for(sim::Duration::seconds(1));
  EXPECT_TRUE(server_conn->peer_half_closed());
}

TEST_F(ConnectionTest, SuppressedConnectionSendsNothing) {
  TcpConnection* server_conn = nullptr;
  server_stack_->listen(80, [&](TcpConnection& s) {
    server_conn = &s;
    s.set_suppressed(true);
    s.send(pattern_bytes(0, 2000));
  });
  TcpConnection* cp = nullptr;
  net::Bytes at_client;
  TcpConnection::Callbacks ccb;
  ccb.on_readable = [&] {
    net::Bytes b = read_bytes(*cp, 65536);
    at_client.insert(at_client.end(), b.begin(), b.end());
  };
  cp = &client_stack_->connect(net_.ip(0), net::SocketAddr{net_.ip(1), 80},
                               std::move(ccb));
  run_for(sim::Duration::seconds(3));
  // The server's handshake happened before suppression; data after it did not
  // reach the client.
  EXPECT_TRUE(at_client.empty());
  ASSERT_NE(server_conn, nullptr);
  EXPECT_GT(server_conn->stats().segments_suppressed, 0u);
  // Un-suppress via takeover: the data flows out on retransmission.
  server_conn->on_takeover(/*immediate_retransmit=*/true);
  run_for(sim::Duration::seconds(3));
  EXPECT_EQ(at_client, pattern_bytes(0, 2000));
}

TEST_F(ConnectionTest, HalfCloseAllowsContinuedServerSend) {
  // Client closes its direction immediately after sending a request;
  // server keeps streaming the response afterwards (classic FTP-ish flow).
  TcpConnection* server_conn = nullptr;
  server_stack_->listen(80, [&](TcpConnection& s) {
    server_conn = &s;
    TcpConnection::Callbacks scb;
    scb.on_peer_closed = [&] {
      server_conn->send(pattern_bytes(0, 20000));
      server_conn->close();
    };
    s.set_callbacks(std::move(scb));
  });
  TcpConnection* cp = nullptr;
  testing::PatternSink sink;
  bool client_closed = false;
  TcpConnection::Callbacks ccb;
  ccb.on_established = [&] { cp->close(); };
  ccb.on_readable = [&] { sink.consume(read_bytes(*cp, 65536)); };
  ccb.on_closed = [&](CloseReason) { client_closed = true; };
  cp = &client_stack_->connect(net_.ip(0), net::SocketAddr{net_.ip(1), 80},
                               std::move(ccb));
  run_for(sim::Duration::seconds(10));
  EXPECT_EQ(sink.received, 20000u);
  EXPECT_FALSE(sink.corrupt);
  EXPECT_TRUE(client_closed);
}

TEST_F(ConnectionTest, RetransmissionsExhaustedKillsConnection) {
  cfg_.max_retries = 3;
  client_stack_ = std::make_unique<TcpStack>(net_.host(0), cfg_);
  listen_server();
  TcpConnection* cp = nullptr;
  bool closed = false;
  CloseReason reason{};
  TcpConnection::Callbacks ccb;
  ccb.on_established = [&] {
    net_.host(1).crash("server dies mid-connection");
    cp->send(pattern_bytes(0, 1000));
  };
  ccb.on_closed = [&](CloseReason r) {
    closed = true;
    reason = r;
  };
  cp = &client_stack_->connect(net_.ip(0), net::SocketAddr{net_.ip(1), 80},
                               std::move(ccb));
  run_for(sim::Duration::seconds(60));
  EXPECT_TRUE(closed);
  EXPECT_EQ(reason, CloseReason::kTimeout);
}

}  // namespace
}  // namespace sttcp::tcp
