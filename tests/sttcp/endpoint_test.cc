// Endpoint-level behaviours not covered by the scenario integration tests:
// heartbeat bookkeeping, channel liveness, announce/confirm handshake,
// FIN timing, Demo-2's failover-time shape, and Demo-3's overhead shape.
#include "sttcp/endpoint.h"

#include <gtest/gtest.h>

#include <memory>

#include "app/client.h"
#include "app/server.h"
#include "harness/fault.h"
#include "harness/topology.h"
#include "sttcp/decision.h"

namespace sttcp::sttcp {
namespace {

using harness::Cell;
using harness::Topology;
using harness::TopologyConfig;

TEST(EndpointTest, HeartbeatsFlowOnBothChannels) {
  const auto topo = make_figure2(TopologyConfig{});
  Cell& cell = topo->cell();
  topo->run_for(sim::Duration::seconds(2));
  const auto& p = cell.primary_endpoint()->stats();
  const auto& b = cell.backup_endpoint()->stats();
  // ~5 HB/s for 2s on each side, received on both channels.
  EXPECT_GE(p.hb_sent, 9u);
  EXPECT_GE(p.hb_received_ip, 9u);
  EXPECT_GE(p.hb_received_serial, 9u);
  EXPECT_GE(b.hb_received_ip, 9u);
  EXPECT_GE(b.hb_received_serial, 9u);
  EXPECT_TRUE(cell.primary_endpoint()->ip_channel_alive());
  EXPECT_TRUE(cell.primary_endpoint()->serial_channel_alive());
}

TEST(EndpointTest, NoConnectionsMeansEmptyHeartbeat) {
  const auto topo = make_figure2(TopologyConfig{});
  Cell& cell = topo->cell();
  topo->run_for(sim::Duration::seconds(1));
  EXPECT_EQ(cell.primary_endpoint()->replicated_connections(), 0u);
  EXPECT_EQ(cell.backup_endpoint()->replicated_connections(), 0u);
}

TEST(EndpointTest, ClosedConnectionsAreGarbageCollected) {
  const auto topo = make_figure2(TopologyConfig{});
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), 100'000);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), 100'000);
  app::DownloadClient::Options opt;
  opt.expected_bytes = 100'000;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  client.start();
  topo->run_for(sim::Duration::seconds(2));
  ASSERT_TRUE(client.complete());
  EXPECT_EQ(cell.primary_endpoint()->replicated_connections(), 1u);
  // After the close linger, the replication records disappear.
  topo->run_for(sim::Duration::seconds(10));
  EXPECT_EQ(cell.primary_endpoint()->replicated_connections(), 0u);
  EXPECT_EQ(cell.backup_endpoint()->replicated_connections(), 0u);
  // And the TCP connections themselves are gone (TIME_WAIT elapsed).
  EXPECT_EQ(cell.primary_stack().connection_count(), 0u);
  EXPECT_EQ(client_host.stack->connection_count(), 0u);
}

TEST(EndpointTest, SequentialConnectionsEachReplicated) {
  const auto topo = make_figure2(TopologyConfig{});
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), 50'000);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), 50'000);
  for (int i = 0; i < 5; ++i) {
    app::DownloadClient::Options opt;
    opt.expected_bytes = 50'000;
    app::DownloadClient client(*client_host.stack, client_host.ip,
                               {cell.connect_addr()}, opt);
    client.start();
    topo->run_for(sim::Duration::seconds(1));
    EXPECT_TRUE(client.complete()) << i;
    EXPECT_FALSE(client.corrupt()) << i;
  }
  EXPECT_EQ(topo->world().trace().count("backup", "replica_created"), 5u);
  EXPECT_EQ(topo->world().trace().count("takeover"), 0u);
}

TEST(EndpointTest, ConcurrentConnectionsAllReplicatedAndFailedOver) {
  const auto topo = make_figure2(TopologyConfig{});
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), 3'000'000);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), 3'000'000);
  std::vector<std::unique_ptr<app::DownloadClient>> clients;
  for (int i = 0; i < 8; ++i) {
    app::DownloadClient::Options opt;
    opt.expected_bytes = 3'000'000;
    clients.push_back(std::make_unique<app::DownloadClient>(
        *client_host.stack, client_host.ip,
        std::vector<net::SocketAddr>{cell.connect_addr()}, opt));
    clients.back()->start();
  }
  inject(*topo, harness::Fault::Crash(harness::Node::kPrimary).at(sim::Duration::millis(400)));
  topo->run_for(sim::Duration::seconds(60));
  EXPECT_EQ(topo->world().trace().count("backup", "takeover"), 1u);
  for (auto& c : clients) {
    EXPECT_TRUE(c->complete());
    EXPECT_FALSE(c->corrupt());
    EXPECT_EQ(c->connection_failures(), 0);
  }
}

TEST(EndpointTest, ReplicaIsnInferredFromHandshakeAckThenRemapped) {
  // Paper §2: "during TCP connection initialization, the backup changes its
  // initial sequence number to match that of the primary." The backup infers
  // the primary's ISS from the tapped handshake ACK (ack-1) without waiting
  // for the announcement; when the announcement arrives it only remaps the
  // replication id.
  const auto topo = make_figure2(TopologyConfig{});
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), 200'000);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), 200'000);
  app::DownloadClient::Options opt;
  opt.expected_bytes = 200'000;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  client.start();
  topo->run_for(sim::Duration::seconds(3));
  ASSERT_TRUE(client.complete());
  const auto& tr = topo->world().trace();
  EXPECT_EQ(tr.count("backup", "replica_inferred"), 1u);
  EXPECT_EQ(tr.count("backup", "replica_id_remapped"), 1u);
  EXPECT_TRUE(tr.strictly_before("replica_inferred", "replica_id_remapped"));
  // Exactly one replica connection existed (no duplicate from the announce).
  EXPECT_EQ(cell.backup_stack().stats().replicas_created, 1u);
}

TEST(EndpointTest, InferredReplicaSurvivesPrimaryDeathBeforeAnnounce) {
  // The case that motivates inference: the primary accepts and answers the
  // client but dies before any announcement reaches the backup. The
  // inferred replica still owns the connection after takeover.
  const auto topo = make_figure2(TopologyConfig{});
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), 10'000'000);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), 10'000'000);
  // Eat ALL primary->backup announce datagrams: UDP heartbeats on the IP
  // path die, serial heartbeats (periodic only) still flow but announces are
  // carried there too — so instead crash the primary right after the
  // handshake completes, before the first serial heartbeat with the record.
  app::DownloadClient::Options opt;
  opt.expected_bytes = 10'000'000;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  client.start();
  // The immediate (IP-only) announce is dropped; the next serial HB would
  // be at 200 ms — the primary dies at 50 ms. Drop exactly the primary's
  // UDP frames (heartbeats/control), leaving its TCP traffic untouched:
  // the IPv4 protocol byte sits at Ethernet(14) + 9.
  cell.primary_link().set_drop_filter(
      [](const net::Frame& f) { return f.size() > 23 && f[23] == 17; });
  inject(*topo, harness::Fault::Crash(harness::Node::kPrimary).at(sim::Duration::millis(50)));
  topo->run_for(sim::Duration::seconds(60));
  EXPECT_TRUE(client.complete());
  EXPECT_FALSE(client.corrupt());
  EXPECT_EQ(client.connection_failures(), 0);
  EXPECT_GE(topo->world().trace().count("backup", "replica_inferred"), 1u);
  EXPECT_EQ(topo->world().trace().count("backup", "takeover"), 1u);
}

TEST(EndpointTest, FailoverTimeGrowsWithHbPeriod) {
  // Demo 2's shape: failover time is dominated by detection time
  // (miss_threshold x hb_period) plus retransmission alignment, so it must
  // grow monotonically across 200ms / 500ms / 1s.
  sim::Duration stalls[3];
  const sim::Duration periods[3] = {sim::Duration::millis(200),
                                    sim::Duration::millis(500),
                                    sim::Duration::seconds(1)};
  for (int i = 0; i < 3; ++i) {
    TopologyConfig cfg;
    cfg.sttcp.hb_period = periods[i];
    const auto topo = make_figure2(std::move(cfg));
    Cell& cell = topo->cell();
    Topology::HostEntry& client_host = *topo->host_by_name("client");
    app::FileServer p_app(cell.primary_stack(), cell.service_port(), 40'000'000);
    app::FileServer b_app(cell.backup_stack(), cell.service_port(), 40'000'000);
    app::DownloadClient::Options opt;
    opt.expected_bytes = 40'000'000;
    app::DownloadClient client(*client_host.stack, client_host.ip,
                               {cell.connect_addr()}, opt);
    client.start();
    inject(*topo, harness::Fault::Crash(harness::Node::kPrimary).at(sim::Duration::millis(700)));
    topo->run_for(sim::Duration::seconds(120));
    ASSERT_TRUE(client.complete()) << "period " << periods[i].str();
    stalls[i] = client.max_stall();
    // Detection cannot be faster than miss_threshold periods.
    EXPECT_GE(stalls[i], periods[i] * 3) << periods[i].str();
  }
  EXPECT_LT(stalls[0], stalls[1]);
  EXPECT_LT(stalls[1], stalls[2]);
}

TEST(EndpointTest, FailureFreeOverheadIsSmall) {
  // Demo 3's shape: a large transfer with ST-TCP enabled vs plain TCP
  // completes in nearly the same time (HB traffic is ~kbps against a
  // 100 Mbps data path).
  double secs[2];
  for (int pass = 0; pass < 2; ++pass) {
    TopologyConfig cfg;
    cfg.enable_sttcp = (pass == 0);
    const auto topo = make_figure2(std::move(cfg));
    Cell& cell = topo->cell();
    Topology::HostEntry& client_host = *topo->host_by_name("client");
    app::FileServer p_app(cell.primary_stack(), cell.service_port(), 20'000'000);
    app::FileServer b_app(cell.backup_stack(), cell.service_port(), 20'000'000);
    app::DownloadClient::Options opt;
    opt.expected_bytes = 20'000'000;
    app::DownloadClient client(*client_host.stack, client_host.ip,
                               {cell.connect_addr()}, opt);
    client.start();
    topo->run_for(sim::Duration::seconds(60));
    ASSERT_TRUE(client.complete());
    EXPECT_FALSE(client.corrupt());
    secs[pass] = (client.completed_at() - client.started_at()).to_seconds();
  }
  const double overhead = (secs[0] - secs[1]) / secs[1];
  EXPECT_LT(overhead, 0.05) << "with=" << secs[0] << "s plain=" << secs[1] << "s";
  EXPECT_GT(overhead, -0.05);
}

TEST(EndpointTest, ImmediateRetransmitShortensFailover) {
  // Ablation of our extension: takeover with an immediate retransmission
  // beats the paper's wait-for-next-timer behaviour.
  sim::Duration stall[2];
  for (int pass = 0; pass < 2; ++pass) {
    TopologyConfig cfg;
    cfg.sttcp.immediate_retransmit_on_takeover = (pass == 1);
    const auto topo = make_figure2(std::move(cfg));
    Cell& cell = topo->cell();
    Topology::HostEntry& client_host = *topo->host_by_name("client");
    app::FileServer p_app(cell.primary_stack(), cell.service_port(), 40'000'000);
    app::FileServer b_app(cell.backup_stack(), cell.service_port(), 40'000'000);
    app::DownloadClient::Options opt;
    opt.expected_bytes = 40'000'000;
    app::DownloadClient client(*client_host.stack, client_host.ip,
                               {cell.connect_addr()}, opt);
    client.start();
    inject(*topo, harness::Fault::Crash(harness::Node::kPrimary).at(sim::Duration::millis(700)));
    topo->run_for(sim::Duration::seconds(120));
    ASSERT_TRUE(client.complete());
    stall[pass] = client.max_stall();
  }
  EXPECT_LT(stall[1], stall[0]);
}

TEST(EndpointTest, TakeoverWithoutPowerControlStillProceeds) {
  // STONITH failing (management fault) is logged but does not wedge the
  // takeover. (With a truly half-dead primary this would risk dual-active —
  // exactly why the paper powers the primary down; the trace records the
  // failed attempt.)
  const auto topo = make_figure2(TopologyConfig{});
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  topo->power().set_functional(false);
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), 20'000'000);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), 20'000'000);
  app::DownloadClient::Options opt;
  opt.expected_bytes = 20'000'000;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  client.start();
  inject(*topo, harness::Fault::Crash(harness::Node::kPrimary).at(sim::Duration::millis(400)));
  topo->run_for(sim::Duration::seconds(60));
  EXPECT_EQ(topo->world().trace().count("backup", "takeover"), 1u);
  EXPECT_TRUE(client.complete());
}

TEST(EndpointTest, NormalCloseCompletesWithinOneHeartbeat) {
  // §4.2.2: "during normal operation — when neither the primary nor the
  // backup has failed — the FIN is not delayed by MaxDelayFIN." The primary
  // waits at most ~a heartbeat for the backup's FIN notice.
  TopologyConfig cfg;
  cfg.sttcp.max_delay_fin = sim::Duration::seconds(60);
  const auto topo = make_figure2(std::move(cfg));
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), 100'000);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), 100'000);
  app::DownloadClient::Options opt;
  opt.expected_bytes = 100'000;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  client.start();
  topo->run_for(sim::Duration::seconds(5));
  ASSERT_TRUE(client.complete());
  // The whole transfer including close stayed far below MaxDelayFIN.
  EXPECT_LT((client.completed_at() - client.started_at()).to_seconds(), 1.0);
  EXPECT_EQ(topo->world().trace().count("fin_released_after_delay"), 0u);
  // The client heard the server FIN (peer_closed drove completion).
  EXPECT_EQ(topo->world().trace().count("primary", "fin_agreed"), 1u);
}

TEST(EndpointTest, ManyConnectionsHeartbeatStaysUnderSerialBudget) {
  // §3 sizing: at 200 ms HB, 100 connections consume ~80 kbps of the
  // 115.2 kbps serial link. Verify the serial channel still delivers
  // heartbeats with 100 live connections.
  const auto topo = make_figure2(TopologyConfig{});
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  app::StreamServer p_app(cell.primary_stack(), cell.service_port(), 100);
  app::StreamServer b_app(cell.backup_stack(), cell.service_port(), 100);
  std::vector<std::unique_ptr<app::StreamClient>> clients;
  for (int i = 0; i < 100; ++i) {
    clients.push_back(std::make_unique<app::StreamClient>(
        *client_host.stack, client_host.ip, cell.connect_addr(), 100, 1));
    clients.back()->start();
  }
  topo->run_for(sim::Duration::seconds(5));
  EXPECT_EQ(cell.primary_endpoint()->replicated_connections(), 100u);
  EXPECT_TRUE(cell.primary_endpoint()->serial_channel_alive());
  EXPECT_TRUE(cell.backup_endpoint()->serial_channel_alive());
  EXPECT_EQ(topo->world().trace().count("takeover"), 0u);
  EXPECT_EQ(topo->world().trace().count("non_ft_mode"), 0u);
  // Serial link utilisation stays under capacity (queue drains).
  EXPECT_LT(cell.serial().queue_delay(0), sim::Duration::millis(200));
}

TEST(EndpointTest, BeatWithAFullDecisionWindowStillFitsOneUdpDatagram) {
  // 3,050 steady-state records (19 B each, 57,950 B) fit the 60,000 B UDP
  // record budget on their own. Next to the 11-byte header and a full
  // 512-record decision block (8,714 B) the datagram would be 66,675 B,
  // past the 65,507 B an IPv4 datagram can carry: the 16-bit total_length
  // would wrap and the backup drop every periodic beat. The record window
  // shrinks to what fits next to the beat's other bytes instead.
  constexpr std::size_t kConns = 3050;
  DecisionLog log(DecisionLog::Mode::kRecord);
  TopologyConfig cfg;
  cfg.sttcp.serial_max_records = 50;  // the serial copy stays within the line rate
  const auto topo = make_figure2(cfg);
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  cell.primary_stack().listen(cell.service_port(), [](tcp::TcpConnection&) {});
  cell.backup_stack().listen(cell.service_port(), [](tcp::TcpConnection&) {});
  for (std::size_t i = 0; i < kConns; ++i) {
    client_host.stack->connect(client_host.ip, cell.connect_addr(), {});
  }
  topo->run_for(sim::Duration::seconds(2));
  ASSERT_EQ(cell.primary_endpoint()->replicated_connections(), kConns);
  ASSERT_EQ(cell.backup_endpoint()->replicated_connections(), kConns);

  // The backup has no decision log, so it never acks: from here on every
  // primary beat carries the full 512-record decision window.
  cell.primary_endpoint()->set_decision_log(&log);
  for (std::uint64_t i = 0; i < 600; ++i) {
    log.choose(DecisionKind::kTime, [i] { return i; });
  }
  const auto& backup = cell.backup_endpoint()->stats();
  const std::uint64_t received = backup.hb_received_ip;
  const std::uint64_t drops = cell.backup().stats().udp_checksum_drops;
  topo->run_for(sim::Duration::seconds(2));
  EXPECT_GE(backup.hb_received_ip - received, 9u);  // ~5 beats/s, none lost
  EXPECT_EQ(cell.backup().stats().udp_checksum_drops, drops);
  EXPECT_EQ(backup.hb_malformed, 0u);
  EXPECT_TRUE(cell.backup_endpoint()->ip_channel_alive());
  EXPECT_EQ(topo->world().trace().count("takeover"), 0u);
  EXPECT_EQ(topo->world().trace().count("non_ft_mode"), 0u);
}

TEST(EndpointTest, LongFailureFreeSoakNeverMisfires) {
  // Two minutes of mixed traffic with no injected failure: the detectors
  // (lag, FIN arbitration, NIC arbitration, hold buffer) must stay silent.
  const auto topo = make_figure2(TopologyConfig{});
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  app::StreamServer p_stream(cell.primary_stack(), cell.service_port(), 3000);
  app::StreamServer b_stream(cell.backup_stack(), cell.service_port(), 3000);
  app::StreamClient stream_client(*client_host.stack, client_host.ip,
                                  cell.connect_addr(), 3000, 4);
  stream_client.start();
  // Alternate activity with an eventual graceful close to exercise the
  // idle-connection and FIN-agreement paths mid-soak.
  sim::PeriodicTimer idler(topo->world().loop());
  int phase = 0;
  idler.start(sim::Duration::seconds(10), [&] {
    if (++phase == 6) {
      stream_client.stop();  // graceful close at t=60s; idle afterwards
      idler.stop();
    }
  });
  topo->run_for(sim::Duration::seconds(120));
  const auto& tr = topo->world().trace();
  EXPECT_EQ(tr.count("takeover"), 0u) << tr.dump();
  EXPECT_EQ(tr.count("non_ft_mode"), 0u) << tr.dump();
  EXPECT_EQ(tr.count("app_failure_detected"), 0u);
  EXPECT_EQ(tr.count("nic_failure_detected"), 0u);
  EXPECT_EQ(tr.count("hold_overflow"), 0u);
  EXPECT_EQ(tr.count("fin_released_after_delay"), 0u);
  EXPECT_FALSE(stream_client.corrupt());
  EXPECT_TRUE(cell.primary().alive());
  EXPECT_TRUE(cell.backup().alive());
}

}  // namespace
}  // namespace sttcp::sttcp
