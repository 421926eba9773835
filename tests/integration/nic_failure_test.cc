// Demo 5 as tests: NIC/cable failures at the primary and at the backup
// (Table 1 row 4), plus the dual-heartbeat behaviours of §3 and §4.3.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "harness/fault.h"
#include "tests/integration/download_rig.h"

namespace sttcp::harness {
namespace {

TEST(NicFailureTest, PrimaryNicFailureTriggersTakeoverViaPingArbitration) {
  DownloadRig rig;
  const std::uint64_t size = 40'000'000;
  rig.start_file_service(size);
  rig.start_download(size);
  inject(*rig.topo, Fault::NicFailure(Node::kPrimary).at(sim::Duration::millis(500)));
  rig.topo->run_for(sim::Duration::seconds(60));

  EXPECT_TRUE(rig.client->complete());
  EXPECT_FALSE(rig.client->corrupt());
  EXPECT_EQ(rig.client->connection_failures(), 0);
  const auto& trace = rig.topo->world().trace();
  // Both sides saw IP-HB death, kept the serial HB, and arbitration
  // convicted the primary.
  EXPECT_GE(trace.count("nic_arbitration_start"), 1u);
  EXPECT_EQ(trace.count("backup", "nic_failure_detected"), 1u);
  EXPECT_EQ(trace.count("backup", "takeover"), 1u);
  EXPECT_EQ(trace.count("primary", "nic_failure_detected"), 0u);
}

TEST(NicFailureTest, BackupNicFailureShutsBackupDown) {
  DownloadRig rig;
  const std::uint64_t size = 40'000'000;
  rig.start_file_service(size);
  rig.start_download(size);
  inject(*rig.topo, Fault::NicFailure(Node::kBackup).at(sim::Duration::millis(500)));
  rig.topo->run_for(sim::Duration::seconds(60));

  EXPECT_TRUE(rig.client->complete());
  EXPECT_FALSE(rig.client->corrupt());
  EXPECT_EQ(rig.client->connection_failures(), 0);
  const auto& trace = rig.topo->world().trace();
  EXPECT_EQ(trace.count("primary", "nic_failure_detected"), 1u);
  EXPECT_EQ(trace.count("takeover"), 0u);
  EXPECT_EQ(rig.cell.primary_endpoint()->mode(),
            sttcp::StTcpEndpoint::Mode::kNonFaultTolerant);
  EXPECT_FALSE(rig.cell.backup().alive());  // powered down
  // Client service continued through the primary: tiny stall at most.
  EXPECT_LT(rig.client->max_stall().ms(), 1500);
}

TEST(NicFailureTest, SerialFailureAloneIsHarmless) {
  // Only the serial cable dies: the IP heartbeat continues, no failover.
  DownloadRig rig;
  const std::uint64_t size = 10'000'000;
  rig.start_file_service(size);
  rig.start_download(size);
  inject(*rig.topo, Fault::SerialCut().at(sim::Duration::millis(300)));
  rig.topo->run_for(sim::Duration::seconds(30));

  EXPECT_TRUE(rig.client->complete());
  EXPECT_FALSE(rig.client->corrupt());
  const auto& trace = rig.topo->world().trace();
  EXPECT_EQ(trace.count("takeover"), 0u);
  EXPECT_EQ(trace.count("non_ft_mode"), 0u);
  EXPECT_FALSE(rig.cell.primary_endpoint()->serial_channel_alive());
  EXPECT_TRUE(rig.cell.primary_endpoint()->ip_channel_alive());
}

TEST(NicFailureTest, SingleHeartbeatChannelWouldMisfire) {
  // The §3 motivation for the dual heartbeat: with ONLY the IP channel, a
  // backup NIC failure looks (to the backup) like a dead primary, and the
  // backup would wrongly shut the primary down. With both channels, the
  // serial HB keeps flowing and the backup correctly concludes that only
  // the IP path is gone.
  DownloadRig rig;
  const std::uint64_t size = 40'000'000;
  rig.start_file_service(size);
  rig.start_download(size);
  inject(*rig.topo, Fault::NicFailure(Node::kBackup).at(sim::Duration::millis(500)));
  rig.topo->run_for(sim::Duration::seconds(5));
  // The backup never declared the primary dead, because the serial channel
  // stayed up.
  EXPECT_EQ(rig.topo->world().trace().count("backup", "peer_dead"), 0u);
  EXPECT_EQ(rig.topo->world().trace().count("backup", "takeover"), 0u);
  // The primary stays in charge throughout.
  EXPECT_TRUE(rig.cell.primary().alive());
}

TEST(NicFailureTest, TemporaryLossAtBackupIsRecoveredFromPrimary) {
  // Table 1 row 5: frames to the backup are dropped; the primary has
  // already ACKed those bytes so the client will not retransmit. The backup
  // must fetch them from the primary's hold buffer, and NO failover happens.
  DownloadRig rig;
  const std::uint64_t size = 5'000'000;
  rig.start_file_service(size);

  // Upload direction matters here: use an echo-style workload where the
  // client sends data. StreamClient sends request bytes continuously.
  rig.primary_app.reset();
  rig.backup_app.reset();
  auto p_app = std::make_unique<app::StreamServer>(rig.cell.primary_stack(),
                                                   rig.cell.service_port(), 2000);
  auto b_app = std::make_unique<app::StreamServer>(rig.cell.backup_stack(),
                                                   rig.cell.service_port(), 2000);
  app::StreamClient client(*rig.client_host.stack, rig.client_host.ip,
                           rig.cell.connect_addr(), 2000, /*pipeline=*/8);
  client.start();
  // Drop a burst of frames on the backup's link only.
  inject(*rig.topo, Fault::FrameLoss(Node::kBackup, 12).at(sim::Duration::millis(300)));
  rig.topo->run_for(sim::Duration::seconds(20));

  const auto& trace = rig.topo->world().trace();
  EXPECT_GE(trace.count("backup", "missed_bytes_request"), 1u);
  EXPECT_GE(trace.count("primary", "missed_bytes_served"), 1u);
  EXPECT_GE(trace.count("backup", "missed_bytes_injected"), 1u);
  EXPECT_EQ(trace.count("takeover"), 0u);
  EXPECT_EQ(trace.count("non_ft_mode"), 0u);
  EXPECT_FALSE(client.corrupt());
  EXPECT_GT(client.records_completed(), 100u);
  // And the system can still fail over afterwards (backup state is intact).
  inject(*rig.topo, Fault::Crash(Node::kPrimary).at(sim::Duration::zero()));
  rig.topo->run_for(sim::Duration::seconds(10));
  EXPECT_EQ(trace.count("backup", "takeover"), 1u);
  rig.topo->run_for(sim::Duration::seconds(5));
  EXPECT_FALSE(client.corrupt());
  EXPECT_FALSE(client.closed());
}

TEST(NicFailureTest, HoldBufferOverflowForcesNonFt) {
  // §4.3: "If the additional receive buffer space at the primary fills up,
  // the primary considers the backup failed and runs in non fault-tolerant
  // mode." A fault drops bulk frames toward the backup while heartbeats
  // (small) survive, so the backup keeps confirming an ever-staler position;
  // its recovery replies are bulk too and are lost. The client uploads
  // through the primary, whose hold buffer fills and overflows.
  TopologyConfig cfg;
  // Large enough for steady state (~2.5 MB at line rate per heartbeat), so
  // the overflow below is unambiguously caused by the injected outage.
  cfg.sttcp.hold_buffer_capacity = 6 * 1024 * 1024;
  DownloadRig rig(cfg);
  auto p_app = std::make_unique<app::SinkServer>(rig.cell.primary_stack(),
                                                 rig.cell.service_port());
  auto b_app = std::make_unique<app::SinkServer>(rig.cell.backup_stack(),
                                                 rig.cell.service_port());

  // Upload pump: the client streams pattern bytes to the service address.
  tcp::TcpConnection* conn = nullptr;
  std::uint64_t sent = 0;
  bool upload_failed = false;
  auto pump = [&] {
    while (conn != nullptr) {
      const std::size_t n = conn->send(app::pattern_bytes(sent, 8192));
      sent += n;
      if (n < 8192) break;
    }
  };
  tcp::TcpConnection::Callbacks cb;
  cb.on_established = [&] { pump(); };
  cb.on_writable = [&] { pump(); };
  cb.on_closed = [&](tcp::CloseReason) {
    conn = nullptr;
    upload_failed = true;
  };
  conn = &rig.client_host.stack->connect(rig.client_host.ip,
                                         rig.cell.connect_addr(),
                                         std::move(cb));

  // From t=200ms, bulk frames toward/from the backup are lost; heartbeats
  // and ACK-sized frames survive, so the dual HB stays up.
  rig.topo->world().loop().schedule_after(sim::Duration::millis(200), [&rig] {
    rig.cell.backup_link().set_drop_filter(
        [](const net::Frame& frame) { return frame.size() > 300; });
  });
  rig.topo->run_for(sim::Duration::seconds(30));

  const auto& trace = rig.topo->world().trace();
  EXPECT_GE(trace.count("primary", "hold_overflow"), 1u);
  EXPECT_EQ(rig.cell.primary_endpoint()->mode(),
            sttcp::StTcpEndpoint::Mode::kNonFaultTolerant);
  EXPECT_EQ(trace.count("takeover"), 0u);
  // The upload itself kept running through the primary.
  EXPECT_FALSE(upload_failed);
  EXPECT_GT(sent, 10'000'000u);
}

// A NIC flap that heals before conviction must not leave a stale ping-fail
// streak behind. At N=3 the rank-1 backup shares the serial cable with the
// leader, so its NIC failure opens the leader's gateway-ping window; the
// first flap heals after failed pings were reported, and the second flap
// must again need ping_fail_threshold FRESH failures before the leader
// convicts. A ping interval that is not a multiple of the heartbeat period
// lets the flap heal with failed reports still counted.
TEST(NicFailureTest, GroupNicFlapNeedsFreshPingFailures) {
  TopologyConfig cfg;
  cfg.seed = 5;
  cfg.sttcp.ping_interval = sim::Duration::millis(350);
  CellConfig cell_cfg;
  cell_cfg.extra_backups = 1;
  const auto topo = make_figure2(std::move(cfg), cell_cfg);
  const sttcp::StTcpConfig& sc = topo->config().sttcp;
  const sim::Duration first = sim::Duration::millis(500);
  const sim::Duration heal = sim::Duration::millis(1780);
  const sim::Duration second = sim::Duration::millis(4000);
  inject(*topo, Fault::NicFailure(Node::kBackup).at(first));
  inject(*topo, Fault::NicRestore(Node::kBackup).at(heal));
  inject(*topo, Fault::NicFailure(Node::kBackup).at(second));
  topo->run_for(sim::Duration::seconds(8));

  const auto& tr = topo->world().trace();
  // The backup pinged (and failed) in both windows, and only the second
  // flap was convicted.
  std::vector<sim::SimTime> backup_windows;
  std::optional<sim::SimTime> convicted;
  for (const sim::TraceEntry& e : tr.entries()) {
    if (e.component == "backup" && e.event == "nic_arbitration_start") {
      backup_windows.push_back(e.at);
    }
    if (e.component == "primary" && e.event == "nic_failure_detected" && !convicted) {
      convicted = e.at;
    }
  }
  ASSERT_EQ(backup_windows.size(), 2u) << tr.dump();
  ASSERT_TRUE(convicted.has_value()) << tr.dump();
  const sim::SimTime t0 = sim::SimTime() + second;
  EXPECT_GT(*convicted, t0) << tr.dump();
  // The backup's first failed ping lands ping_timeout after its window
  // opened; the leader counts one failure per heartbeat from then on.
  const sim::Duration fresh =
      sc.ping_timeout + sc.hb_period * (sc.ping_fail_threshold - 1);
  const sim::Duration waited = *convicted - backup_windows[1];
  EXPECT_GE(waited, fresh) << "convicted " << waited.str() << " after the window "
                           << "opened; " << fresh.str() << " needed\n"
                           << tr.dump();
}

}  // namespace
}  // namespace sttcp::harness
