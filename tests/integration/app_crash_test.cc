// Demo 4 as tests: application crash failures, both flavours (§4.2),
// on both the primary and the backup (Table 1 rows 2 and 3).
#include <gtest/gtest.h>

#include <memory>

#include "tests/integration/download_rig.h"

namespace sttcp::harness {
namespace {

TopologyConfig quick_lag_cfg() {
  TopologyConfig cfg;
  // Tight app-failure thresholds so tests run in seconds of sim time.
  cfg.sttcp.app_max_lag_bytes = 64 * 1024;
  cfg.sttcp.app_lag_bytes_grace = sim::Duration::millis(500);
  cfg.sttcp.app_max_lag_time = sim::Duration::seconds(2);
  cfg.sttcp.max_delay_fin = sim::Duration::seconds(10);
  return cfg;
}

// --- Table 1 row 2: application failure, no FIN/RST generated ------------------

TEST(AppCrashTest, PrimaryAppHangIsDetectedAndMasked) {
  DownloadRig rig(quick_lag_cfg());
  const std::uint64_t size = 40'000'000;
  rig.start_file_service(size);
  rig.start_download(size);
  // The primary application hangs (no FIN): stops writing mid-transfer.
  rig.topo->world().loop().schedule_after(sim::Duration::millis(500),
                                          [&] { rig.primary_app->hang(); });
  rig.topo->run_for(sim::Duration::seconds(60));

  EXPECT_TRUE(rig.client->complete());
  EXPECT_FALSE(rig.client->corrupt());
  EXPECT_EQ(rig.client->connection_failures(), 0);
  const auto& trace = rig.topo->world().trace();
  EXPECT_EQ(trace.count("backup", "app_failure_detected"), 1u);
  EXPECT_EQ(trace.count("backup", "takeover"), 1u);
  // The hung primary was powered down before the takeover.
  EXPECT_TRUE(trace.strictly_before("stonith", "takeover"));
}

TEST(AppCrashTest, BackupAppHangLeavesPrimaryServing) {
  DownloadRig rig(quick_lag_cfg());
  const std::uint64_t size = 40'000'000;
  rig.start_file_service(size);
  rig.start_download(size);
  rig.topo->world().loop().schedule_after(sim::Duration::millis(500),
                                          [&] { rig.backup_app->hang(); });
  rig.topo->run_for(sim::Duration::seconds(60));

  EXPECT_TRUE(rig.client->complete());
  EXPECT_FALSE(rig.client->corrupt());
  EXPECT_EQ(rig.client->connection_failures(), 0);
  const auto& trace = rig.topo->world().trace();
  EXPECT_EQ(trace.count("primary", "app_failure_detected"), 1u);
  EXPECT_EQ(trace.count("takeover"), 0u);
  EXPECT_EQ(rig.cell.primary_endpoint()->mode(),
            sttcp::StTcpEndpoint::Mode::kNonFaultTolerant);
  // The client barely noticed: the primary never stopped.
  EXPECT_LT(rig.client->max_stall().ms(), 1000);
}

// --- Table 1 row 3: application failure WITH FIN --------------------------------

TEST(AppCrashTest, PrimaryAppCrashWithFinIsDetectedAndMasked) {
  DownloadRig rig(quick_lag_cfg());
  const std::uint64_t size = 40'000'000;
  rig.start_file_service(size);
  rig.start_download(size);
  // OS cleanup: the primary's app dies and its socket is closed (FIN
  // generated mid-file). ST-TCP must withhold that FIN and fail over.
  rig.topo->world().loop().schedule_after(sim::Duration::millis(500),
                                          [&] { rig.primary_app->crash_clean(); });
  rig.topo->run_for(sim::Duration::seconds(60));

  EXPECT_TRUE(rig.client->complete());
  EXPECT_FALSE(rig.client->corrupt());
  EXPECT_EQ(rig.client->connection_failures(), 0);
  const auto& trace = rig.topo->world().trace();
  // The FIN was withheld pending arbitration, then lag detection convicted
  // the primary.
  EXPECT_EQ(trace.count("primary", "fin_delayed"), 1u);
  EXPECT_EQ(trace.count("backup", "takeover"), 1u);
  // The client never saw a premature FIN: the download continued to 100%.
  EXPECT_EQ(rig.client->received(), size);
}

TEST(AppCrashTest, BackupAppCrashWithFinIsDiscarded) {
  DownloadRig rig(quick_lag_cfg());
  const std::uint64_t size = 40'000'000;
  rig.start_file_service(size);
  rig.start_download(size);
  rig.topo->world().loop().schedule_after(sim::Duration::millis(500),
                                          [&] { rig.backup_app->crash_clean(); });
  rig.topo->run_for(sim::Duration::seconds(60));

  EXPECT_TRUE(rig.client->complete());
  EXPECT_FALSE(rig.client->corrupt());
  EXPECT_EQ(rig.client->connection_failures(), 0);
  const auto& trace = rig.topo->world().trace();
  // The backup's failure-FIN never reached the client (suppression), and
  // the primary detected the backup failure and went non-FT.
  EXPECT_EQ(trace.count("takeover"), 0u);
  EXPECT_EQ(rig.cell.primary_endpoint()->mode(),
            sttcp::StTcpEndpoint::Mode::kNonFaultTolerant);
}

TEST(AppCrashTest, PrimaryAppAbortWithRstIsMasked) {
  DownloadRig rig(quick_lag_cfg());
  const std::uint64_t size = 40'000'000;
  rig.start_file_service(size);
  rig.start_download(size);
  rig.topo->world().loop().schedule_after(sim::Duration::millis(500),
                                          [&] { rig.primary_app->crash_abort(); });
  rig.topo->run_for(sim::Duration::seconds(60));

  EXPECT_TRUE(rig.client->complete());
  EXPECT_FALSE(rig.client->corrupt());
  EXPECT_EQ(rig.client->connection_failures(), 0);
  const auto& trace = rig.topo->world().trace();
  EXPECT_EQ(trace.count("primary", "rst_delayed"), 1u);
  EXPECT_EQ(trace.count("backup", "takeover"), 1u);
}

// --- normal close must NOT trigger arbitration delays ---------------------------

TEST(AppCrashTest, NormalCloseIsNotDelayedByMaxDelayFin) {
  DownloadRig rig(quick_lag_cfg());
  const std::uint64_t size = 1'000'000;
  rig.start_file_service(size);
  rig.start_download(size);
  rig.topo->run_for(sim::Duration::seconds(30));

  EXPECT_TRUE(rig.client->complete());
  const auto& trace = rig.topo->world().trace();
  // Both apps closed; the FINs agreed via heartbeat. The primary's FIN may
  // briefly wait for the backup's notice but must never hit MaxDelayFIN.
  EXPECT_EQ(trace.count("fin_released_after_delay"), 0u);
  EXPECT_EQ(trace.count("takeover"), 0u);
  EXPECT_EQ(trace.count("non_ft_mode"), 0u);
  // Transfer time: the close handshake added at most ~one heartbeat period.
  const double secs =
      (rig.client->completed_at() - rig.client->started_at()).to_seconds();
  EXPECT_LT(secs, 1.0);
}

TEST(AppCrashTest, IdleHangDetectedOnNextActivity) {
  // Paper §4.2.1: "In some instances — when there is no activity on the
  // connection — failure detection may be delayed. However, these failures
  // will be detected when the connection is used again."
  DownloadRig rig(quick_lag_cfg());
  auto p_app = std::make_unique<app::StreamServer>(rig.cell.primary_stack(),
                                                   rig.cell.service_port(), 4000);
  auto b_app = std::make_unique<app::StreamServer>(rig.cell.backup_stack(),
                                                   rig.cell.service_port(), 4000);
  app::StreamClient client(*rig.client_host.stack, rig.client_host.ip,
                           rig.cell.connect_addr(), 4000, /*pipeline=*/1);
  client.start();
  rig.topo->run_for(sim::Duration::seconds(1));
  EXPECT_GT(client.records_completed(), 0u);

  // Hang the primary app while the connection is idle (client consumed all
  // records and the pipeline refills lazily): detection only fires once the
  // client asks for more.
  rig.primary_app.reset();
  p_app->hang();
  rig.topo->run_for(sim::Duration::seconds(5));
  // (The stream client keeps requesting, so activity resumes immediately
  // and the hang is detected.)
  EXPECT_EQ(rig.topo->world().trace().count("backup", "takeover"), 1u);
  rig.topo->run_for(sim::Duration::seconds(5));
  EXPECT_FALSE(client.corrupt());
  EXPECT_FALSE(client.closed());
}

}  // namespace
}  // namespace sttcp::harness
