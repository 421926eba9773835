// Table 1 of the paper, as a parameterized test matrix: every single-failure
// scenario, at both locations, must produce the listed symptom and recovery
// action. The benchmark bench_table1_scenarios prints the same matrix as a
// human-readable table.
#include <gtest/gtest.h>

#include <memory>

#include "app/client.h"
#include "app/server.h"
#include "harness/fault.h"
#include "harness/topology.h"

namespace sttcp::harness {
namespace {

enum class Failure {
  kHwOsCrash,       // row 1
  kAppHang,         // row 2 (no FIN)
  kAppCrashFin,     // row 3 (FIN generated)
  kAppCrashRst,     // row 3 (RST variant)
  kNic,             // row 4
  kTemporaryLoss,   // row 5
};

enum class Location { kPrimary, kBackup };

struct Table1Case {
  Failure failure;
  Location location;
  const char* name;
};

const Table1Case kCases[] = {
    {Failure::kHwOsCrash, Location::kPrimary, "row1_hwos_primary"},
    {Failure::kHwOsCrash, Location::kBackup, "row1_hwos_backup"},
    {Failure::kAppHang, Location::kPrimary, "row2_apphang_primary"},
    {Failure::kAppHang, Location::kBackup, "row2_apphang_backup"},
    {Failure::kAppCrashFin, Location::kPrimary, "row3_appfin_primary"},
    {Failure::kAppCrashFin, Location::kBackup, "row3_appfin_backup"},
    {Failure::kAppCrashRst, Location::kPrimary, "row3_apprst_primary"},
    {Failure::kAppCrashRst, Location::kBackup, "row3_apprst_backup"},
    {Failure::kNic, Location::kPrimary, "row4_nic_primary"},
    {Failure::kNic, Location::kBackup, "row4_nic_backup"},
    {Failure::kTemporaryLoss, Location::kPrimary, "row5_loss_primary"},
    {Failure::kTemporaryLoss, Location::kBackup, "row5_loss_backup"},
};

struct Outcome {
  bool client_completed = false;
  bool client_corrupt = true;
  int client_failures = -1;
  bool takeover = false;
  bool non_ft = false;
  bool recovery_used = false;
  std::string detection_event;
};

/// Runs one Table-1 scenario with the standard download workload and
/// returns what happened.
Outcome run_case(const Table1Case& c, std::uint64_t seed = 1) {
  TopologyConfig cfg;
  cfg.seed = seed;
  cfg.sttcp.max_delay_fin = sim::Duration::seconds(30);
  const auto topo = make_figure2(std::move(cfg));
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  // Bidirectional workload so every detector has signal: a record stream
  // driven by client request bytes.
  app::StreamServer p_app(cell.primary_stack(), cell.service_port(), 4000);
  app::StreamServer b_app(cell.backup_stack(), cell.service_port(), 4000);
  app::StreamClient client(*client_host.stack, client_host.ip, cell.connect_addr(),
                           4000, /*pipeline=*/8);
  client.start();

  const auto inject_at = sim::Duration::millis(500);
  switch (c.failure) {
    case Failure::kHwOsCrash:
      if (c.location == Location::kPrimary) {
        inject(*topo, Fault::Crash(Node::kPrimary).at(inject_at));
      } else {
        inject(*topo, Fault::Crash(Node::kBackup).at(inject_at));
      }
      break;
    case Failure::kAppHang:
      topo->world().loop().schedule_after(inject_at, [&] {
        (c.location == Location::kPrimary ? p_app : b_app).hang();
      });
      break;
    case Failure::kAppCrashFin:
      topo->world().loop().schedule_after(inject_at, [&] {
        (c.location == Location::kPrimary ? p_app : b_app).crash_clean();
      });
      break;
    case Failure::kAppCrashRst:
      topo->world().loop().schedule_after(inject_at, [&] {
        (c.location == Location::kPrimary ? p_app : b_app).crash_abort();
      });
      break;
    case Failure::kNic:
      if (c.location == Location::kPrimary) {
        inject(*topo, Fault::NicFailure(Node::kPrimary).at(inject_at));
      } else {
        inject(*topo, Fault::NicFailure(Node::kBackup).at(inject_at));
      }
      break;
    case Failure::kTemporaryLoss:
      if (c.location == Location::kPrimary) {
        // Loss toward the primary: plain TCP handles it (client retransmits
        // because the primary never ACKed).
        topo->world().loop().schedule_after(inject_at,
                                            [&] { cell.primary_link().drop_next(10); });
      } else {
        inject(*topo, Fault::FrameLoss(Node::kBackup, 10).at(inject_at));
      }
      break;
  }

  topo->run_for(sim::Duration::seconds(30));
  client.stop();
  topo->run_for(sim::Duration::seconds(5));

  Outcome out;
  out.client_completed = client.records_completed() > 1000;
  out.client_corrupt = client.corrupt();
  out.client_failures = client.closed() ? 0 : 0;  // stream clients stay open
  const auto& tr = topo->world().trace();
  out.takeover = tr.count("takeover") > 0;
  out.non_ft = tr.count("non_ft_mode") > 0;
  out.recovery_used = tr.count("missed_bytes_injected") > 0;
  for (const char* ev : {"peer_dead", "app_failure_detected", "nic_failure_detected",
                         "fin_disagreement", "hold_overflow"}) {
    if (tr.count(ev) > 0) {
      out.detection_event = ev;
      break;
    }
  }
  return out;
}

class Table1Test : public ::testing::TestWithParam<Table1Case> {};

TEST_P(Table1Test, SymptomAndRecoveryMatchPaper) {
  const Table1Case& c = GetParam();
  const Outcome out = run_case(c);

  // Universal guarantees: the client's stream is intact and kept flowing.
  EXPECT_TRUE(out.client_completed) << c.name;
  EXPECT_FALSE(out.client_corrupt) << c.name;

  const bool primary_failed = c.location == Location::kPrimary;
  switch (c.failure) {
    case Failure::kHwOsCrash:
      EXPECT_EQ(out.detection_event, "peer_dead") << c.name;
      EXPECT_EQ(out.takeover, primary_failed) << c.name;
      EXPECT_EQ(out.non_ft, !primary_failed) << c.name;
      break;
    case Failure::kAppHang:
      EXPECT_EQ(out.detection_event, "app_failure_detected") << c.name;
      EXPECT_EQ(out.takeover, primary_failed) << c.name;
      EXPECT_EQ(out.non_ft, !primary_failed) << c.name;
      break;
    case Failure::kAppCrashFin:
    case Failure::kAppCrashRst:
      // Detection via lag during the withheld-FIN window.
      EXPECT_EQ(out.detection_event, "app_failure_detected") << c.name;
      EXPECT_EQ(out.takeover, primary_failed) << c.name;
      EXPECT_EQ(out.non_ft, !primary_failed) << c.name;
      break;
    case Failure::kNic:
      EXPECT_EQ(out.detection_event, "nic_failure_detected") << c.name;
      EXPECT_EQ(out.takeover, primary_failed) << c.name;
      EXPECT_EQ(out.non_ft, !primary_failed) << c.name;
      break;
    case Failure::kTemporaryLoss:
      // No failover either way; backup-side loss exercises the recovery
      // protocol, primary-side loss is ordinary TCP retransmission.
      EXPECT_FALSE(out.takeover) << c.name;
      EXPECT_FALSE(out.non_ft) << c.name;
      if (c.location == Location::kBackup) {
        EXPECT_TRUE(out.recovery_used) << c.name;
      }
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(AllRows, Table1Test, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<Table1Case>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace sttcp::harness
