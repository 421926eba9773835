// FaultPlan API: factories, timing builders, repeats, flaps, plans, the
// fault_injected trace/timeline stamping, and Node resolution on a topology
// built directly with TopologyBuilder (no make_figure2).
#include "harness/fault.h"

#include <gtest/gtest.h>

#include "app/client.h"
#include "app/server.h"
#include "harness/topology.h"

namespace sttcp::harness {
namespace {

using namespace sim::literals;

TEST(FaultTest, FactoriesCarryLabels) {
  EXPECT_EQ(Fault::Crash(Node::kPrimary).label(), "crash:primary");
  EXPECT_EQ(Fault::NicFailure(Node::kBackup).label(), "nic_failure:backup");
  EXPECT_EQ(Fault::SerialCut().label(), "serial_cut");
  EXPECT_EQ(Fault::FrameLoss(Node::kClient, 3).label(), "frame_loss:client");
  EXPECT_EQ(Fault::LinkFlap(Node::kGateway, 100_ms).label(), "link_flap:gateway");
  EXPECT_EQ(Fault::Custom("boom", [](Topology&) {}).label(), "boom");
}

TEST(FaultTest, BuildersComposeByValue) {
  const Fault base = Fault::Crash(Node::kPrimary);
  const Fault timed = base.at(2_s).repeat(3, 500_ms);
  EXPECT_EQ(base.when(), sim::Duration::zero());
  EXPECT_EQ(base.times(), 1);
  EXPECT_EQ(timed.when(), 2_s);
  EXPECT_EQ(timed.times(), 3);
  EXPECT_EQ(timed.interval(), 500_ms);
}

TEST(FaultPlanTest, CrashFiresAtTheRequestedTime) {
  const auto topo = make_figure2(TopologyConfig{});
  inject(*topo, Fault::Crash(Node::kPrimary).at(100_ms));
  topo->run_for(99_ms);
  EXPECT_TRUE(topo->cell().primary().alive());
  topo->run_for(2_ms);
  EXPECT_FALSE(topo->cell().primary().alive());
  EXPECT_EQ(topo->world().trace().count("harness", "fault_injected"), 1u);
}

TEST(FaultPlanTest, RepeatSchedulesEveryOccurrence) {
  const auto topo = make_figure2(TopologyConfig{});
  inject(*topo, Fault::FrameLoss(Node::kBackup, 1).at(10_ms).repeat(4, 20_ms));
  topo->run_for(1_s);
  EXPECT_EQ(topo->world().trace().count("harness", "fault_injected"), 4u);
  EXPECT_EQ(topo->world().trace().count("backup", "frame_drop_burst"), 4u);
}

TEST(FaultPlanTest, LinkFlapGoesDownThenUp) {
  const auto topo = make_figure2(TopologyConfig{});
  const net::Link& client_link = *topo->host_by_name("client")->link;
  inject(*topo, Fault::LinkFlap(Node::kClient, 50_ms).at(10_ms));
  topo->run_for(30_ms);
  EXPECT_TRUE(client_link.failed());
  topo->run_for(40_ms);
  EXPECT_FALSE(client_link.failed());
  EXPECT_EQ(topo->world().trace().count("client", "link_down"), 1u);
  EXPECT_EQ(topo->world().trace().count("client", "link_up"), 1u);
}

TEST(FaultPlanTest, SerialCutAndRestore) {
  const auto topo = make_figure2(TopologyConfig{});
  inject(*topo, Fault::SerialCut().at(10_ms));
  inject(*topo, Fault::SerialRestore().at(30_ms));
  topo->run_for(20_ms);
  EXPECT_TRUE(topo->cell().serial().failed());
  topo->run_for(20_ms);
  EXPECT_FALSE(topo->cell().serial().failed());
}

TEST(FaultPlanTest, NicFailureAndRestore) {
  const auto topo = make_figure2(TopologyConfig{});
  inject(*topo, FaultPlan{Fault::NicFailure(Node::kBackup).at(10_ms),
                          Fault::NicRestore(Node::kBackup).at(30_ms)});
  topo->run_for(20_ms);
  EXPECT_TRUE(topo->cell().backup().nic().failed());
  topo->run_for(20_ms);
  EXPECT_FALSE(topo->cell().backup().nic().failed());
}

TEST(FaultPlanTest, PlanInjectsSerialFaultSequence) {
  const auto topo = make_figure2(TopologyConfig{});
  FaultPlan plan;
  plan.add(Fault::LinkDown(Node::kGateway).at(10_ms))
      .add(Fault::LinkUp(Node::kGateway).at(20_ms))
      .add(Fault::Crash(Node::kBackup).at(30_ms));
  EXPECT_EQ(plan.faults().size(), 3u);
  inject(*topo, plan);
  topo->run_for(50_ms);
  EXPECT_FALSE(topo->host_by_name("gateway")->link->failed());
  EXPECT_FALSE(topo->cell().backup().alive());
  EXPECT_EQ(topo->world().trace().count("harness", "fault_injected"), 3u);
}

TEST(FaultPlanTest, CustomFaultSeesTheScenario) {
  const auto topo = make_figure2(TopologyConfig{});
  bool fired = false;
  inject(*topo, Fault::Custom("probe", [&fired](Topology& t) {
                  fired = true;
                  EXPECT_TRUE(t.cell().primary().alive());
                }).at(5_ms));
  topo->run_for(10_ms);
  EXPECT_TRUE(fired);
}

TEST(FaultPlanTest, InjectStampsTimelineWhenMetricsEnabled) {
  TopologyConfig cfg;
  cfg.enable_metrics = true;
  const auto topo = make_figure2(std::move(cfg));
  inject(*topo, Fault::Crash(Node::kPrimary).at(40_ms));
  topo->run_for(100_ms);
  ASSERT_NE(topo->metrics(), nullptr);
  const auto mark = topo->metrics()->timeline().at(obs::Milestone::kFaultInjected);
  ASSERT_TRUE(mark.has_value());
  EXPECT_EQ(*mark, sim::SimTime::zero() + 40_ms);
}

TEST(TopologyConfigTest, PresetsMatchTheirFabric) {
  const TopologyConfig paper = TopologyConfig::Paper2005();
  EXPECT_EQ(paper.link_bandwidth_bps, 100'000'000u);
  EXPECT_EQ(paper.serial_baud, 115200u);
  EXPECT_EQ(paper.sttcp.hb_period, 200_ms);

  const TopologyConfig fast = TopologyConfig::FastNet();
  EXPECT_EQ(fast.link_bandwidth_bps, 1'000'000'000u);
  EXPECT_EQ(fast.sttcp.hb_period, 50_ms);
  EXPECT_LT(fast.link_latency, paper.link_latency);

  // Both presets drive a masked failover end to end.
  for (const TopologyConfig& preset : {paper, fast}) {
    const auto topo = make_figure2(preset);
    Cell& cell = topo->cell();
    Topology::HostEntry& client_host = *topo->host_by_name("client");
    app::FileServer p_app(cell.primary_stack(), cell.service_port(), 2'000'000);
    app::FileServer b_app(cell.backup_stack(), cell.service_port(), 2'000'000);
    app::DownloadClient::Options opt;
    opt.expected_bytes = 2'000'000;
    app::DownloadClient client(*client_host.stack, client_host.ip,
                               {cell.connect_addr()}, opt);
    client.start();
    inject(*topo, Fault::Crash(Node::kPrimary).at(100_ms));
    topo->run_for(sim::Duration::seconds(30));
    EXPECT_TRUE(client.complete());
    EXPECT_FALSE(client.corrupt());
    EXPECT_EQ(client.connection_failures(), 0);
  }
}

// --- faults on a builder-made topology --------------------------------------

/// The flat recipe spelled out with TopologyBuilder: switch, client, cell,
/// gateway, derived MACs. Faults need nothing make_figure2 adds — only cell
/// 0 and plain hosts named "client" and "gateway".
std::unique_ptr<Topology> builder_lan(bool metrics = false) {
  TopologyConfig tc;
  tc.enable_metrics = metrics;
  TopologyBuilder b(tc);
  const int lan = b.add_switch("lan");
  HostOptions client_opt;
  client_opt.with_stack = true;
  b.add_host("client", {10, 0, 0, 1}, lan, client_opt);
  b.add_cell(lan);
  b.add_host("gateway", {10, 0, 0, 254}, lan);
  return b.build();
}

TEST(BuilderFaultTest, CrashKillsCellPrimaryAndStampsTimeline) {
  const auto topo = builder_lan(/*metrics=*/true);
  inject(*topo, Fault::Crash(Node::kPrimary).at(40_ms));
  topo->run_for(39_ms);
  EXPECT_TRUE(topo->cell(0).primary().alive());
  topo->run_for(2_ms);
  EXPECT_FALSE(topo->cell(0).primary().alive());
  EXPECT_TRUE(topo->cell(0).backup().alive());
  const auto mark = topo->metrics()->timeline().at(obs::Milestone::kFaultInjected);
  ASSERT_TRUE(mark.has_value());
  EXPECT_EQ(*mark, sim::SimTime::zero() + 40_ms);
}

TEST(BuilderFaultTest, RepeatFiresEveryOccurrenceOnAPlainHost) {
  const auto topo = builder_lan();
  inject(*topo, Fault::FrameLoss(Node::kClient, 1).at(10_ms).repeat(3, 20_ms));
  topo->run_for(100_ms);
  EXPECT_EQ(topo->world().trace().count("harness", "fault_injected"), 3u);
  EXPECT_EQ(topo->world().trace().count("client", "frame_drop_burst"), 3u);
}

TEST(BuilderFaultTest, CustomReceivesTheSameTopology) {
  const auto topo = builder_lan();
  const Topology* seen = nullptr;
  inject(*topo, Fault::Custom("probe", [&seen](Topology& t) { seen = &t; }).at(5_ms));
  topo->run_for(10_ms);
  EXPECT_EQ(seen, topo.get());
}

TEST(BuilderFaultTest, AppHangReachesTheAppRegisteredOnTheCell) {
  const auto topo = builder_lan();
  Cell& cell = topo->cell(0);
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), 1000);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), 1000);
  cell.register_server_app(cell.primary(), &p_app);
  cell.register_server_app(cell.backup(), &b_app);
  inject(*topo, Fault::AppHang(Node::kPrimary).at(10_ms));
  topo->run_for(20_ms);
  EXPECT_TRUE(p_app.hung());
  EXPECT_FALSE(b_app.hung());
  EXPECT_EQ(topo->world().trace().count("primary", "app_hang"), 1u);
}

TEST(BuilderFaultTest, GroupBackupOnAPlainPairHitsTheClassicBackup) {
  const auto topo = builder_lan();
  inject(*topo, Fault::Crash(Node::kBackup2).at(10_ms));
  topo->run_for(20_ms);
  EXPECT_FALSE(topo->cell(0).backup().alive());
  EXPECT_TRUE(topo->cell(0).primary().alive());
  EXPECT_EQ(topo->world().trace().count("backup", "host_crash"), 1u);
}

}  // namespace
}  // namespace sttcp::harness
