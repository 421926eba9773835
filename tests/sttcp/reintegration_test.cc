// Reintegration: a failed-over pair returns to full fault tolerance while
// client transfers stay in flight.
//
//   crash one server ─► survivor runs alone (takeover / non-FT)
//   Fault::PowerOn    ─► rejoiner solicits a snapshot over the heartbeat
//   snapshot transfer ─► app checkpoint staged + replicas adopted mid-stream
//   ready/commit      ─► both endpoints back in kReplicating
//
// Covers: the happy path on an idle pair, mid-transfer revival with a second
// crash afterwards (the pair must survive it), snapshot retry under frame
// loss, PowerOn as a no-op on a live host, and checkpoint codec robustness.
#include <gtest/gtest.h>

#include "app/client.h"
#include "app/server.h"
#include "harness/fault.h"
#include "harness/topology.h"
#include "net/headers.h"
#include "sttcp/messages.h"

namespace sttcp::harness {
namespace {

using Mode = sttcp::StTcpEndpoint::Mode;

void wire_checkpoints(Cell& cell, app::ServerApp& p_app, app::ServerApp& b_app) {
  cell.primary_endpoint()->set_checkpoint_provider(
      [&p_app] { return p_app.checkpoint(); });
  cell.primary_endpoint()->set_checkpoint_restorer(
      [&p_app](net::BytesView d) { p_app.stage_restore(d); });
  cell.backup_endpoint()->set_checkpoint_provider(
      [&b_app] { return b_app.checkpoint(); });
  cell.backup_endpoint()->set_checkpoint_restorer(
      [&b_app](net::BytesView d) { b_app.stage_restore(d); });
}

TEST(ReintegrationTest, RebootedBackupRejoinsIdlePair) {
  TopologyConfig cfg;
  cfg.seed = 1;
  cfg.enable_metrics = true;
  const auto topo = make_figure2(std::move(cfg));
  Cell& cell = topo->cell();
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), 1'000'000);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), 1'000'000);
  wire_checkpoints(cell, p_app, b_app);

  inject(*topo, Fault::Crash(Node::kBackup).at(sim::Duration::millis(500)));
  inject(*topo, Fault::PowerOn(Node::kBackup).at(sim::Duration::seconds(3)));
  topo->run_for(sim::Duration::seconds(6));

  const auto& tr = topo->world().trace();
  EXPECT_EQ(tr.count("primary", "non_ft_mode"), 1u) << tr.dump();
  EXPECT_EQ(tr.count("backup", "rejoin_start"), 1u);
  EXPECT_EQ(tr.count("primary", "reintegration_start"), 1u);
  EXPECT_EQ(tr.count("primary", "reintegration_complete"), 1u);
  EXPECT_EQ(tr.count("backup", "rejoin_complete"), 1u);
  EXPECT_TRUE(tr.strictly_before("reintegration_start", "reintegration_complete"));

  ASSERT_NE(cell.primary_endpoint(), nullptr);
  ASSERT_NE(cell.backup_endpoint(), nullptr);
  EXPECT_EQ(cell.primary_endpoint()->mode(), Mode::kReplicating);
  EXPECT_EQ(cell.backup_endpoint()->mode(), Mode::kReplicating);
  EXPECT_EQ(cell.primary_endpoint()->stats().reintegrations, 1u);
  EXPECT_EQ(cell.backup_endpoint()->stats().rejoins, 1u);

  // The timeline milestones ride along in the JSON export.
  const std::string json = topo->metrics_json();
  EXPECT_NE(json.find("reintegration_start"), std::string::npos) << json;
  EXPECT_NE(json.find("reintegration_complete"), std::string::npos) << json;
}

TEST(ReintegrationTest, RevivedPrimaryRejoinsMidTransferAndSurvivesSecondCrash) {
  TopologyConfig cfg;
  cfg.seed = 2;
  const auto topo = make_figure2(std::move(cfg));
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  const std::uint64_t size = 80'000'000;  // ~7 s at Fast Ethernet
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), size);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), size);
  wire_checkpoints(cell, p_app, b_app);
  app::DownloadClient::Options opt;
  opt.expected_bytes = size;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  client.start();

  // First failure: the primary dies mid-transfer; the backup takes over.
  inject(*topo, Fault::Crash(Node::kPrimary).at(sim::Duration::millis(800)));
  // Revival: the old primary returns with blank RAM and rejoins as backup —
  // while the (now much further along) transfer keeps flowing.
  inject(*topo, Fault::PowerOn(Node::kPrimary).at(sim::Duration::seconds(3)));

  const auto& tr = topo->world().trace();
  const sim::SimTime deadline = topo->world().now() + sim::Duration::seconds(8);
  while (tr.count("reintegration_complete") == 0 && topo->world().now() < deadline) {
    topo->run_for(sim::Duration::millis(100));
  }
  ASSERT_EQ(tr.count("backup", "reintegration_complete"), 1u) << tr.dump();
  ASSERT_EQ(tr.count("primary", "rejoin_complete"), 1u);
  EXPECT_FALSE(client.complete());  // the transfer really was still in flight
  // The mid-stream connection travelled in the snapshot and was adopted.
  EXPECT_GE(cell.primary_endpoint()->stats().snapshot_conns_adopted, 1u);
  EXPECT_EQ(cell.backup_endpoint()->mode(), Mode::kReplicating);
  EXPECT_EQ(cell.primary_endpoint()->mode(), Mode::kReplicating);

  // Second failure: the survivor of the first crash dies. The rejoined
  // ex-primary must take over and finish the transfer.
  inject(*topo, Fault::Crash(Node::kBackup).at(sim::Duration::millis(300)));
  topo->run_for(sim::Duration::seconds(120));

  EXPECT_TRUE(client.complete()) << tr.dump();
  EXPECT_FALSE(client.corrupt());
  EXPECT_EQ(client.connection_failures(), 0);
  EXPECT_EQ(client.received(), size);
  EXPECT_EQ(tr.count("backup", "takeover"), 1u);
  EXPECT_EQ(tr.count("primary", "takeover"), 1u);
  EXPECT_EQ(cell.primary_endpoint()->mode(), Mode::kTakenOver);
}

TEST(ReintegrationTest, SnapshotRetrySurvivesFrameLoss) {
  TopologyConfig cfg;
  cfg.seed = 3;
  cfg.sttcp.reintegration_retry = sim::Duration::millis(150);
  const auto topo = make_figure2(std::move(cfg));
  Cell& cell = topo->cell();
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), 1'000'000);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), 1'000'000);
  wire_checkpoints(cell, p_app, b_app);

  inject(*topo, Fault::Crash(Node::kBackup).at(sim::Duration::millis(500)));
  // Burn the survivor's Ethernet frames exactly when the rejoiner comes
  // back: the rejoin request still arrives (serial heartbeat), but the
  // UDP snapshot is lost and must be re-sent until one lands.
  inject(*topo, Fault::FrameLoss(Node::kPrimary, 30).at(sim::Duration::seconds(3)));
  inject(*topo, Fault::PowerOn(Node::kBackup).at(sim::Duration::seconds(3)));
  topo->run_for(sim::Duration::seconds(15));

  const auto& tr = topo->world().trace();
  EXPECT_EQ(tr.count("primary", "reintegration_complete"), 1u) << tr.dump();
  EXPECT_GE(tr.count("primary", "snapshot_sent"), 2u);  // at least one retry
  EXPECT_EQ(cell.primary_endpoint()->mode(), Mode::kReplicating);
  EXPECT_EQ(cell.backup_endpoint()->mode(), Mode::kReplicating);
}

// --- replication groups (N = 3) -------------------------------------------

void wire_member_checkpoints(Cell& cell, int member, app::ServerApp& app) {
  sttcp::StTcpEndpoint* ep = member == 0 ? cell.primary_endpoint()
                                         : cell.backup_endpoint(member - 1);
  ep->set_checkpoint_provider([&app] { return app.checkpoint(); });
  ep->set_checkpoint_restorer(
      [&app](net::BytesView d) { app.stage_restore(d); });
}

// A convicted-and-revived leader rejoins a 1+2 group mid-transfer and
// re-enters at the LOWEST promotion rank: the group's survivors keep their
// seniority, the homecomer starts over at the back of the line.
TEST(GroupReintegrationTest, RevivedLeaderRejoinsAtLowestRankMidTransfer) {
  TopologyConfig cfg;
  cfg.seed = 21;
  CellConfig cell_cfg;
  cell_cfg.extra_backups = 1;
  const auto topo = make_figure2(std::move(cfg), cell_cfg);
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  const std::uint64_t size = 80'000'000;  // ~7 s at Fast Ethernet
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), size);
  app::FileServer b_app(cell.backup_stack(0), cell.service_port(), size);
  app::FileServer b2_app(cell.backup_stack(1), cell.service_port(), size);
  wire_member_checkpoints(cell, 0, p_app);
  wire_member_checkpoints(cell, 1, b_app);
  wire_member_checkpoints(cell, 2, b2_app);
  app::DownloadClient::Options opt;
  opt.expected_bytes = size;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  client.start();

  inject(*topo, Fault::Crash(Node::kPrimary).at(sim::Duration::millis(800)));
  inject(*topo, Fault::PowerOn(Node::kPrimary).at(sim::Duration::seconds(3)));

  const auto& tr = topo->world().trace();
  const sim::SimTime deadline = topo->world().now() + sim::Duration::seconds(10);
  while (tr.count("primary", "rejoin_complete") == 0 &&
         topo->world().now() < deadline) {
    topo->run_for(sim::Duration::millis(100));
  }
  ASSERT_EQ(tr.count("primary", "rejoin_complete"), 1u) << tr.dump();
  EXPECT_FALSE(client.complete());  // the transfer really was still in flight

  // rank-1 (backup) won the promotion; backup2 kept rank 1; the homecoming
  // ex-leader is the junior member.
  EXPECT_EQ(tr.count("backup", "promoted"), 1u) << tr.dump();
  sttcp::StTcpEndpoint* leader = cell.backup_endpoint(0);
  ASSERT_NE(leader, nullptr);
  EXPECT_TRUE(leader->is_group_leader());
  EXPECT_EQ(leader->promotion_rank(), 0);
  EXPECT_EQ(cell.backup_endpoint(1)->promotion_rank(), 1);
  EXPECT_EQ(cell.primary_endpoint()->promotion_rank(), 2);
  EXPECT_EQ(cell.primary_endpoint()->mode(), Mode::kReplicating);

  // The group is back at full strength: let the transfer finish clean.
  topo->run_for(sim::Duration::seconds(120));
  EXPECT_TRUE(client.complete()) << tr.dump();
  EXPECT_FALSE(client.corrupt());
  EXPECT_EQ(client.connection_failures(), 0);
}

// A second member dies WHILE the leader is mid-snapshot serving a rejoiner:
// the group must keep masking — the stream never stalls past failover and
// the client finishes bit-exact.
TEST(GroupReintegrationTest, SecondFailureDuringSnapshotStillMasked) {
  TopologyConfig cfg;
  cfg.seed = 22;
  CellConfig cell_cfg;
  cell_cfg.extra_backups = 1;
  cfg.sttcp.reintegration_retry = sim::Duration::millis(200);
  const auto topo = make_figure2(std::move(cfg), cell_cfg);
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  const std::uint64_t size = 80'000'000;
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), size);
  app::FileServer b_app(cell.backup_stack(0), cell.service_port(), size);
  app::FileServer b2_app(cell.backup_stack(1), cell.service_port(), size);
  wire_member_checkpoints(cell, 0, p_app);
  wire_member_checkpoints(cell, 1, b_app);
  wire_member_checkpoints(cell, 2, b2_app);
  app::DownloadClient::Options opt;
  opt.expected_bytes = size;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  client.start();

  // backup2 dies and comes back; while its snapshot is (re)transferring, the
  // rank-1 backup dies too. The leader keeps serving the client throughout.
  inject(*topo, Fault::Crash(Node::kBackup2).at(sim::Duration::millis(800)));
  inject(*topo, Fault::PowerOn(Node::kBackup2).at(sim::Duration::seconds(3)));
  inject(*topo, Fault::Crash(Node::kBackup).at(sim::Duration::millis(3050)));

  topo->run_for(sim::Duration::seconds(120));
  const auto& tr = topo->world().trace();
  EXPECT_TRUE(client.complete()) << tr.dump();
  EXPECT_FALSE(client.corrupt());
  EXPECT_EQ(client.connection_failures(), 0);
  EXPECT_EQ(client.received(), size);
  // The leader never lost the connection: no takeover, no promotion.
  EXPECT_EQ(tr.count("takeover"), 0u) << tr.dump();
  EXPECT_TRUE(cell.primary_endpoint()->is_group_leader());
  // backup2 made it back in (possibly after snapshot retries).
  EXPECT_EQ(tr.count("backup2", "rejoin_complete"), 1u) << tr.dump();
  EXPECT_EQ(cell.backup_endpoint(1)->mode(), Mode::kReplicating);
}

// Server-to-server datagrams seen at the switch, parsed with the protocol's
// own codecs (docs/GROUPS.md §1: the group wire is a strict superset of the
// pair's).
struct WireCensus {
  std::uint64_t heartbeats = 0;
  std::uint64_t group_heartbeats = 0;  // group_valid: the view block
  std::uint64_t control = 0;
  std::uint64_t group_control = 0;  // types 8-10: promotion and views
  std::uint64_t unparsed = 0;
};

void tap_wire(Topology& topo, WireCensus& census) {
  const sttcp::StTcpConfig& sc = topo.config().sttcp;
  topo.ethernet_switch().set_frame_tap([&census, hb = sc.hb_port,
                                        ctl = sc.control_port](
                                           sim::SimTime, const net::Frame& f) {
    const net::ParsedFrame p = net::parse_frame(f.view());
    if (!p.ip || p.ip->protocol != net::kIpProtoUdp) return;
    net::ByteReader r(p.l4);
    const net::UdpHeader udp = net::UdpHeader::read(r);
    const net::BytesView payload = p.l4.subspan(net::UdpHeader::kSize);
    if (udp.dst_port == hb) {
      const auto beat = sttcp::HbView::parse(payload);
      if (!beat) {
        ++census.unparsed;
        return;
      }
      ++census.heartbeats;
      if (beat->header.group_valid) ++census.group_heartbeats;
    } else if (udp.dst_port == ctl) {
      ++census.control;
      // Snapshot datagrams (types 3-7) have their own codec
      // (reintegration.cc); every other type must parse.
      const std::uint8_t type = payload.empty() ? 0 : payload[0];
      if (type >= static_cast<std::uint8_t>(sttcp::ControlType::kSnapshotBegin) &&
          type <= static_cast<std::uint8_t>(sttcp::ControlType::kRejoinCommit)) {
        return;
      }
      const auto msg = sttcp::ControlMsg::parse(payload);
      if (!msg) {
        ++census.unparsed;
        return;
      }
      if (msg->type == sttcp::ControlType::kPromoteRequest ||
          msg->type == sttcp::ControlType::kPromoteAck ||
          msg->type == sttcp::ControlType::kViewAnnounce) {
        ++census.group_control;
      }
    }
  });
}

// A pair is a two-member roster on the group's peer table, but its wire
// stays the paper's: through a takeover, a reintegration and a second
// takeover, no heartbeat carries the view block and no control datagram is
// a promotion or view type.
TEST(WireSplitTest, PairNeverSendsGroupWire) {
  TopologyConfig cfg;
  cfg.seed = 2;
  const auto topo = make_figure2(std::move(cfg));
  WireCensus census;
  tap_wire(*topo, census);
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  const std::uint64_t size = 40'000'000;
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), size);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), size);
  wire_checkpoints(cell, p_app, b_app);
  app::DownloadClient::Options opt;
  opt.expected_bytes = size;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  client.start();
  inject(*topo, Fault::Crash(Node::kPrimary).at(sim::Duration::millis(800)));
  inject(*topo, Fault::PowerOn(Node::kPrimary).at(sim::Duration::seconds(2)));
  inject(*topo, Fault::Crash(Node::kBackup).at(sim::Duration::seconds(5)));
  topo->run_for(sim::Duration::seconds(60));

  const auto& tr = topo->world().trace();
  ASSERT_EQ(tr.count("backup", "takeover"), 1u) << tr.dump();
  ASSERT_EQ(tr.count("primary", "rejoin_complete"), 1u) << tr.dump();
  ASSERT_EQ(tr.count("primary", "takeover"), 1u) << tr.dump();
  EXPECT_TRUE(client.complete());
  EXPECT_GT(census.heartbeats, 20u);
  EXPECT_GT(census.control, 0u);  // the snapshot and its commit
  EXPECT_EQ(census.unparsed, 0u);
  EXPECT_EQ(census.group_heartbeats, 0u);
  EXPECT_EQ(census.group_control, 0u);
}

// The same tap on a 1+2 group losing its leader and rank-1 backup at once:
// the view block rides every heartbeat and the survivor's promotion shows
// up as control types 8-10.
TEST(WireSplitTest, GroupDoubleFailureSendsGroupWire) {
  TopologyConfig cfg;
  cfg.seed = 11;
  CellConfig cell_cfg;
  cell_cfg.extra_backups = 1;
  const auto topo = make_figure2(std::move(cfg), cell_cfg);
  WireCensus census;
  tap_wire(*topo, census);
  inject(*topo, Fault::Crash(Node::kPrimary).at(sim::Duration::millis(400)));
  inject(*topo, Fault::Crash(Node::kBackup).at(sim::Duration::millis(400)));
  topo->run_for(sim::Duration::seconds(5));

  ASSERT_EQ(topo->world().trace().count("backup2", "promoted"), 1u)
      << topo->world().trace().dump();
  EXPECT_GT(census.heartbeats, 10u);
  EXPECT_EQ(census.unparsed, 0u);
  EXPECT_EQ(census.group_heartbeats, census.heartbeats);
  EXPECT_GT(census.group_control, 0u);
}

TEST(ReintegrationTest, PowerOnIsNoOpOnLiveHost) {
  TopologyConfig cfg;
  cfg.seed = 4;
  const auto topo = make_figure2(std::move(cfg));
  Cell& cell = topo->cell();
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), 1'000'000);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), 1'000'000);
  wire_checkpoints(cell, p_app, b_app);

  inject(*topo, Fault::PowerOn(Node::kBackup).at(sim::Duration::millis(100)));
  topo->run_for(sim::Duration::seconds(2));

  const auto& tr = topo->world().trace();
  EXPECT_EQ(tr.count("rejoin_start"), 0u) << tr.dump();
  EXPECT_EQ(tr.count("host_boot"), 0u);
  EXPECT_EQ(cell.primary_endpoint()->mode(), Mode::kReplicating);
  EXPECT_EQ(cell.backup_endpoint()->mode(), Mode::kReplicating);
}

TEST(ReintegrationTest, CheckpointCodecIsRobust) {
  TopologyConfig cfg;
  cfg.seed = 5;
  const auto topo = make_figure2(std::move(cfg));
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  const std::uint64_t size = 20'000'000;
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), size);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), size);
  app::DownloadClient::Options opt;
  opt.expected_bytes = size;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  client.start();
  topo->run_for(sim::Duration::seconds(1));

  // Mid-transfer checkpoint carries the live connection's serve state.
  const net::Bytes snap = p_app.checkpoint();
  EXPECT_GT(snap.size(), 2u);

  // A valid checkpoint stages cleanly; garbage is rejected without throwing.
  b_app.stage_restore(snap);
  b_app.stage_restore(net::Bytes{0xff, 0x01, 0x02});
  b_app.stage_restore(net::Bytes{});
  topo->run_for(sim::Duration::seconds(5));
  EXPECT_TRUE(client.complete());
  EXPECT_FALSE(client.corrupt());
}

}  // namespace
}  // namespace sttcp::harness
