// Routed-fabric integration: the ST-TCP multicast tap crossing a router.
//
// The paper's Figure-2 tap is pure L2 — client traffic fans out to both
// servers because the switch carries a static multicast group. In the
// fabric, the client sits on a different subnet: its packets travel unicast
// to the router, and the router's egress-port ARP entry (service IP ->
// multicast group MAC) re-expands the fan-out on the final hop. These tests
// pin down that the replication contract survives the detour.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "app/server.h"
#include "harness/topology.h"
#include "tcp/connection.h"

namespace sttcp {
namespace {

using harness::CellConfig;
using harness::Topology;
using harness::TopologyBuilder;
using harness::TopologyConfig;

/// Client on 10.0.0.0/24, one ST-TCP cell on 10.1.0.0/24, one router.
struct Fabric {
  explicit Fabric(std::uint64_t seed) {
    TopologyConfig tc;
    tc.seed = seed;
    TopologyBuilder b(tc);
    const int lan0 = b.add_switch("clientlan");
    const int lan1 = b.add_switch("serverlan");
    harness::HostOptions client_opt;
    client_opt.with_stack = true;
    b.add_host("client", {10, 0, 0, 1}, lan0, client_opt);
    CellConfig cc;
    cc.primary_ip = {10, 1, 0, 2};
    cc.backup_ip = {10, 1, 0, 3};
    cc.service_ip = {10, 1, 0, 100};
    cc.gateway_ip = {10, 1, 0, 254};
    b.add_cell(lan1, cc);
    const int r = b.add_router("core");
    b.connect_router(r, lan0, {10, 0, 0, 254});
    b.connect_router(r, lan1, {10, 1, 0, 254});
    topo = b.build();
  }

  void download(std::uint64_t size) {
    harness::Cell& cell = topo->cell(0);
    const std::uint16_t port = cell.service_port();
    servers.emplace_back(
        std::make_unique<app::FileServer>(cell.primary_stack(), port, size));
    servers.emplace_back(
        std::make_unique<app::FileServer>(cell.backup_stack(), port, size));
    tcp::TcpConnection::Callbacks cb;
    cb.on_readable = [this] { received += conn->consume(1 << 20, [](net::BytesView) {}); };
    cb.on_peer_closed = [this] { conn->close(); };
    cb.on_closed = [this](tcp::CloseReason r) {
      if (r == tcp::CloseReason::kReset) reset = true;
    };
    conn = &topo->host(0).stack->connect({10, 0, 0, 1}, cell.connect_addr(),
                                         std::move(cb));
  }

  std::unique_ptr<Topology> topo;
  std::vector<std::unique_ptr<app::FileServer>> servers;
  tcp::TcpConnection* conn = nullptr;
  std::uint64_t received = 0;
  bool reset = false;
};

TEST(FabricTest, TappedSynCrossesRouterAndSeedsBackupReplica) {
  Fabric f(21);
  f.download(100'000);
  f.topo->run_for(sim::Duration::seconds(10));

  // The transfer completed across the router...
  EXPECT_EQ(f.received, 100'000u);
  EXPECT_FALSE(f.reset);
  EXPECT_GT(f.topo->router().stats().forwarded, 0u);
  // ...and the backup — which the client never addressed — saw the tapped
  // SYN on the far side of the router and built its shadow replica.
  EXPECT_GE(f.topo->cell(0).backup_endpoint()->stats().replicas_created, 1u);
  EXPECT_GE(f.topo->cell(0).backup_stack().stats().replicas_created, 1u);
}

TEST(FabricTest, FailoverAcrossRouterIsMaskedFromTheClient) {
  Fabric f(22);
  f.download(2'000'000);
  f.topo->world().loop().schedule_after(
      sim::Duration::millis(400),
      [&f] { f.topo->cell(0).primary().crash("fabric test"); });
  f.topo->run_for(sim::Duration::seconds(60));

  EXPECT_EQ(f.received, 2'000'000u);
  EXPECT_FALSE(f.reset);
  EXPECT_EQ(f.topo->cell(0).backup_endpoint()->stats().takeovers, 1u);
  // The takeover's gratuitous traffic and the continued stream all route
  // back through the same fabric.
  EXPECT_GT(f.topo->world().trace().count("takeover"), 0u);
}

TEST(FabricTest, TwoCellsFailIndependentlyAcrossTheFabric) {
  // Two cells on separate server LANs behind one router: crashing cell 0's
  // primary must not disturb cell 1's transfer at all.
  TopologyConfig tc;
  tc.seed = 23;
  TopologyBuilder b(tc);
  const int lan0 = b.add_switch("clientlan");
  const int lanA = b.add_switch("shard0lan");
  const int lanB = b.add_switch("shard1lan");
  harness::HostOptions client_opt;
  client_opt.with_stack = true;
  b.add_host("client", {10, 0, 0, 1}, lan0, client_opt);
  for (int k = 0; k < 2; ++k) {
    CellConfig cc;
    cc.name = "s" + std::to_string(k);
    const auto subnet = static_cast<std::uint8_t>(k + 1);
    cc.primary_ip = {10, subnet, 0, 2};
    cc.backup_ip = {10, subnet, 0, 3};
    cc.service_ip = {10, subnet, 0, 100};
    cc.gateway_ip = {10, subnet, 0, 254};
    cc.power_controller = b.add_power_controller();
    b.add_cell(k == 0 ? lanA : lanB, cc);
  }
  const int r = b.add_router("core");
  b.connect_router(r, lan0, {10, 0, 0, 254});
  b.connect_router(r, lanA, {10, 1, 0, 254});
  b.connect_router(r, lanB, {10, 2, 0, 254});
  auto topo = b.build();

  const std::uint64_t size = 1'000'000;
  std::vector<std::unique_ptr<app::FileServer>> servers;
  std::uint64_t received[2] = {0, 0};
  bool reset[2] = {false, false};
  tcp::TcpConnection* conns[2] = {nullptr, nullptr};
  for (int k = 0; k < 2; ++k) {
    harness::Cell& cell = topo->cell(static_cast<std::size_t>(k));
    servers.emplace_back(std::make_unique<app::FileServer>(
        cell.primary_stack(), cell.service_port(), size));
    servers.emplace_back(std::make_unique<app::FileServer>(
        cell.backup_stack(), cell.service_port(), size));
    tcp::TcpConnection::Callbacks cb;
    cb.on_readable = [&, k] { received[k] += conns[k]->consume(1 << 20, [](net::BytesView) {}); };
    cb.on_peer_closed = [&, k] { conns[k]->close(); };
    cb.on_closed = [&, k](tcp::CloseReason r) {
      if (r == tcp::CloseReason::kReset) reset[k] = true;
    };
    conns[k] = &topo->host(0).stack->connect({10, 0, 0, 1}, cell.connect_addr(),
                                             std::move(cb));
  }
  topo->world().loop().schedule_after(
      sim::Duration::millis(400),
      [&topo] { topo->cell(0).primary().crash("shard 0 dies"); });
  topo->run_for(sim::Duration::seconds(60));

  EXPECT_EQ(received[0], size);
  EXPECT_EQ(received[1], size);
  EXPECT_FALSE(reset[0]);
  EXPECT_FALSE(reset[1]);
  EXPECT_EQ(topo->cell(0).backup_endpoint()->stats().takeovers, 1u);
  EXPECT_EQ(topo->cell(1).backup_endpoint()->stats().takeovers, 0u);
}

}  // namespace
}  // namespace sttcp
