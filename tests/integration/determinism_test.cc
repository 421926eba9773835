// Determinism regression: a fixed-seed scenario must be bit-identical run
// to run — the full event trace, every frame on the LAN, and the exact byte
// stream the client observes. This pins down the zero-copy frame path and
// the event-loop rewrite: any ordering change in the switch fan-out or the
// timer heap shows up here as a trace diff.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include <memory>
#include <vector>

#include "app/client.h"
#include "app/server.h"
#include "harness/fault.h"
#include "harness/sweep.h"
#include "harness/topology.h"
#include "harness/workload.h"
#include "net/frame.h"
#include "tcp/connection.h"

namespace sttcp {
namespace {

struct RunRecord {
  std::string trace;          // full trace dump, line per event
  net::Bytes client_bytes;    // exact byte stream the client read
  std::uint64_t frame_hash = 0;  // FNV-1a over (time, frame bytes) at the switch
  std::uint64_t frames = 0;

  bool operator==(const RunRecord&) const = default;
};

// One fixed-seed download with `plan` injected: `extra_backups` = 0 is the
// classic pair, 1 a 1+2 group. Every member serves the same file.
RunRecord download_run(std::uint64_t seed, int extra_backups,
                       const harness::FaultPlan& plan) {
  harness::TopologyConfig cfg;
  cfg.seed = seed;
  harness::CellConfig cell_cfg;
  cell_cfg.extra_backups = extra_backups;
  const auto topo = harness::make_figure2(std::move(cfg), cell_cfg);
  harness::Cell& cell = topo->cell();
  harness::Topology::HostEntry& client_host = *topo->host_by_name("client");
  // Seeded loss makes the run exercise retransmission and makes distinct
  // seeds observably different (the link RNGs fork from the world seed).
  client_host.link->set_drop_probability(0.02);

  RunRecord out;
  topo->ethernet_switch().set_frame_tap(
      [&out](sim::SimTime at, const net::Frame& f) {
        std::uint64_t h = out.frame_hash ^ static_cast<std::uint64_t>(at.ns());
        for (const std::uint8_t b : f) h = (h ^ b) * 1099511628211ull;
        out.frame_hash = h;
        ++out.frames;
      });

  const std::uint64_t size = 2'000'000;
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), size);
  std::vector<std::unique_ptr<app::FileServer>> b_apps;
  for (int b = 0; b < cell.backup_count(); ++b) {
    b_apps.push_back(std::make_unique<app::FileServer>(cell.backup_stack(b),
                                                       cell.service_port(), size));
  }

  tcp::TcpConnection* conn = nullptr;
  tcp::TcpConnection::Callbacks cb;
  cb.on_readable = [&] {
    const net::Bytes chunk = conn->read(1 << 20);
    out.client_bytes.insert(out.client_bytes.end(), chunk.begin(), chunk.end());
  };
  cb.on_peer_closed = [&] { conn->close(); };
  conn = &client_host.stack->connect(client_host.ip, cell.connect_addr(),
                                     std::move(cb));

  inject(*topo, plan);
  topo->run_for(sim::Duration::seconds(60));

  out.trace = topo->world().trace().dump();
  return out;
}

// One fixed-seed failover run: replicated download, primary crashes
// mid-flight, backup takes over, client keeps reading.
RunRecord failover_run(std::uint64_t seed) {
  harness::FaultPlan plan;
  plan.add(harness::Fault::Crash(harness::Node::kPrimary)
               .at(sim::Duration::millis(400)));
  return download_run(seed, /*extra_backups=*/0, plan);
}

// The same download on a 1+2 group, with the leader and the rank-1 backup
// crashing at the same instant (a FaultPlan::MultiFailure schedule).
constexpr std::uint64_t kGroupSeed = 1;
RunRecord group_double_failure_run() {
  return download_run(kGroupSeed, /*extra_backups=*/1,
                      harness::FaultPlan::MultiFailure(kGroupSeed, 2));
}

std::uint64_t fnv1a(net::BytesView bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) h = (h ^ b) * 1099511628211ull;
  return h;
}

std::uint64_t fnv1a(const std::string& s) {
  return fnv1a(net::BytesView(reinterpret_cast<const std::uint8_t*>(s.data()),
                              s.size()));
}

TEST(DeterminismTest, FixedSeedFailoverIsBitIdentical) {
  const RunRecord a = failover_run(42);
  const RunRecord b = failover_run(42);

  // The run must actually exercise the interesting machinery.
  ASSERT_EQ(a.client_bytes.size(), 2'000'000u);
  ASSERT_GT(a.frames, 1000u);
  ASSERT_NE(a.trace.find("takeover"), std::string::npos);

  EXPECT_EQ(a.client_bytes, b.client_bytes);
  EXPECT_EQ(a.frames, b.frames);
  EXPECT_EQ(a.frame_hash, b.frame_hash);
  // Compare sizes first so a mismatch doesn't dump two full traces.
  ASSERT_EQ(a.trace.size(), b.trace.size());
  EXPECT_EQ(a.trace, b.trace);
}

// Pinned across commits, not just across two runs of one build: these
// constants were recorded before the pair moved onto the group's peer
// table, and a refactor that changes anything a pair (or a group) puts on
// the wire, traces, or delivers to the client fails here. A deliberate
// behaviour change must re-record them and say why.
TEST(DeterminismTest, PairFailoverMatchesPinnedDigests) {
  const RunRecord r = failover_run(42);
  ASSERT_EQ(r.client_bytes.size(), 2'000'000u);
  EXPECT_EQ(fnv1a(r.trace), 0x291d42eb24ecaa3full) << r.trace;
  EXPECT_EQ(r.frames, 5030u);
  EXPECT_EQ(r.frame_hash, 0x06b10c7f11c0bd18ull);
  EXPECT_EQ(fnv1a(r.client_bytes), 0xb048991cbdc6c625ull);
}

TEST(DeterminismTest, GroupDoubleFailureMatchesPinnedDigests) {
  // The schedule is the leader + rank-1 family: backup2 must win.
  const harness::FaultPlan plan = harness::FaultPlan::MultiFailure(kGroupSeed, 2);
  ASSERT_NE(plan.str().find("crash:primary"), std::string::npos) << plan.str();
  ASSERT_NE(plan.str().find("crash:backup @"), std::string::npos) << plan.str();
  const RunRecord r = group_double_failure_run();
  ASSERT_EQ(r.client_bytes.size(), 2'000'000u);
  ASSERT_NE(r.trace.find("promoted"), std::string::npos);
  EXPECT_EQ(fnv1a(r.trace), 0x20a2f5681d888ba2ull) << r.trace;
  EXPECT_EQ(r.frames, 5011u);
  EXPECT_EQ(r.frame_hash, 0x00cf639e7b41bc53ull);
  EXPECT_EQ(fnv1a(r.client_bytes), 0xb048991cbdc6c625ull);
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  // Sanity check that the seed actually feeds the world: otherwise the
  // fixed-seed test above would pass vacuously. The protocol-milestone
  // trace is loss-insensitive; the seed shows up in the frame flow (which
  // frames drop, and hence which get retransmitted and when).
  const RunRecord a = failover_run(1);
  const RunRecord b = failover_run(2);
  EXPECT_EQ(a.client_bytes, b.client_bytes);  // payload is seed-independent
  EXPECT_NE(a.frame_hash, b.frame_hash);
}

// --- Sharded parallel engine -----------------------------------------------
//
// The conservative executor's contract (src/sim/parallel.h): a fixed-seed
// sharded run produces bit-identical per-shard event streams for ANY worker
// thread count, because windows never let a shard run past the earliest
// frame a neighbour could still send it. We fingerprint each shard with an
// FNV fold over every (time, frame) crossing its switch — the same digest
// the flat determinism test uses — plus each workload's behavioural digest.

struct ShardedRecord {
  std::vector<std::uint64_t> frame_digests;  // per-shard switch-frame FNV
  std::vector<std::uint64_t> wl_digests;     // per-shard workload fold
  std::vector<std::uint64_t> completed;
  std::uint64_t resets = 0;

  bool operator==(const ShardedRecord&) const = default;
};

// Two ST-TCP cells in separate shards, each with its own client, joined by
// a router trunk. Each shard's closed-loop workload keeps 12 clients
// churning small flows, every 4th flow crossing the trunk to the *other*
// shard's service address — so the digests cover both local traffic and the
// cross-shard handoff path.
ShardedRecord sharded_churn_run(std::uint64_t seed, int threads) {
  constexpr int kShards = 2;
  harness::TopologyConfig tc;
  tc.seed = seed;
  harness::TopologyBuilder b(tc);

  std::vector<int> routers;
  for (int k = 0; k < kShards; ++k) {
    if (k > 0) b.begin_shard();
    const auto sub = static_cast<std::uint8_t>(k + 1);
    const int lan = b.add_switch("s" + std::to_string(k) + ".lan");
    harness::HostOptions copt;
    copt.with_stack = true;
    if (k > 0) copt.power_controller = b.add_power_controller();
    b.add_host("s" + std::to_string(k) + ".client", {10, sub, 0, 1}, lan, copt);
    harness::CellConfig cc;
    cc.name = "s" + std::to_string(k);
    cc.primary_ip = {10, sub, 0, 2};
    cc.backup_ip = {10, sub, 0, 3};
    cc.service_ip = {10, sub, 0, 100};
    cc.gateway_ip = {10, sub, 0, 254};
    cc.power_controller = copt.power_controller;
    b.add_cell(lan, cc);
    routers.push_back(b.add_router("s" + std::to_string(k) + ".r"));
    b.connect_router(routers.back(), lan, {10, sub, 0, 254});
  }
  const auto [p01, p10] =
      b.add_trunk(routers[0], routers[1], {10, 200, 0, 1}, {10, 200, 0, 2});
  auto topo = b.build();
  // Remote prefixes across the trunk (add_trunk only installs the /30s).
  topo->router(0).add_route({{10, 2, 0, 0}, 24, p01, {10, 200, 0, 2}});
  topo->router(1).add_route({{10, 1, 0, 0}, 24, p10, {10, 200, 0, 1}});
  topo->set_threads(threads);

  ShardedRecord out;
  out.frame_digests.assign(kShards, 1469598103934665603ull);
  for (int k = 0; k < kShards; ++k) {
    // Each tap fires only on its own shard's worker thread and touches only
    // its own vector element — no cross-thread sharing.
    topo->ethernet_switch(static_cast<std::size_t>(k))
        .set_frame_tap([&out, k](sim::SimTime at, const net::Frame& f) {
          std::uint64_t h =
              out.frame_digests[static_cast<std::size_t>(k)] ^
              static_cast<std::uint64_t>(at.ns());
          for (const std::uint8_t byte : f) h = (h ^ byte) * 1099511628211ull;
          out.frame_digests[static_cast<std::size_t>(k)] = h;
        });
  }

  std::vector<std::unique_ptr<app::SizedServer>> servers;
  std::vector<std::unique_ptr<harness::Workload>> loads;
  for (int k = 0; k < kShards; ++k) {
    auto& cell = topo->cell(static_cast<std::size_t>(k));
    servers.push_back(std::make_unique<app::SizedServer>(cell.primary_stack(),
                                                         cell.service_port()));
    servers.push_back(std::make_unique<app::SizedServer>(cell.backup_stack(),
                                                         cell.service_port()));
    harness::WorkloadConfig wc;
    wc.arrivals = harness::WorkloadConfig::Arrivals::kClosedLoop;
    wc.closed_clients = 12;
    wc.think_mean = sim::Duration::millis(5);
    wc.flow_min_bytes = 2 * 1024;
    wc.flow_max_bytes = 16 * 1024;
    wc.duration = sim::Duration::millis(200);
    const net::SocketAddr own = cell.connect_addr();
    const net::SocketAddr other =
        topo->cell(static_cast<std::size_t>((k + 1) % kShards)).connect_addr();
    wc.target_for = [own, other](std::uint64_t flow_id, std::size_t) {
      return flow_id % 4 == 3 ? other : own;
    };
    auto& client = topo->host(static_cast<std::size_t>(k));
    loads.push_back(std::make_unique<harness::Workload>(
        topo->world(static_cast<std::size_t>(k)), *client.stack, client.ip,
        own, wc));
    loads.back()->start();
  }

  topo->run_for(sim::Duration::millis(200));
  for (int i = 0; i < 100; ++i) {
    bool done = true;
    for (const auto& wl : loads) done = done && wl->drained();
    if (done) break;
    topo->run_for(sim::Duration::millis(100));
  }

  for (const auto& wl : loads) {
    out.wl_digests.push_back(wl->digest());
    out.completed.push_back(wl->stats().completed);
    out.resets += wl->stats().resets;
  }
  return out;
}

TEST(DeterminismTest, ShardedRunIsThreadCountInvariant) {
  // Serial (threads=1, still windowed) vs 2- and 4-thread parallel runs of
  // the same seed must match digest-for-digest, across three seeds.
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    const ShardedRecord serial = sharded_churn_run(seed, 1);

    // The run has to be doing real work in every shard, without resets.
    ASSERT_EQ(serial.completed.size(), 2u);
    for (const std::uint64_t c : serial.completed) ASSERT_GT(c, 20u);
    ASSERT_EQ(serial.resets, 0u);

    const ShardedRecord two = sharded_churn_run(seed, 2);
    const ShardedRecord four = sharded_churn_run(seed, 4);
    for (const ShardedRecord* r : {&two, &four}) {
      EXPECT_EQ(serial.frame_digests, r->frame_digests) << "seed " << seed;
      EXPECT_EQ(serial.wl_digests, r->wl_digests) << "seed " << seed;
      EXPECT_EQ(serial.completed, r->completed) << "seed " << seed;
      EXPECT_EQ(serial.resets, r->resets) << "seed " << seed;
    }
  }
}

TEST(DeterminismTest, ShardedSeedsDiverge) {
  const ShardedRecord a = sharded_churn_run(7, 2);
  const ShardedRecord b = sharded_churn_run(8, 2);
  EXPECT_NE(a.frame_digests, b.frame_digests);
}

TEST(DeterminismTest, SweepRunnerThreadCountInvariant) {
  // The same seed sweep through 1 thread and through a pool must produce
  // identical per-job results, in the same order.
  const auto job = [](std::size_t i) { return failover_run(100 + i); };
  const auto serial = harness::SweepRunner(1).map(4, job);
  const auto pooled = harness::SweepRunner(4).map(4, job);
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].trace, pooled[i].trace) << "job " << i;
    EXPECT_EQ(serial[i].client_bytes, pooled[i].client_bytes) << "job " << i;
    EXPECT_EQ(serial[i].frame_hash, pooled[i].frame_hash) << "job " << i;
  }
}

}  // namespace
}  // namespace sttcp
