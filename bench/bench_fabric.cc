// Fabric chaos smoke: the failure classes only a routed, sharded topology
// has — router death and inter-subnet partition — run against a 4-shard
// closed-loop churn with the stream-exactness gate bench_capacity enforces.
//
// Router death: the core router crashes mid-churn and comes back 800 ms
// later. Every client flow stalls — nothing crosses subnets — but no pair
// may misreact (heartbeats are intra-LAN), and every flow must still finish
// byte-exact with zero RSTs once the router returns.
//
// Inter-subnet partition: one shard's uplink is severed and healed. The
// partitioned pair keeps heartbeating and must NOT fail over; the other
// shards must churn on undisturbed.
//
// Both outages are harness Faults (Fault::Custom: no Node names a router or
// a trunk), so they stamp fault_injected like every other fault. This is
// the `check.sh --shard` lane (Release, --quick). Exit is non-zero on any
// reset, undrained flow, or unexpected takeover.
//
// Flags: --json=PATH   append the table as JSONL
//        --quick       reduced population / duration (the check.sh lane)
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "harness/fault.h"
#include "harness/topology.h"
#include "harness/workload.h"

namespace sttcp::bench {
namespace {

using harness::CellConfig;
using harness::Fault;
using harness::FaultPlan;
using harness::HostOptions;
using harness::ShardDirector;
using harness::Topology;
using harness::TopologyBuilder;
using harness::TopologyConfig;
using harness::Workload;
using harness::WorkloadConfig;

constexpr int kShards = 4;

std::unique_ptr<Topology> build_fabric(std::uint64_t seed) {
  TopologyConfig tc;
  tc.seed = seed;
  tc.link_bandwidth_bps = 1'000'000'000;
  tc.sttcp.hold_buffer_capacity = 32 * 1024 * 1024;
  tc.sttcp.serial_max_records = 32;
  TopologyBuilder b(tc);
  const int lan0 = b.add_switch("clientlan");
  HostOptions client_opt;
  client_opt.with_stack = true;
  b.add_host("client", {10, 0, 0, 1}, lan0, client_opt);
  std::vector<int> lans;
  for (int k = 0; k < kShards; ++k) {
    lans.push_back(b.add_switch("shard" + std::to_string(k) + "lan"));
    CellConfig cc;
    cc.name = "s" + std::to_string(k);
    const auto subnet = static_cast<std::uint8_t>(k + 1);
    cc.primary_ip = {10, subnet, 0, 2};
    cc.backup_ip = {10, subnet, 0, 3};
    cc.service_ip = {10, subnet, 0, 100};
    cc.gateway_ip = {10, subnet, 0, 254};
    cc.power_controller = b.add_power_controller();
    b.add_cell(lans[static_cast<std::size_t>(k)], cc);
  }
  const int r = b.add_router("core");
  b.connect_router(r, lan0, {10, 0, 0, 254});
  for (int k = 0; k < kShards; ++k) {
    b.connect_router(r, lans[static_cast<std::size_t>(k)],
                     {10, static_cast<std::uint8_t>(k + 1), 0, 254});
  }
  return b.build();
}

struct SmokeResult {
  Workload::Stats stats;
  bool drained = false;
  std::uint64_t takeovers = 0;
  std::uint64_t router_drops = 0;
  double fct_p99_ms = 0;
};

/// One churn run with `outage` injected into the fabric before it starts.
SmokeResult run_smoke(std::uint64_t seed, std::size_t conns,
                      sim::Duration duration, const FaultPlan& outage) {
  auto topo = build_fabric(seed);
  std::vector<std::unique_ptr<app::SizedServer>> servers;
  for (int k = 0; k < kShards; ++k) {
    harness::Cell& cell = topo->cell(static_cast<std::size_t>(k));
    servers.emplace_back(std::make_unique<app::SizedServer>(
        cell.primary_stack(), cell.service_port()));
    servers.emplace_back(std::make_unique<app::SizedServer>(
        cell.backup_stack(), cell.service_port()));
  }
  const ShardDirector director(*topo);

  WorkloadConfig wc;
  wc.arrivals = WorkloadConfig::Arrivals::kClosedLoop;
  wc.closed_clients = conns;
  wc.max_concurrent = conns;
  wc.think_mean = sim::Duration::millis(20);
  wc.flow_min_bytes = 4 * 1024;
  wc.flow_max_bytes = 64 * 1024;
  wc.duration = duration;
  wc.target_for = [&director](std::uint64_t flow_id, std::size_t) {
    return director.target_for(flow_id);
  };
  Workload wl(topo->world(), *topo->host(0).stack, {10, 0, 0, 1},
              director.target(0), wc);
  inject(*topo, outage);
  wl.start();

  topo->run_for(duration);
  for (int i = 0; i < 900 && !wl.drained(); ++i) {
    topo->run_for(sim::Duration::millis(100));
  }

  SmokeResult out;
  out.stats = wl.stats();
  out.drained = wl.drained();
  out.fct_p99_ms = static_cast<double>(wl.fct_us().percentile(0.99)) / 1000.0;
  for (int k = 0; k < kShards; ++k) {
    harness::Cell& cell = topo->cell(static_cast<std::size_t>(k));
    out.takeovers += cell.primary_endpoint()->stats().takeovers +
                     cell.backup_endpoint()->stats().takeovers;
  }
  out.router_drops = topo->router().stats().dropped_down;
  return out;
}

int run(int argc, char** argv) {
  JsonSink json(argc, argv);
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::size_t conns = quick ? 256 : 2048;
  const sim::Duration duration =
      quick ? sim::Duration::millis(1500) : sim::Duration::seconds(4);
  const sim::Duration outage = sim::Duration::millis(800);

  print_header(
      "Fabric chaos smoke: 4 shards behind one router, " +
          std::to_string(conns) + " churning clients",
      "fabric failure classes — router death and inter-subnet partition "
      "must stall, never corrupt, and never trigger a takeover");

  const sim::Duration at = duration / 3;
  const SmokeResult death = run_smoke(
      91, conns, duration,
      {Fault::Custom("router_crash:core", [](Topology& t) { t.router().crash(); })
           .at(at),
       Fault::Custom("router_restore:core", [](Topology& t) { t.router().restore(); })
           .at(at + outage)});
  // Shard 2's uplink is the router port link attached after the client-LAN
  // port: links are client, (primary, backup) x 4, core.p0 (client lan),
  // core.p1..p4 (shard lans).
  const SmokeResult partition = run_smoke(
      92, conns, duration,
      {Fault::Custom("uplink_fail:s2", [](Topology& t) { t.link(9 + 3).fail(); })
           .at(at),
       Fault::Custom("uplink_heal:s2", [](Topology& t) { t.link(9 + 3).heal(); })
           .at(at + outage)});

  Table t({"scenario", "conns", "offered", "started", "completed", "failed",
           "resets", "corrupt", "fct_p99_ms", "takeovers", "router_drops",
           "drained"});
  const auto row = [&t, conns](const char* name, const SmokeResult& r) {
    t.row(name, conns, r.stats.offered, r.stats.started, r.stats.completed,
          r.stats.failed, r.stats.resets, r.stats.corrupt, r.fct_p99_ms,
          r.takeovers, r.router_drops, ok(r.drained));
  };
  row("router-death", death);
  row("partition-s2", partition);
  t.print();
  json.table(t, "fabric_smoke");

  bool failed = false;
  for (const SmokeResult* r : {&death, &partition}) {
    if (r->stats.resets != 0 || r->stats.failed != 0 || r->stats.corrupt != 0 ||
        !r->drained || r->takeovers != 0) {
      failed = true;
    }
  }
  if (death.router_drops == 0) failed = true;  // the outage must have bitten
  std::cout << (failed ? "\nFAIL: a fabric outage leaked to clients or "
                         "triggered a takeover (see table)\n"
                       : "\nBoth outages were absorbed: stalls only, zero "
                         "resets, zero takeovers.\n");
  return failed ? 1 : 0;
}

}  // namespace
}  // namespace sttcp::bench

int main(int argc, char** argv) { return sttcp::bench::run(argc, argv); }
