// Block-store failover bench: what does a primary crash cost a
// request/response client, and how much of that cost is the promoted
// backup's cache temperature?
//
// Three arms over the same seeded workload (closed-loop envelope clients
// against the replicated BlockStoreServer):
//   healthy    no failure — the steady-state latency floor and the
//              output-commit overhead baseline;
//   warm       primary crash, backup promotes with its replica-maintained
//              cache intact (the ST-TCP default);
//   cold       same crash, but the promoted backup flushes dirty pages and
//              drops the rest (drop_cache_on_takeover) — every post-failover
//              GET re-faults through the modeled device read latency.
//
// Reported per arm, averaged over seeds: client-visible request latency
// (p50/p99/max), promoted-server cache misses, and correctness (response
// exactness must hold in every arm — the ablation moves latency only).
#include <cstring>

#include "app/block_server.h"
#include "bench/bench_util.h"
#include "harness/block_workload.h"
#include "harness/invariants.h"

namespace sttcp::bench {
namespace {

using app::BlockStoreConfig;
using app::BlockStoreServer;
using harness::BlockWorkload;
using harness::BlockWorkloadConfig;
using harness::Fault;
using harness::InvariantChecker;
using harness::Node;

struct BlockRun {
  bool clean = false;          // drained + zero invariant violations
  double p50_us = 0, p99_us = 0, max_us = 0;
  double promoted_misses = 0;  // survivor's cache misses
  double takeover_ms = -1;
  double requests = 0;
};

BlockRun one(std::uint64_t seed, bool crash, bool cold) {
  TopologyConfig scfg;
  scfg.seed = seed;
  const auto topo = make_figure2(std::move(scfg));
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");

  BlockStoreConfig acfg;
  BlockStoreConfig b_cfg = acfg;
  b_cfg.drop_cache_on_takeover = cold;
  BlockStoreServer p_app(cell.primary_stack(), cell.service_port(), acfg,
                         sttcp::DecisionLog::Mode::kRecord);
  BlockStoreServer b_app(cell.backup_stack(), cell.service_port(), b_cfg,
                         sttcp::DecisionLog::Mode::kReplay);
  cell.primary_endpoint()->set_decision_log(&p_app.decisions());
  cell.backup_endpoint()->set_decision_log(&b_app.decisions());
  cell.primary_endpoint()->set_checkpoint_provider([&] { return p_app.checkpoint(); });
  cell.primary_endpoint()->set_checkpoint_restorer(
      [&](net::BytesView d) { p_app.stage_restore(d); });
  cell.backup_endpoint()->set_checkpoint_provider([&] { return b_app.checkpoint(); });
  cell.backup_endpoint()->set_checkpoint_restorer(
      [&](net::BytesView d) { b_app.stage_restore(d); });

  // Working set sized to the cache so the warm/cold contrast is pure: after
  // warmup a warm cache serves hits; only the cold arm re-faults.
  BlockWorkloadConfig wcfg;
  wcfg.clients = 4;
  wcfg.blocks_per_client = 4;
  wcfg.ops_per_session = 12;
  wcfg.put_prob = 0.2;
  wcfg.delete_prob = 0.0;
  wcfg.think_mean = sim::Duration::millis(10);
  wcfg.duration = sim::Duration::millis(2500);
  BlockWorkload workload(topo->world(), *client_host.stack, client_host.ip,
                         cell.connect_addr(), wcfg);
  InvariantChecker checker(*topo, {});

  workload.start();
  if (crash) {
    inject(*topo, Fault::Crash(Node::kPrimary).at(sim::Duration::millis(1000)));
  }
  const sim::SimTime limit = topo->world().now() + sim::Duration::seconds(60);
  while (!workload.drained() && topo->world().now() < limit) {
    topo->run_for(sim::Duration::millis(100));
  }
  topo->run_for(sim::Duration::seconds(3));

  BlockRun out;
  out.clean = workload.drained() && checker.check(workload).empty();
  const obs::Histogram& h = workload.request_us();
  out.p50_us = static_cast<double>(h.percentile(0.5));
  out.p99_us = static_cast<double>(h.percentile(0.99));
  out.max_us = static_cast<double>(h.max());
  out.promoted_misses = static_cast<double>(b_app.store_stats().cache_misses);
  out.requests = static_cast<double>(workload.stats().requests);
  if (crash) {
    const auto& tr = topo->world().trace();
    if (auto t = tr.first_time("takeover")) {
      out.takeover_ms = (*t - (sim::SimTime::zero() + sim::Duration::millis(1000)))
                            .to_millis();
    }
  }
  return out;
}

BlockRun avg(const std::vector<BlockRun>& runs) {
  BlockRun a;
  a.clean = true;
  a.takeover_ms = 0;
  for (const BlockRun& r : runs) {
    a.clean = a.clean && r.clean;
    a.p50_us += r.p50_us / runs.size();
    a.p99_us += r.p99_us / runs.size();
    a.max_us += r.max_us / runs.size();
    a.promoted_misses += r.promoted_misses / runs.size();
    a.takeover_ms += r.takeover_ms / runs.size();
    a.requests += r.requests / runs.size();
  }
  return a;
}

void run(JsonSink& json, bool quick) {
  print_header("Block-store failover: warm vs cold backup cache",
               "client-visible request latency across a primary crash");
  const std::size_t seeds = quick ? 2 : 6;
  const SweepRunner pool;

  struct Arm {
    const char* name;
    bool crash, cold;
  };
  const Arm arms[] = {{"healthy (no failure)", false, false},
                      {"crash, warm cache", true, false},
                      {"crash, cold cache", true, true}};

  Table t({"arm", "requests", "p50 (us)", "p99 (us)", "max (us)",
           "survivor misses", "takeover (ms)", "response-exact"});
  for (const Arm& arm : arms) {
    const auto runs = pool.map(seeds, [&arm](std::size_t i) {
      return one(/*seed=*/i + 1, arm.crash, arm.cold);
    });
    const BlockRun a = avg(runs);
    t.row(arm.name, a.requests, a.p50_us, a.p99_us, a.max_us,
          a.promoted_misses, arm.crash ? a.takeover_ms : -1.0, ok(a.clean));
  }
  t.print();
  json.table(t, "blockstore_failover");

  std::cout << "\nExpected shape: all three arms stay response-exact. The\n"
               "healthy arm's p50 carries the output-commit round trip; the\n"
               "warm-crash arm adds a one-off stall around takeover; the\n"
               "cold arm additionally pays device_read_latency per re-fault,\n"
               "visible as survivor misses and a fatter latency tail.\n";
}

}  // namespace
}  // namespace sttcp::bench

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  sttcp::bench::JsonSink json(argc, argv);
  sttcp::bench::run(json, quick);
  return 0;
}
