// Churn workload at scale: determinism and failover masking.
//
// Three guarantees the capacity bench leans on, pinned as tests:
//  * a fixed (seed, config) churn run is bit-identical across repeated runs
//    (Workload::digest folds every flow outcome);
//  * SweepRunner returns the same digests on 1 thread and N threads;
//  * a primary crash in the middle of a churning population is masked for
//    every flow — zero client-visible resets, every stream byte-exact, the
//    full InvariantChecker clean.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "app/server.h"
#include "harness/fault.h"
#include "harness/invariants.h"
#include "harness/sweep.h"
#include "harness/topology.h"
#include "harness/workload.h"

namespace sttcp::harness {
namespace {

struct ChurnOutcome {
  std::uint64_t digest = 0;
  Workload::Stats stats;
  bool drained = false;
  std::size_t takeovers = 0;
  std::vector<Violation> violations;
};

TopologyConfig churn_config(std::uint64_t seed) {
  TopologyConfig cfg;
  cfg.seed = seed;
  cfg.sttcp.hold_buffer_capacity = 32 * 1024 * 1024;
  cfg.sttcp.serial_max_records = 32;
  return cfg;
}

ChurnOutcome run_churn(std::uint64_t seed, const WorkloadConfig& wl_cfg,
                       sim::Duration crash_at) {
  const auto topo = make_figure2(churn_config(seed));
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  app::SizedServer p_app(cell.primary_stack(), cell.service_port());
  app::SizedServer b_app(cell.backup_stack(), cell.service_port());

  InvariantChecker::Options iopt;
  iopt.expect_masked = true;
  InvariantChecker checker(*topo, iopt);

  Workload wl(topo->world(), *client_host.stack, client_host.ip,
              cell.connect_addr(), wl_cfg);
  if (!crash_at.is_zero()) {
    inject(*topo, Fault::Crash(Node::kPrimary).at(crash_at));
  }
  wl.start();

  topo->run_for(wl_cfg.duration);
  for (int i = 0; i < 600 && !wl.drained(); ++i) {
    topo->run_for(sim::Duration::millis(100));
  }
  // Quiet margin: TIME_WAIT (2 x MSL) and the endpoint's closed-connection
  // linger must empty the tables before the bounded-memory check runs.
  topo->run_for(sim::Duration::seconds(3));

  ChurnOutcome out;
  out.digest = wl.digest();
  out.stats = wl.stats();
  out.drained = wl.drained();
  out.takeovers = topo->world().trace().count("takeover");
  out.violations = checker.check(wl);
  return out;
}

WorkloadConfig small_closed_loop() {
  WorkloadConfig wl;
  wl.arrivals = WorkloadConfig::Arrivals::kClosedLoop;
  wl.closed_clients = 150;
  wl.think_mean = sim::Duration::millis(20);
  wl.flow_min_bytes = 4 * 1024;
  wl.flow_max_bytes = 32 * 1024;
  wl.max_concurrent = 150;
  wl.duration = sim::Duration::millis(1500);
  return wl;
}

// Same seed, same config, run twice: every flow outcome — and therefore the
// digest fold — must match exactly. This is what makes a bench number or a
// bug report reproducible from (seed, config) alone.
TEST(ChurnDeterminism, FixedSeedIsBitIdenticalAcrossRuns) {
  const WorkloadConfig wl = small_closed_loop();
  const auto crash = sim::Duration::millis(700);
  const ChurnOutcome a = run_churn(7, wl, crash);
  const ChurnOutcome b = run_churn(7, wl, crash);
  ASSERT_GT(a.stats.started, 100u);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.stats.started, b.stats.started);
  EXPECT_EQ(a.stats.completed, b.stats.completed);
  EXPECT_EQ(a.stats.bytes_received, b.stats.bytes_received);
  EXPECT_EQ(a.takeovers, 1u);
  EXPECT_EQ(b.takeovers, 1u);
}

// Different seeds must actually change the run, or the digest proves nothing.
TEST(ChurnDeterminism, DifferentSeedsDiverge) {
  const WorkloadConfig wl = small_closed_loop();
  const ChurnOutcome a = run_churn(7, wl, sim::Duration::zero());
  const ChurnOutcome b = run_churn(8, wl, sim::Duration::zero());
  EXPECT_NE(a.digest, b.digest);
}

// SweepRunner's determinism contract, exercised with full churn scenarios:
// digests are identical whether the sweep ran on one thread or several.
TEST(ChurnDeterminism, SweepRunnerThreadCountInvariant) {
  WorkloadConfig wl = small_closed_loop();
  wl.closed_clients = 80;
  wl.max_concurrent = 80;
  wl.duration = sim::Duration::millis(1000);

  const auto job = [&wl](std::size_t i) {
    return run_churn(100 + i, wl, sim::Duration::millis(500)).digest;
  };
  const std::vector<std::uint64_t> serial = SweepRunner(1).map(3, job);
  const std::vector<std::uint64_t> parallel = SweepRunner(4).map(3, job);
  EXPECT_EQ(serial, parallel);
}

// The scale-masking guarantee: a primary crash in the middle of a churning
// population — connections mid-handshake, mid-transfer, mid-close, plus
// every flow opened during and after the outage — is invisible to clients.
TEST(ChurnFailover, MidChurnCrashIsMaskedForEveryFlow) {
  WorkloadConfig wl;
  wl.arrivals = WorkloadConfig::Arrivals::kClosedLoop;
  wl.closed_clients = 300;
  wl.think_mean = sim::Duration::millis(20);
  wl.flow_min_bytes = 4 * 1024;
  wl.flow_max_bytes = 64 * 1024;
  wl.max_concurrent = 300;
  wl.duration = sim::Duration::seconds(2);
  const ChurnOutcome r = run_churn(42, wl, sim::Duration::seconds(1));

  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.takeovers, 1u);
  EXPECT_GT(r.stats.started, 500u);
  EXPECT_EQ(r.stats.failed, 0u);
  EXPECT_EQ(r.stats.resets, 0u);
  EXPECT_EQ(r.stats.corrupt, 0u);
  EXPECT_EQ(r.stats.completed, r.stats.started);
  for (const Violation& v : r.violations) ADD_FAILURE() << v.str();
}

}  // namespace
}  // namespace sttcp::harness
