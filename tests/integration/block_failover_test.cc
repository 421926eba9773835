// Block-store failover: the full replicated application (BlockStoreServer +
// BlockWorkload) under the ISSUE's acceptance scenarios — healthy-run
// byte-determinism, crash mid-transaction, crash mid-writeback, cold-cache
// takeover latency, reintegration state equality, and the seeded chaos
// sweep (STTCP_BLOCK_SEEDS scales it; the --app check lane runs 200).
//
// Response-exactness is the invariant everywhere: the oracle inside
// BlockWorkload must never see a mismatched GET, an unpredicted status, a
// reset or a failed session while the plan is survivable.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>

#include "app/block_server.h"
#include "harness/block_workload.h"
#include "harness/fault.h"
#include "harness/invariants.h"
#include "harness/topology.h"

namespace sttcp::harness {
namespace {

using app::BlockStoreConfig;
using app::BlockStoreServer;
using Mode = sttcp::DecisionLog::Mode;

struct Rig {
  Rig(TopologyConfig scfg, BlockStoreConfig p_cfg, BlockStoreConfig b_cfg,
      BlockWorkloadConfig wcfg)
      : topo(make_figure2(std::move(scfg))),
        cell(topo->cell()),
        p_app(cell.primary_stack(), cell.service_port(), p_cfg, Mode::kRecord),
        b_app(cell.backup_stack(), cell.service_port(), b_cfg, Mode::kReplay),
        workload(topo->world(), *topo->host_by_name("client")->stack,
                 topo->host_by_name("client")->ip, cell.connect_addr(), wcfg) {
    cell.primary_endpoint()->set_decision_log(&p_app.decisions());
    cell.backup_endpoint()->set_decision_log(&b_app.decisions());
    cell.primary_endpoint()->set_checkpoint_provider(
        [this] { return p_app.checkpoint(); });
    cell.primary_endpoint()->set_checkpoint_restorer(
        [this](net::BytesView d) { p_app.stage_restore(d); });
    cell.backup_endpoint()->set_checkpoint_provider(
        [this] { return b_app.checkpoint(); });
    cell.backup_endpoint()->set_checkpoint_restorer(
        [this](net::BytesView d) { b_app.stage_restore(d); });
    cell.register_server_app(cell.primary(), &p_app);
    cell.register_server_app(cell.backup(), &b_app);
  }

  /// Run until the workload drains (plus a TIME_WAIT margin for the
  /// checker's memory audit), bounded by `limit`.
  void run_to_drain(sim::Duration limit) {
    const sim::SimTime deadline = topo->world().now() + limit;
    while (!workload.drained() && topo->world().now() < deadline) {
      topo->run_for(sim::Duration::millis(100));
    }
    topo->run_for(sim::Duration::seconds(3));  // 2 x MSL drain + decision beats
  }

  std::unique_ptr<Topology> topo;
  Cell& cell;
  BlockStoreServer p_app;
  BlockStoreServer b_app;
  BlockWorkload workload;
};

BlockWorkloadConfig small_workload(BlockStoreConfig& app_cfg) {
  BlockWorkloadConfig w;
  w.clients = 6;
  w.blocks_per_client = 8;
  w.block_size = app_cfg.block_size;
  w.ops_per_session = 12;
  w.duration = sim::Duration::millis(2500);
  w.think_mean = sim::Duration::millis(10);
  return w;
}

void expect_clean(const Rig& rig, const std::vector<Violation>& v) {
  for (const Violation& x : v) ADD_FAILURE() << x.str();
  EXPECT_TRUE(rig.workload.drained());
  EXPECT_GT(rig.workload.stats().responses, 0u);
  EXPECT_EQ(rig.workload.stats().mismatches, 0u);
  // The backup never fell back to generating its own decisions.
  EXPECT_EQ(rig.p_app.store_stats().replay_mismatch, 0u);
  EXPECT_EQ(rig.b_app.store_stats().replay_mismatch, 0u);
}

// ---------------------------------------------------------------------------
// Healthy run: the replica is byte-deterministic — every response frame the
// backup computed from the replicated input + decision log is identical to
// what the primary sent, and the quiesced store state matches exactly.
TEST(BlockFailoverTest, HealthyRunIsByteDeterministic) {
  TopologyConfig scfg;
  scfg.seed = 7;
  BlockStoreConfig acfg;
  Rig rig(std::move(scfg), acfg, acfg, small_workload(acfg));
  InvariantChecker checker(*rig.topo, {});

  rig.workload.start();
  rig.run_to_drain(sim::Duration::seconds(30));
  // Quiesce: push every dirty page through the decision log, let the
  // final kFlush records reach the backup.
  rig.p_app.flush_all_dirty();
  rig.topo->run_for(sim::Duration::seconds(1));

  expect_clean(rig, checker.check(rig.workload));
  EXPECT_EQ(rig.workload.stats().resets, 0u);
  EXPECT_EQ(rig.workload.stats().failed, 0u);
  EXPECT_GT(rig.p_app.store_stats().requests, 0u);
  EXPECT_EQ(rig.p_app.store_stats().requests, rig.b_app.store_stats().requests);
  EXPECT_EQ(rig.p_app.tx_digest(), rig.b_app.tx_digest());
  EXPECT_EQ(rig.p_app.store_digest(), rig.b_app.store_digest());
  EXPECT_EQ(rig.p_app.cache_digest(), rig.b_app.cache_digest());
  EXPECT_EQ(rig.p_app.state_digest(), rig.b_app.state_digest());
}

// ---------------------------------------------------------------------------
// Crash mid-transaction: the primary dies while sessions are mid-flight.
// The promoted backup must carry every session through — acknowledged
// writes survive, no client sees a reset or an unpredicted status.
TEST(BlockFailoverTest, CrashMidTransactionIsMasked) {
  TopologyConfig scfg;
  scfg.seed = 11;
  BlockStoreConfig acfg;
  Rig rig(std::move(scfg), acfg, acfg, small_workload(acfg));
  InvariantChecker checker(*rig.topo, {});

  rig.workload.start();
  inject(*rig.topo, Fault::Crash(Node::kPrimary).at(sim::Duration::millis(800)));
  rig.run_to_drain(sim::Duration::seconds(60));

  expect_clean(rig, checker.check(rig.workload));
  EXPECT_EQ(rig.topo->world().trace().count("backup", "takeover"), 1u);
  EXPECT_GT(rig.b_app.store_stats().replay_executed, 0u);
}

// ---------------------------------------------------------------------------
// Crash mid-writeback: the primary dies right after a writeback pass began
// emitting kFlush decisions. The backup's flush replay and the promote-time
// backlog drain must leave the store consistent — same response-exactness
// bar as any other crash point.
TEST(BlockFailoverTest, CrashDuringCacheWritebackIsMasked) {
  TopologyConfig scfg;
  scfg.seed = 13;
  BlockStoreConfig acfg;
  acfg.writeback_period = sim::Duration::millis(50);
  BlockWorkloadConfig wcfg = small_workload(acfg);
  wcfg.put_prob = 0.7;  // writeback-heavy: keep the dirty queue busy
  Rig rig(std::move(scfg), acfg, acfg, wcfg);
  InvariantChecker checker(*rig.topo, {});

  rig.workload.start();
  // 16 writeback periods in, 100 us past the tick: the kFlush records for
  // that batch are at most one heartbeat from the backup when the axe falls.
  inject(*rig.topo, Fault::Crash(Node::kPrimary)
                    .at(sim::Duration::millis(800) + sim::Duration::micros(100)));
  rig.run_to_drain(sim::Duration::seconds(60));

  expect_clean(rig, checker.check(rig.workload));
  EXPECT_EQ(rig.topo->world().trace().count("backup", "takeover"), 1u);
  EXPECT_GT(rig.p_app.store_stats().writebacks, 0u);
}

// ---------------------------------------------------------------------------
// Cold-cache takeover: identical failover, but the promoted backup flushes
// its dirty pages and drops the rest, so post-failover GETs pay the modeled
// device read latency. Correctness must not change; the client-visible
// latency tail and the promoted server's miss count must.
TEST(BlockFailoverTest, ColdBackupCacheCostsLatencyNotCorrectness) {
  // Working set (4 clients x 4 blocks) fits the 16-page cache: after warmup
  // a warm cache misses ~never, so takeover-time misses are the ablation.
  const auto run = [](bool cold, std::uint64_t* misses_after,
                      obs::Histogram* lat) {
    TopologyConfig scfg;
    scfg.seed = 17;
    BlockStoreConfig acfg;
    BlockStoreConfig b_cfg = acfg;
    b_cfg.drop_cache_on_takeover = cold;
    BlockWorkloadConfig wcfg;
    wcfg.clients = 4;
    wcfg.blocks_per_client = 4;
    wcfg.ops_per_session = 12;
    wcfg.put_prob = 0.2;
    wcfg.delete_prob = 0.0;  // deletes shrink the resident set; keep it full
    wcfg.duration = sim::Duration::millis(2500);
    wcfg.think_mean = sim::Duration::millis(10);
    Rig rig(std::move(scfg), acfg, b_cfg, wcfg);
    InvariantChecker checker(*rig.topo, {});

    rig.workload.start();
    inject(*rig.topo, Fault::Crash(Node::kPrimary).at(sim::Duration::millis(1000)));
    rig.run_to_drain(sim::Duration::seconds(60));

    for (const Violation& v : checker.check(rig.workload)) {
      ADD_FAILURE() << (cold ? "cold: " : "warm: ") << v.str();
    }
    EXPECT_TRUE(rig.workload.drained());
    *misses_after = rig.b_app.store_stats().cache_misses;
    *lat = rig.workload.request_us();
  };

  std::uint64_t warm_misses = 0, cold_misses = 0;
  obs::Histogram warm_lat, cold_lat;
  run(false, &warm_misses, &warm_lat);
  run(true, &cold_misses, &cold_lat);

  // The cold backup re-faults the working set the warm one kept resident.
  EXPECT_GT(cold_misses, warm_misses);
  // Client-visible: each re-fault charges device_read_latency (500 us) to
  // the response release time, fattening the tail beyond the warm run's.
  EXPECT_GT(cold_lat.max(), warm_lat.max());
  EXPECT_GE(cold_lat.max(), 500u);
}

// ---------------------------------------------------------------------------
// Reintegration: primary dies, backup carries the service, primary reboots
// and rejoins via the snapshot (now carrying real payload: device, cache
// with dirty pages, session table, decision cursor). At quiesce the rejoined
// replica's store state is byte-identical to the survivor's.
TEST(BlockFailoverTest, ReintegrationRestoresByteIdenticalStore) {
  TopologyConfig scfg;
  scfg.seed = 19;
  BlockStoreConfig acfg;
  BlockWorkloadConfig wcfg = small_workload(acfg);
  wcfg.duration = sim::Duration::seconds(5);  // long enough to span the rejoin
  Rig rig(std::move(scfg), acfg, acfg, wcfg);
  InvariantChecker checker(*rig.topo, {});

  rig.workload.start();
  inject(*rig.topo, Fault::Crash(Node::kPrimary).at(sim::Duration::millis(700)));
  inject(*rig.topo, Fault::PowerOn(Node::kPrimary).at(sim::Duration::millis(2200)));

  const auto& tr = rig.topo->world().trace();
  const sim::SimTime limit = rig.topo->world().now() + sim::Duration::seconds(12);
  while (tr.count("reintegration_complete") == 0 &&
         rig.topo->world().now() < limit) {
    rig.topo->run_for(sim::Duration::millis(100));
  }
  ASSERT_EQ(tr.count("reintegration_complete"), 1u) << tr.dump();
  rig.run_to_drain(sim::Duration::seconds(60));

  // Quiesce the surviving primary (the old backup) and let its kFlush
  // decisions reach the rejoined replica (the old primary).
  rig.b_app.flush_all_dirty();
  rig.topo->run_for(sim::Duration::seconds(1));

  expect_clean(rig, checker.check(rig.workload));
  EXPECT_EQ(rig.p_app.store_digest(), rig.b_app.store_digest());
  EXPECT_EQ(rig.p_app.cache_digest(), rig.b_app.cache_digest());
  EXPECT_EQ(rig.p_app.state_digest(), rig.b_app.state_digest());
  EXPECT_EQ(rig.p_app.open_sessions(), rig.b_app.open_sessions());
}

// ---------------------------------------------------------------------------
// Seeded chaos sweep: a random crash (primary or backup, random time,
// including mid-transaction and mid-writeback instants) against a running
// block workload. Response-exactness with zero client resets, every seed.
// STTCP_BLOCK_SEEDS overrides the sweep width (the --app lane runs 200).
class BlockChaosSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BlockChaosSweepTest, RandomCrashKeepsResponsesExact) {
  const std::uint64_t seed = GetParam();
  sim::Rng dice(seed * 6151 + 3);

  TopologyConfig scfg;
  scfg.seed = seed;
  BlockStoreConfig acfg;
  BlockWorkloadConfig wcfg = small_workload(acfg);
  Rig rig(std::move(scfg), acfg, acfg, wcfg);
  InvariantChecker checker(*rig.topo, {});

  rig.workload.start();
  const Node victim = dice.below(4) == 0 ? Node::kBackup : Node::kPrimary;
  // Half the schedules pin the crash just past a writeback tick (the
  // mid-writeback window); the rest land anywhere in the active run.
  sim::Duration when;
  if (dice.below(2) == 0) {
    when = acfg.writeback_period * static_cast<int>(dice.range(4, 40)) +
           sim::Duration::micros(dice.range(10, 400));
  } else {
    when = sim::Duration::millis(dice.range(100, 2200));
  }
  SCOPED_TRACE("crash " + std::string(to_string(victim)) + " at " + when.str() +
               ", seed " + std::to_string(seed));
  inject(*rig.topo, Fault::Crash(victim).at(when));
  rig.run_to_drain(sim::Duration::seconds(90));

  expect_clean(rig, checker.check(rig.workload));
  // Exactly one failover action at most (none when the backup died).
  const auto& tr = rig.topo->world().trace();
  EXPECT_LE(tr.count("takeover") + tr.count("non_ft_mode"), 1u);
}

std::uint64_t sweep_width() {
  if (const char* env = std::getenv("STTCP_BLOCK_SEEDS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::uint64_t>(v);
  }
  return 12;  // modest default; the check lane exports 200
}

INSTANTIATE_TEST_SUITE_P(Sweep, BlockChaosSweepTest,
                         ::testing::Range<std::uint64_t>(1, sweep_width() + 1));

}  // namespace
}  // namespace sttcp::harness
