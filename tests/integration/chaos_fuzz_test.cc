// Multi-fault chaos fuzzer: for every seed, FaultPlan::Adversarial(seed)
// draws a 2–4-fault schedule (burst loss, corruption, duplication,
// reordering, jitter, serial noise, plus at most one fatal server fault) and
// run_chaos_seed() executes it under the InvariantChecker. The sweep asserts
// that EVERY invariant holds on EVERY seed; a violation prints the exact
// seed + schedule and a one-command replay line.
//
//   STTCP_CHAOS_SEEDS=N   sweep seed count (default 200; CI lanes lower it)
//   STTCP_CHAOS_SEED=S    replay exactly seed S via --gtest_filter='*ReplaySeed*'
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "app/client.h"
#include "app/server.h"
#include "harness/chaos.h"
#include "harness/fault.h"
#include "harness/sweep.h"
#include "harness/topology.h"

namespace sttcp::harness {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

TEST(ChaosFuzzTest, VerifyChecksumsIsOnByDefault) {
  // The chaos invariants lean on receive-side checksum verification turning
  // wire corruption into accounted drops. Guard the config default so a
  // future "perf" change cannot silently disable the protection the fuzzer
  // thinks it is testing.
  TopologyConfig cfg;
  EXPECT_TRUE(cfg.tcp.verify_checksums);
  EXPECT_TRUE(TopologyConfig::Paper2005().tcp.verify_checksums);
  EXPECT_TRUE(TopologyConfig::FastNet().tcp.verify_checksums);
}

TEST(ChaosFuzzTest, AdversarialPlansAreDeterministicAndBounded) {
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    const FaultPlan a = FaultPlan::Adversarial(seed);
    EXPECT_EQ(a.str(), FaultPlan::Adversarial(seed).str()) << "seed " << seed;
    EXPECT_GE(a.size(), 2u);
    EXPECT_LE(a.size(), 4u);
    int majors = 0, corrupting = 0;
    bool nic_major = false, serial_noise = false;
    for (const Fault& f : a.faults()) {
      const std::string& l = f.label();
      if (l.rfind("crash:", 0) == 0 || l.rfind("nic_failure:", 0) == 0 ||
          l == "serial_cut") {
        ++majors;
      }
      if (l.rfind("nic_failure:", 0) == 0) nic_major = true;
      if (l.rfind("corrupt:", 0) == 0) ++corrupting;
      if (l.rfind("serial_corrupt", 0) == 0) serial_noise = true;
    }
    // Survivability constraints (see FaultPlan::Adversarial):
    EXPECT_LE(majors, 1) << a.str();
    EXPECT_LE(corrupting, 1) << a.str();
    EXPECT_FALSE(nic_major && serial_noise)
        << "NIC failure + serial noise is a double failure: " << a.str();
  }
}

// The tentpole sweep: >= 200 adversarial multi-fault schedules, zero
// invariant violations. Runs through SweepRunner, so wall time is
// seeds / cores; each seed is a fully independent World.
TEST(ChaosFuzzTest, AdversarialSweepHoldsAllInvariants) {
  const std::uint64_t seeds = env_u64("STTCP_CHAOS_SEEDS", 200);
  SweepRunner runner;
  const auto verdicts = runner.map(static_cast<std::size_t>(seeds), [](std::size_t i) {
    return run_chaos_seed(static_cast<std::uint64_t>(i) + 1);
  });
  std::uint64_t corrupted = 0, duplicated = 0, reordered = 0, burst = 0,
                 drops = 0, failures = 0;
  for (const ChaosVerdict& v : verdicts) {
    corrupted += v.corrupted;
    duplicated += v.duplicated;
    reordered += v.reordered;
    burst += v.burst_dropped;
    drops += v.checksum_drops;
    if (!v.ok()) {
      ++failures;
      ADD_FAILURE() << v.report();
    }
  }
  EXPECT_EQ(failures, 0u) << failures << " of " << seeds << " seeds violated";
  // The sweep must actually exercise the machinery it claims to: across the
  // whole seed set every impairment class fires and checksum drops happen.
  EXPECT_GT(corrupted, 0u);
  EXPECT_GT(duplicated, 0u);
  EXPECT_GT(reordered, 0u);
  EXPECT_GT(burst, 0u);
  EXPECT_GT(drops, 0u);
}

// One-command replay: STTCP_CHAOS_SEED=<seed> ./chaos_fuzz_test
// --gtest_filter='*ReplaySeed*' re-runs exactly the printed schedule.
TEST(ChaosFuzzTest, ReplaySeed) {
  const char* env = std::getenv("STTCP_CHAOS_SEED");
  if (env == nullptr || *env == '\0') {
    GTEST_SKIP() << "set STTCP_CHAOS_SEED=<seed> to replay a chaos schedule";
  }
  const ChaosVerdict v = run_chaos_seed(env_u64("STTCP_CHAOS_SEED", 0));
  std::fputs(v.report().c_str(), stderr);
  EXPECT_TRUE(v.ok()) << v.report();
}

TEST(ChaosFuzzTest, SameSeedGivesBitIdenticalVerdict) {
  for (const std::uint64_t seed : {3ull, 17ull, 58ull}) {
    const ChaosVerdict a = run_chaos_seed(seed);
    const ChaosVerdict b = run_chaos_seed(seed);
    EXPECT_EQ(a.digest, b.digest) << "seed " << seed;
    EXPECT_EQ(a.plan, b.plan);
    EXPECT_EQ(a.received, b.received);
    EXPECT_EQ(a.sim_ns, b.sim_ns);
  }
}

// Prove the checker can actually fail: both servers crash (outside the
// single-failure model every adversarial plan stays inside), so the transfer
// cannot complete and the stream-exact invariant must report it.
TEST(ChaosFuzzTest, UnsurvivableScheduleIsDetected) {
  TopologyConfig cfg;
  cfg.seed = 99;
  const auto topo = make_figure2(std::move(cfg));
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  const std::uint64_t size = 4'000'000;
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), size);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), size);
  app::DownloadClient::Options opt;
  opt.expected_bytes = size;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  InvariantChecker::Options iopt;
  iopt.expected_bytes = size;
  InvariantChecker checker(*topo, iopt);
  inject(*topo, Fault::Crash(Node::kPrimary).at(sim::Duration::millis(150)));
  inject(*topo, Fault::Crash(Node::kBackup).at(sim::Duration::millis(180)));
  client.start();
  topo->run_for(sim::Duration::seconds(30));
  const auto violations = checker.check(client);
  ASSERT_FALSE(violations.empty());
  bool stream_violation = false;
  for (const Violation& v : violations) {
    if (v.invariant == "stream-exact") stream_violation = true;
  }
  EXPECT_TRUE(stream_violation);
}

// Negative control for no-client-rst: a client connecting to the service
// port with nothing listening gets a real, checksum-valid RST from the
// primary's stack, and the checker must report it. Guards the RST-bit
// prefilter in front of the verifying parse.
TEST(ChaosFuzzTest, ClientVisibleRstIsDetected) {
  TopologyConfig tc;
  tc.seed = 5;
  TopologyBuilder b(tc);
  const int lan = b.add_switch("switch");
  b.add_host("client", {10, 0, 0, 1}, lan, {.with_stack = true});
  b.add_cell(lan, {});
  b.add_host("gateway", {10, 0, 0, 254}, lan);
  const auto topo = b.build();
  Cell& cell = topo->cell(0);
  app::DownloadClient::Options opt;
  opt.expected_bytes = 1000;
  app::DownloadClient client(*topo->host(0).stack, topo->host(0).ip,
                             {cell.connect_addr()}, opt);
  InvariantChecker::Options iopt;
  iopt.expected_bytes = opt.expected_bytes;
  iopt.expect_masked = false;
  InvariantChecker checker(*topo, iopt);
  client.start();
  topo->run_for(sim::Duration::seconds(2));

  EXPECT_EQ(client.connection_failures(), 1);
  int rst_violations = 0;
  for (const Violation& v : checker.check(client)) {
    if (v.invariant == "no-client-rst") ++rst_violations;
  }
  EXPECT_EQ(rst_violations, 1);
}

// Satellite: the serial heartbeat channel under line noise. Corrupt/cut
// messages are rejected by the codec (counted, never parsed as garbage), the
// stream of valid heartbeats resynchronizes between hits, and when the
// primary genuinely dies the backup still detects it and masks the failure
// on deadline — the transfer completes without client-visible damage.
TEST(SerialNoiseTest, NoisyHeartbeatChannelStillDetectsCrashOnDeadline) {
  TopologyConfig cfg;
  cfg.seed = 7;
  cfg.sttcp.max_delay_fin = sim::Duration::seconds(20);
  const auto topo = make_figure2(std::move(cfg));
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  const std::uint64_t size = 40'000'000;
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), size);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), size);
  app::DownloadClient::Options opt;
  opt.expected_bytes = size;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  // Heavy, unbounded line noise from t=0; the primary dies mid-transfer.
  inject(*topo, Fault::SerialCorrupt(0.4, 0.3, sim::Duration::zero()));
  inject(*topo, Fault::Crash(Node::kPrimary).at(sim::Duration::millis(2500)));
  client.start();
  topo->run_for(sim::Duration::seconds(120));

  EXPECT_TRUE(client.complete()) << topo->world().trace().dump();
  EXPECT_FALSE(client.corrupt());
  EXPECT_EQ(client.connection_failures(), 0);
  // Exactly one takeover: the noise alone must never trigger one (the UDP
  // channel keeps the peer visibly alive), the real crash must.
  EXPECT_EQ(topo->world().trace().count("backup", "takeover"), 1u);
  // The noise actually hit, and the codec rejected (counted) the damage.
  EXPECT_GT(cell.serial().stats().messages_corrupted +
                cell.serial().stats().messages_truncated,
            0u);
  const auto& backup_stats = cell.backup_endpoint()->stats();
  EXPECT_GT(backup_stats.hb_malformed, 0u);
}

}  // namespace
}  // namespace sttcp::harness
