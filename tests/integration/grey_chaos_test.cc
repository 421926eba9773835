// Grey-failure fuzzer: for every seed, FaultPlan::Grey(seed) draws a
// schedule with exactly one slow-not-dead fault (application hang or hard
// CPU stall, on the primary or the backup) plus mild loss-free garnish, and
// run_grey_seed() executes it under the InvariantChecker plus the grey
// checks: the grey host must be convicted by its peer within budget via a
// PROGRESS-COUNTER criterion (its heartbeats never stopped), the grey host
// must convict nobody, and the transfer must still complete bit-exact.
//
//   STTCP_GREY_SEEDS=N   sweep seed count (default 200; CI lanes lower it)
//   STTCP_GREY_SEED=S    replay exactly seed S via --gtest_filter='*ReplaySeed*'
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

using sim::Duration;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

TEST(GreyChaosTest, GreyPlansAreDeterministicAndBounded) {
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    const FaultPlan p = FaultPlan::Grey(seed);
    EXPECT_EQ(p.str(), FaultPlan::Grey(seed).str()) << "seed " << seed;
    ASSERT_GE(p.size(), 1u);
    EXPECT_LE(p.size(), 3u);
    // Exactly one convictable fault, always first, always on a server.
    const std::string& first = p.faults().front().label();
    EXPECT_TRUE(first.rfind("app_hang:", 0) == 0 ||
                first.rfind("cpu_stall:", 0) == 0)
        << p.str();
    EXPECT_TRUE(first.find(":primary") != std::string::npos ||
                first.find(":backup") != std::string::npos)
        << p.str();
    for (std::size_t i = 0; i < p.size(); ++i) {
      const std::string& l = p.faults()[i].label();
      if (i > 0) {
        // Garnish is mild and loss-free: jitter / duplicate / reorder only.
        EXPECT_TRUE(l.rfind("jitter:", 0) == 0 ||
                    l.rfind("duplicate:", 0) == 0 || l.rfind("reorder:", 0) == 0)
            << p.str();
      }
      // No loss, no corruption, no hard faults anywhere in a grey plan.
      EXPECT_EQ(l.find("burst_loss"), std::string::npos) << p.str();
      EXPECT_EQ(l.find("slow_nic"), std::string::npos) << p.str();
      EXPECT_EQ(l.find("corrupt"), std::string::npos) << p.str();
      EXPECT_EQ(l.find("crash"), std::string::npos) << p.str();
      EXPECT_EQ(l.find("nic_failure"), std::string::npos) << p.str();
      EXPECT_EQ(l.find("link"), std::string::npos) << p.str();
    }
  }
}

// The tentpole sweep: >= 200 grey schedules, zero violations — every grey
// host convicted within budget by counters (never by heartbeat silence),
// zero false convictions, every transfer complete.
TEST(GreyChaosTest, GreySweepHoldsAllInvariants) {
  const std::uint64_t seeds = env_u64("STTCP_GREY_SEEDS", 200);
  SweepRunner runner;
  const auto verdicts =
      runner.map(static_cast<std::size_t>(seeds), [](std::size_t i) {
        return run_grey_seed(static_cast<std::uint64_t>(i) + 1);
      });
  std::uint64_t failures = 0, stall_convictions = 0, lag_convictions = 0,
                 grey_primary = 0, grey_backup = 0;
  for (const GreyVerdict& v : verdicts) {
    if (!v.ok()) {
      ++failures;
      ADD_FAILURE() << v.report();
    }
    if (v.conviction_event == "progress_stall_detected") ++stall_convictions;
    if (v.conviction_event == "app_failure_detected") ++lag_convictions;
    if (v.grey_node == "primary") ++grey_primary;
    if (v.grey_node == "backup") ++grey_backup;
  }
  EXPECT_EQ(failures, 0u) << failures << " of " << seeds << " seeds violated";
  if (seeds >= 32) {
    // The sweep must exercise both victims and BOTH counter criteria: the
    // absolute stagnation watch (stalled primary freezes both sides'
    // counters — relative lag is blind there) and the relative lag trackers.
    EXPECT_GT(stall_convictions, 0u);
    EXPECT_GT(lag_convictions, 0u);
    EXPECT_GT(grey_primary, 0u);
    EXPECT_GT(grey_backup, 0u);
  }
}

// One-command replay: STTCP_GREY_SEED=<seed> ./grey_chaos_test
// --gtest_filter='*ReplaySeed*' re-runs exactly the printed schedule.
TEST(GreyChaosTest, ReplaySeed) {
  const char* env = std::getenv("STTCP_GREY_SEED");
  if (env == nullptr || *env == '\0') {
    GTEST_SKIP() << "set STTCP_GREY_SEED=<seed> to replay a grey schedule";
  }
  const GreyVerdict v = run_grey_seed(env_u64("STTCP_GREY_SEED", 0));
  std::fputs(v.report().c_str(), stderr);
  EXPECT_TRUE(v.ok()) << v.report();
}

TEST(GreyChaosTest, SameSeedGivesBitIdenticalVerdict) {
  for (const std::uint64_t seed : {2ull, 11ull, 42ull}) {
    const GreyVerdict a = run_grey_seed(seed);
    const GreyVerdict b = run_grey_seed(seed);
    EXPECT_EQ(a.digest, b.digest) << "seed " << seed;
    EXPECT_EQ(a.plan, b.plan);
    EXPECT_EQ(a.received, b.received);
    EXPECT_EQ(a.conviction_event, b.conviction_event);
    EXPECT_EQ(a.conviction_latency_ms, b.conviction_latency_ms);
    EXPECT_EQ(a.sim_ns, b.sim_ns);
  }
}

// The negative control the whole layer hangs on: a heartbeat-only detector
// (every counter criterion disabled) NEVER convicts an application hang —
// the stack keeps heartbeating around the dead app — while the counter-based
// detector catches it. Half 1 must fail to detect; half 2 must detect.
TEST(GreyChaosTest, HeartbeatOnlyDetectorMissesAppHangThatCountersCatch) {
  const std::uint64_t size = 40'000'000;
  // Half 1: counters off. The hang is invisible to heartbeat silence.
  {
    TopologyConfig cfg;
    cfg.seed = 5;
    cfg.sttcp.app_max_lag_bytes = 0;             // byte criterion off
    cfg.sttcp.app_max_lag_time = Duration::zero();  // time criterion off
    cfg.sttcp.progress_stall_time = Duration::zero();  // stagnation off
    const auto topo = make_figure2(std::move(cfg));
    Cell& cell = topo->cell();
    Topology::HostEntry& client_host = *topo->host_by_name("client");
    app::FileServer p_app(cell.primary_stack(), cell.service_port(), size);
    app::FileServer b_app(cell.backup_stack(), cell.service_port(), size);
    cell.register_server_app(cell.primary(), &p_app);
    cell.register_server_app(cell.backup(), &b_app);
    app::DownloadClient::Options opt;
    opt.expected_bytes = size;
    app::DownloadClient client(*client_host.stack, client_host.ip,
                               {cell.connect_addr()}, opt);
    inject(*topo, Fault::AppHang(Node::kPrimary).at(Duration::millis(400)));
    client.start();
    topo->run_for(Duration::seconds(10));

    EXPECT_TRUE(p_app.hung());
    EXPECT_FALSE(client.complete()) << "hung app cannot finish the transfer";
    EXPECT_EQ(topo->world().trace().count("peer_convicted"), 0u)
        << "heartbeat-only detector must NOT see an app hang: "
        << topo->world().trace().dump();
    EXPECT_EQ(topo->world().trace().count("takeover"), 0u);
  }
  // Half 2: identical scenario, counter criteria at their defaults (plus the
  // stagnation watch). The same hang is convicted and masked.
  {
    TopologyConfig cfg;
    cfg.seed = 5;
    cfg.sttcp.progress_stall_time = Duration::millis(1200);
    cfg.sttcp.max_delay_fin = Duration::seconds(20);
    const auto topo = make_figure2(std::move(cfg));
    Cell& cell = topo->cell();
    Topology::HostEntry& client_host = *topo->host_by_name("client");
    app::FileServer p_app(cell.primary_stack(), cell.service_port(), size);
    app::FileServer b_app(cell.backup_stack(), cell.service_port(), size);
    cell.register_server_app(cell.primary(), &p_app);
    cell.register_server_app(cell.backup(), &b_app);
    app::DownloadClient::Options opt;
    opt.expected_bytes = size;
    app::DownloadClient client(*client_host.stack, client_host.ip,
                               {cell.connect_addr()}, opt);
    inject(*topo, Fault::AppHang(Node::kPrimary).at(Duration::millis(400)));
    client.start();
    topo->run_for(Duration::seconds(30));

    EXPECT_TRUE(client.complete()) << topo->world().trace().dump();
    EXPECT_FALSE(client.corrupt());
    const auto* conviction = topo->world().trace().first("peer_convicted");
    ASSERT_NE(conviction, nullptr);
    EXPECT_EQ(conviction->component, "backup");
    EXPECT_EQ(conviction->detail, "app_failure_detected");
    EXPECT_EQ(topo->world().trace().count("backup", "takeover"), 1u);
  }
}

// A degraded receive path alone (30% one-way loss toward the primary) is
// TCP's job, not the failure detector's: retransmission masks it, the
// transfer completes, and nobody is convicted.
TEST(GreyChaosTest, SlowNicAloneIsMaskedWithoutConviction) {
  TopologyConfig cfg;
  cfg.seed = 9;
  cfg.sttcp.progress_stall_time = Duration::millis(1200);
  const auto topo = make_figure2(std::move(cfg));
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  const std::uint64_t size = 8'000'000;
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), size);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), size);
  app::DownloadClient::Options opt;
  opt.expected_bytes = size;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  // Unbounded window: the degradation lasts the whole run.
  inject(*topo, Fault::SlowNic(Node::kPrimary, 0.30, Duration::zero()));
  client.start();
  topo->run_for(Duration::seconds(60));

  EXPECT_TRUE(client.complete()) << topo->world().trace().dump();
  EXPECT_FALSE(client.corrupt());
  EXPECT_EQ(client.connection_failures(), 0);
  EXPECT_EQ(topo->world().trace().count("peer_convicted"), 0u)
      << topo->world().trace().dump();
  // The impairment really fired — the mask is TCP's, not luck.
  EXPECT_GT(cell.primary_link().impairment_ptr()->stats().oneway_dropped, 0u);
}

// The focused stagnation case: a hard CPU stall on the primary freezes BOTH
// sides' written counters at the same value (send buffers full, ACKs
// frozen), so the relative lag trackers see zero lag — only the absolute
// ProgressWatch can convict, and must.
TEST(GreyChaosTest, CpuStallPrimaryConvictedByStagnation) {
  TopologyConfig cfg;
  cfg.seed = 13;
  cfg.sttcp.progress_stall_time = Duration::millis(1200);
  cfg.sttcp.max_delay_fin = Duration::seconds(20);
  const auto topo = make_figure2(std::move(cfg));
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  const std::uint64_t size = 40'000'000;
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), size);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), size);
  cell.register_server_app(cell.primary(), &p_app);
  cell.register_server_app(cell.backup(), &b_app);
  app::DownloadClient::Options opt;
  opt.expected_bytes = size;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  inject(*topo, 
      Fault::CpuStall(Node::kPrimary, sim::LagProfile::stall(Duration::seconds(8)))
          .at(Duration::millis(500)));
  client.start();
  topo->run_for(Duration::seconds(30));

  EXPECT_TRUE(client.complete()) << topo->world().trace().dump();
  EXPECT_FALSE(client.corrupt());
  const auto* conviction = topo->world().trace().first("peer_convicted");
  ASSERT_NE(conviction, nullptr) << topo->world().trace().dump();
  EXPECT_EQ(conviction->component, "backup");
  EXPECT_EQ(conviction->detail, "progress_stall_detected");
  EXPECT_EQ(topo->world().trace().count("backup", "takeover"), 1u);
  // Conviction while heartbeats were still flowing: the last heartbeat the
  // backup heard arrived AFTER the stall began.
  const auto stall_at = topo->world().trace().first_time("cpu_stall");
  ASSERT_TRUE(stall_at.has_value());
  EXPECT_GT(conviction->at, *stall_at);
}

// A duty-cycled stutter whose stalls stay under the stagnation threshold is
// degraded-but-alive: counters keep advancing between pulses, TCP absorbs
// the hiccups, and no one is convicted.
TEST(GreyChaosTest, DutyCycledStutterUnderThresholdIsMasked) {
  TopologyConfig cfg;
  cfg.seed = 21;
  cfg.sttcp.progress_stall_time = Duration::millis(1200);
  const auto topo = make_figure2(std::move(cfg));
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  const std::uint64_t size = 8'000'000;
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), size);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), size);
  app::DownloadClient::Options opt;
  opt.expected_bytes = size;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  // Run 400 ms / stall 300 ms, eight pulses: every stall is well under both
  // the 1.2 s stagnation threshold and the relative-lag grace.
  inject(*topo, Fault::CpuStall(Node::kPrimary,
                                sim::LagProfile::pulses(Duration::millis(400),
                                                        Duration::millis(300), 8))
                .at(Duration::millis(300)));
  client.start();
  topo->run_for(Duration::seconds(60));

  EXPECT_TRUE(client.complete()) << topo->world().trace().dump();
  EXPECT_FALSE(client.corrupt());
  EXPECT_EQ(topo->world().trace().count("peer_convicted"), 0u)
      << topo->world().trace().dump();
}

}  // namespace
}  // namespace sttcp::harness
