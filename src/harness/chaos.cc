#include "harness/chaos.h"

#include <cstdio>
#include <memory>

#include "app/client.h"
#include "app/server.h"
#include "harness/fnv.h"
#include "harness/topology.h"
#include "net/impairment.h"

namespace sttcp::harness {

ChaosVerdict run_chaos_seed(std::uint64_t seed, const ChaosOptions& opts) {
  TopologyConfig cfg;
  cfg.seed = seed;
  // Chaos runs MUST verify TCP checksums: the checksum-drop invariant is
  // what turns wire corruption into accounted drops instead of silent
  // stream damage. The config default is already true; this is the audit.
  cfg.tcp.verify_checksums = true;
  // Crash schedules can leave one side's FIN arbitration waiting on a dead
  // peer; same allowance the existing chaos sweep makes.
  cfg.sttcp.max_delay_fin = sim::Duration::seconds(20);
  const auto topo = make_figure2(std::move(cfg));
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  Topology::HostEntry& gateway_host = *topo->host_by_name("gateway");

  app::FileServer p_app(cell.primary_stack(), cell.service_port(), opts.file_size);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), opts.file_size);
  app::DownloadClient::Options copt;
  copt.expected_bytes = opts.file_size;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, copt);

  InvariantChecker::Options iopt;
  iopt.expected_bytes = opts.file_size;
  iopt.expect_masked = opts.expect_masked;
  InvariantChecker checker(*topo, iopt);

  const FaultPlan plan = FaultPlan::Adversarial(seed);
  inject(*topo, plan);
  client.start();

  const sim::SimTime deadline = topo->world().now() + opts.run_cap;
  while (!client.complete() && topo->world().now() < deadline) {
    topo->run_for(sim::Duration::millis(250));
  }
  // Drain: FIN arbitration, hold-buffer release and replica GC settle before
  // the bounded-memory checks read their final state.
  topo->run_for(sim::Duration::seconds(1));

  ChaosVerdict v;
  v.seed = seed;
  v.plan = plan.str();
  v.violations = checker.check(client);
  v.complete = client.complete();
  v.received = client.received();
  const net::Link* links[4] = {client_host.link, &cell.primary_link(),
                               &cell.backup_link(), gateway_host.link};
  for (const net::Link* l : links) {
    if (const net::Impairment* imp = l->impairment_ptr()) {
      v.corrupted += imp->stats().corrupted;
      v.duplicated += imp->stats().duplicated;
      v.reordered += imp->stats().reordered;
      v.burst_dropped += imp->stats().burst_dropped;
    }
  }
  v.checksum_drops = client_host.stack->stats().bad_checksum +
                     cell.primary_stack().stats().bad_checksum +
                     cell.backup_stack().stats().bad_checksum;
  v.takeovers = topo->world().trace().count("takeover");
  v.non_ft = topo->world().trace().count("non_ft_mode");
  v.sim_ns = (topo->world().now() - sim::SimTime::zero()).ns();

  std::uint64_t h = kDigestSeed;
  h = fnv_mix(h, v.seed);
  h = fnv_mix(h, v.plan);
  for (const Violation& viol : v.violations) h = fnv_mix(h, viol.str());
  h = fnv_mix(h, v.complete ? 1 : 0);
  h = fnv_mix(h, v.received);
  h = fnv_mix(h, v.corrupted);
  h = fnv_mix(h, v.duplicated);
  h = fnv_mix(h, v.reordered);
  h = fnv_mix(h, v.burst_dropped);
  h = fnv_mix(h, v.checksum_drops);
  h = fnv_mix(h, v.takeovers);
  h = fnv_mix(h, v.non_ft);
  h = fnv_mix(h, static_cast<std::uint64_t>(v.sim_ns));
  v.digest = h;
  return v;
}

MultiFailureVerdict run_multi_failure_seed(std::uint64_t seed,
                                           const MultiFailureOptions& opts) {
  TopologyConfig cfg;
  cfg.seed = seed;
  cfg.tcp.verify_checksums = true;
  cfg.sttcp.max_delay_fin = sim::Duration::seconds(20);
  CellConfig cell_cfg;
  cell_cfg.extra_backups = opts.backups > 1 ? opts.backups - 1 : 0;
  const auto topo = make_figure2(std::move(cfg), std::move(cell_cfg));
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");

  app::FileServer p_app(cell.primary_stack(), cell.service_port(), opts.file_size);
  std::vector<std::unique_ptr<app::FileServer>> b_apps;
  for (int b = 0; b < cell.backup_count(); ++b) {
    b_apps.push_back(std::make_unique<app::FileServer>(
        cell.backup_stack(b), cell.service_port(), opts.file_size));
  }
  app::DownloadClient::Options copt;
  copt.expected_bytes = opts.file_size;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, copt);

  InvariantChecker::Options iopt;
  iopt.expected_bytes = opts.file_size;
  iopt.expect_masked = opts.expect_masked;
  InvariantChecker checker(*topo, iopt);

  const FaultPlan plan = FaultPlan::MultiFailure(seed, opts.backups);
  inject(*topo, plan);
  client.start();

  const sim::SimTime deadline = topo->world().now() + opts.run_cap;
  while (!client.complete() && topo->world().now() < deadline) {
    topo->run_for(sim::Duration::millis(250));
  }
  topo->run_for(sim::Duration::seconds(1));

  MultiFailureVerdict v;
  v.seed = seed;
  v.plan = plan.str();
  v.backups = opts.backups;
  v.leader_involved = FaultPlan::MultiFailureInvolvesLeader(seed);
  v.violations = checker.check(client);
  v.complete = client.complete();
  v.received = client.received();
  const sim::TraceRecorder& trace = topo->world().trace();
  for (const sim::TraceEntry& e : trace.entries()) {
    if (e.event == "member_convicted") v.convicted.push_back(e.detail);
    if (e.event == "promoted" && v.promotion_winner.empty()) {
      v.promotion_winner = e.component;
    }
  }
  v.takeovers = trace.count("takeover");
  v.non_ft = trace.count("non_ft_mode");
  v.sim_ns = (topo->world().now() - sim::SimTime::zero()).ns();

  std::uint64_t h = kDigestSeed;
  h = fnv_mix(h, v.seed);
  h = fnv_mix(h, v.plan);
  for (const Violation& viol : v.violations) h = fnv_mix(h, viol.str());
  h = fnv_mix(h, v.complete ? 1 : 0);
  h = fnv_mix(h, v.received);
  h = fnv_mix(h, static_cast<std::uint64_t>(v.backups));
  h = fnv_mix(h, v.leader_involved ? 1 : 0);
  for (const std::string& c : v.convicted) h = fnv_mix(h, c);
  h = fnv_mix(h, v.promotion_winner);
  h = fnv_mix(h, v.takeovers);
  h = fnv_mix(h, v.non_ft);
  h = fnv_mix(h, static_cast<std::uint64_t>(v.sim_ns));
  v.digest = h;
  return v;
}

std::string MultiFailureVerdict::report() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "multi-failure seed %llu (1+%d): %s\n",
                static_cast<unsigned long long>(seed), backups,
                ok() ? "all invariants held" : "INVARIANT VIOLATION");
  out += line;
  out += "  plan: " + plan + "\n";
  std::string who;
  for (const std::string& c : convicted) {
    if (!who.empty()) who += ",";
    who += c;
  }
  std::snprintf(line, sizeof(line),
                "  outcome: %s, %llu bytes; leader_involved=%d convicted=[%s] "
                "promoted=%s takeovers=%llu non_ft=%llu sim=%.3fs\n",
                complete ? "complete" : "INCOMPLETE",
                static_cast<unsigned long long>(received),
                leader_involved ? 1 : 0, who.c_str(),
                promotion_winner.empty() ? "(nobody)" : promotion_winner.c_str(),
                static_cast<unsigned long long>(takeovers),
                static_cast<unsigned long long>(non_ft),
                static_cast<double>(sim_ns) * 1e-9);
  out += line;
  for (const Violation& v : violations) out += "  violated " + v.str() + "\n";
  if (!ok()) {
    std::snprintf(line, sizeof(line),
                  "  replay: STTCP_MULTI_SEED=%llu "
                  "./build/tests/integration_multi_failure_test "
                  "--gtest_filter='*ReplaySeed*'\n",
                  static_cast<unsigned long long>(seed));
    out += line;
  }
  return out;
}

Node grey_victim(const FaultPlan& plan) {
  // By construction the convictable fault is first and names its node in the
  // label ("app_hang:backup", "cpu_stall:primary(stall(8.00s))").
  const std::string& l = plan.faults().front().label();
  return l.find(":backup") != std::string::npos ? Node::kBackup
                                                : Node::kPrimary;
}

GreyVerdict run_grey_seed(std::uint64_t seed, const GreyOptions& opts) {
  TopologyConfig cfg;
  cfg.seed = seed;
  cfg.tcp.verify_checksums = true;
  // Arm the absolute-stagnation criterion: this is the only sweep that sets
  // it, so every other suite keeps the bit-identical zero-default behaviour.
  cfg.sttcp.progress_stall_time = opts.progress_stall_time;
  // A convicted-then-STONITHed host can leave FIN arbitration pending on the
  // survivor; same allowance the adversarial sweep makes.
  cfg.sttcp.max_delay_fin = sim::Duration::seconds(20);
  const auto topo = make_figure2(std::move(cfg));
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");

  app::FileServer p_app(cell.primary_stack(), cell.service_port(), opts.file_size);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), opts.file_size);
  cell.register_server_app(cell.primary(), &p_app);
  cell.register_server_app(cell.backup(), &b_app);
  app::DownloadClient::Options copt;
  copt.expected_bytes = opts.file_size;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, copt);

  InvariantChecker::Options iopt;
  iopt.expected_bytes = opts.file_size;
  iopt.expect_masked = true;
  InvariantChecker checker(*topo, iopt);

  const FaultPlan plan = FaultPlan::Grey(seed);
  const Node victim = grey_victim(plan);
  inject(*topo, plan);
  client.start();

  const sim::SimTime deadline = topo->world().now() + opts.run_cap;
  while (!client.complete() && topo->world().now() < deadline) {
    topo->run_for(sim::Duration::millis(250));
  }
  topo->run_for(sim::Duration::seconds(1));

  GreyVerdict v;
  v.seed = seed;
  v.plan = plan.str();
  v.grey_node = to_string(victim);
  v.violations = checker.check(client);
  checker.check_grey(topo->world().trace(), victim, opts.conviction_budget,
                     v.violations);
  v.complete = client.complete();
  v.received = client.received();

  const sim::TraceRecorder& trace = topo->world().trace();
  const std::string peer_name =
      victim == Node::kPrimary ? "backup" : "primary";
  const auto fault_at = trace.first_time("fault_injected");
  for (const sim::TraceEntry& e : trace.entries()) {
    if (e.event != "peer_convicted") continue;
    if (e.component == peer_name && v.conviction_event.empty()) {
      v.conviction_event = e.detail;
      if (fault_at.has_value()) {
        v.conviction_latency_ms = (e.at - *fault_at).to_millis();
      }
    } else if (e.component == to_string(victim)) {
      ++v.false_convictions;
    }
  }
  v.takeovers = trace.count("takeover");
  v.non_ft = trace.count("non_ft_mode");
  v.sim_ns = (topo->world().now() - sim::SimTime::zero()).ns();

  std::uint64_t h = kDigestSeed;
  h = fnv_mix(h, v.seed);
  h = fnv_mix(h, v.plan);
  for (const Violation& viol : v.violations) h = fnv_mix(h, viol.str());
  h = fnv_mix(h, v.complete ? 1 : 0);
  h = fnv_mix(h, v.received);
  h = fnv_mix(h, v.grey_node);
  h = fnv_mix(h, v.conviction_event);
  h = fnv_mix(h, static_cast<std::uint64_t>(
                     static_cast<std::int64_t>(v.conviction_latency_ms * 1000)));
  h = fnv_mix(h, v.false_convictions);
  h = fnv_mix(h, v.takeovers);
  h = fnv_mix(h, v.non_ft);
  h = fnv_mix(h, static_cast<std::uint64_t>(v.sim_ns));
  v.digest = h;
  return v;
}

std::string GreyVerdict::report() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "grey seed %llu: %s\n",
                static_cast<unsigned long long>(seed),
                ok() ? "all invariants held" : "INVARIANT VIOLATION");
  out += line;
  out += "  plan: " + plan + "\n";
  std::snprintf(line, sizeof(line),
                "  outcome: %s, %llu bytes; grey=%s convicted_by=%s "
                "latency=%.1fms false_convictions=%llu takeovers=%llu "
                "non_ft=%llu sim=%.3fs\n",
                complete ? "complete" : "INCOMPLETE",
                static_cast<unsigned long long>(received), grey_node.c_str(),
                conviction_event.empty() ? "(never)" : conviction_event.c_str(),
                conviction_latency_ms,
                static_cast<unsigned long long>(false_convictions),
                static_cast<unsigned long long>(takeovers),
                static_cast<unsigned long long>(non_ft),
                static_cast<double>(sim_ns) * 1e-9);
  out += line;
  for (const Violation& v : violations) out += "  violated " + v.str() + "\n";
  if (!ok()) {
    std::snprintf(line, sizeof(line),
                  "  replay: STTCP_GREY_SEED=%llu "
                  "./build/tests/integration_grey_chaos_test "
                  "--gtest_filter='*ReplaySeed*'\n",
                  static_cast<unsigned long long>(seed));
    out += line;
  }
  return out;
}

std::string ChaosVerdict::report() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "chaos seed %llu: %s\n",
                static_cast<unsigned long long>(seed),
                ok() ? "all invariants held" : "INVARIANT VIOLATION");
  out += line;
  out += "  plan: " + plan + "\n";
  std::snprintf(line, sizeof(line),
                "  outcome: %s, %llu bytes; corrupted=%llu dup=%llu "
                "reordered=%llu burst_dropped=%llu checksum_drops=%llu "
                "takeovers=%llu non_ft=%llu sim=%.3fs\n",
                complete ? "complete" : "INCOMPLETE",
                static_cast<unsigned long long>(received),
                static_cast<unsigned long long>(corrupted),
                static_cast<unsigned long long>(duplicated),
                static_cast<unsigned long long>(reordered),
                static_cast<unsigned long long>(burst_dropped),
                static_cast<unsigned long long>(checksum_drops),
                static_cast<unsigned long long>(takeovers),
                static_cast<unsigned long long>(non_ft),
                static_cast<double>(sim_ns) * 1e-9);
  out += line;
  for (const Violation& v : violations) out += "  violated " + v.str() + "\n";
  if (!ok()) {
    std::snprintf(line, sizeof(line),
                  "  replay: STTCP_CHAOS_SEED=%llu "
                  "./build/tests/integration_chaos_fuzz_test "
                  "--gtest_filter='*ReplaySeed*'\n",
                  static_cast<unsigned long long>(seed));
    out += line;
  }
  return out;
}

}  // namespace sttcp::harness
