#include "harness/explore.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "app/client.h"
#include "app/server.h"
#include "harness/invariants.h"
#include "harness/topology.h"
#include "sim/event_loop.h"

namespace sttcp::harness {

namespace {

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fnv_mix(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

}  // namespace

Explorer::Explorer(ExploreOptions opts) : opts_(opts) {}

std::uint64_t Explorer::state_digest(sim::EventLoop& loop, Topology& topo,
                                     const app::DownloadClient& client) {
  Cell& cell = topo.cell();
  Topology::HostEntry& client_host = *topo.host_by_name("client");
  std::uint64_t h = kFnvBasis;
  // Pending events as offsets from now. Sequence numbers are excluded: they
  // encode allocation history, and two interleavings that converged to the
  // same semantic state differ only in history.
  const sim::SimTime now = loop.now();
  for (const auto& e : loop.ready_events(sim::SimTime::never())) {
    h = fnv_mix(h, static_cast<std::uint64_t>((e.at - now).ns()));
  }
  h = fnv_mix(h, client.received());
  // Liveness bitmap: client, primary, backups..., gateway. At one backup the
  // layout (and every later mix) is bit-identical to the historic pair form.
  std::uint64_t alive =
      (client_host.host->alive() ? 1u : 0u) | (cell.primary().alive() ? 2u : 0u);
  std::uint64_t bit = 4;
  for (int b = 0; b < cell.backup_count(); ++b, bit <<= 1) {
    if (cell.backup_host(b).alive()) alive |= bit;
  }
  if (topo.host_by_name("gateway")->host->alive()) alive |= bit;
  h = fnv_mix(h, alive);
  std::vector<tcp::TcpStack*> stacks = {client_host.stack.get(),
                                        &cell.primary_stack()};
  for (int b = 0; b < cell.backup_count(); ++b) {
    stacks.push_back(&cell.backup_stack(b));
  }
  for (tcp::TcpStack* s : stacks) {
    h = fnv_mix(h, s->connection_count());
    h = fnv_mix(h, s->pending_segments());
    h = fnv_mix(h, s->memory_bytes());
  }
  // Failover mode markers: these trace events fire at most once per run, so
  // their counts are state, not history.
  h = fnv_mix(h, topo.world().trace().count("takeover"));
  h = fnv_mix(h, topo.world().trace().count("stonith"));
  h = fnv_mix(h, topo.world().trace().count("non_ft_mode"));
  if (cell.backup_count() > 1) {
    // Promotion-race markers (group mode only, so pair digests are
    // unchanged): these distinguish "convicted, racing" from "promoted".
    h = fnv_mix(h, topo.world().trace().count("member_convicted"));
    h = fnv_mix(h, topo.world().trace().count("promoted"));
    h = fnv_mix(h, topo.world().trace().count("view_announced"));
  }
  return h;
}

Explorer::TrialResult Explorer::run_trial(std::vector<std::uint8_t>& choices,
                                          std::vector<std::uint8_t>& branches,
                                          bool extend, ExploreStats* stats) {
  TopologyConfig cfg;
  cfg.seed = opts_.seed;
  cfg.sttcp.max_delay_fin = sim::Duration::seconds(20);
  CellConfig cell_cfg;
  cell_cfg.extra_backups = opts_.extra_backups;
  const auto topo = make_figure2(std::move(cfg), std::move(cell_cfg));
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");

  app::FileServer p_app(cell.primary_stack(), cell.service_port(), opts_.file_size);
  std::vector<std::unique_ptr<app::FileServer>> b_apps;
  for (int b = 0; b < cell.backup_count(); ++b) {
    b_apps.push_back(std::make_unique<app::FileServer>(
        cell.backup_stack(b), cell.service_port(), opts_.file_size));
  }
  app::DownloadClient::Options copt;
  copt.expected_bytes = opts_.file_size;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, copt);

  InvariantChecker::Options iopt;
  iopt.expected_bytes = opts_.file_size;
  iopt.expect_masked = true;
  InvariantChecker checker(*topo, iopt);

  inject(*topo, Fault::Crash(Node::kPrimary).at(opts_.crash_at));
  if (opts_.crash_rank1) {
    inject(*topo, Fault::Crash(Node::kBackup).at(opts_.crash_at));
  }
  client.start();

  sim::EventLoop& loop = topo->world().loop();
  const sim::SimTime t0 = loop.now();
  const sim::SimTime win_start = t0 + opts_.crash_at + opts_.margin;
  sim::SimTime win_end = win_start + opts_.window;

  // Pre-window: fixed order — in-flight frames and the healthy prefix of the
  // transfer are not schedule choices.
  loop.run_until(win_start);

  std::size_t depth = 0;
  bool takeover_seen = false;
  while (true) {
    if (!takeover_seen && topo->world().trace().count("takeover") > 0) {
      takeover_seen = true;
      const sim::SimTime tail_end = loop.now() + opts_.takeover_tail;
      if (tail_end < win_end) win_end = tail_end;
    }
    const sim::SimTime t_next = loop.next_event_at();
    if (t_next.is_never() || t_next >= win_end) break;
    const auto ready = loop.ready_events(t_next + opts_.quantum);
    std::size_t pick = 0;
    const std::size_t branch = std::min(ready.size(), opts_.max_branch);
    if (branch > 1 && depth < opts_.max_depth) {
      if (depth < choices.size()) {
        pick = choices[depth];
        ++depth;
      } else if (extend) {
        const std::uint64_t d = state_digest(loop, *topo, client);
        if (seen_.insert(d).second) {
          choices.push_back(0);
          branches.push_back(static_cast<std::uint8_t>(branch));
          ++depth;
        } else if (stats != nullptr) {
          ++stats->pruned;  // visited state: run on without forking
        }
      }
      // Replay past the recorded vector: take the earliest event, exactly
      // what the original run did at its pruned (unregistered) points.
    }
    loop.run_event(ready[pick].id);
    if (stats != nullptr) ++stats->events;
  }
  if (stats != nullptr) {
    if (depth > stats->max_depth) stats->max_depth = depth;
    if (depth >= opts_.max_depth) stats->truncated = true;
  }

  // Post-window: the schedule is fixed; let the failover finish normally.
  const sim::SimTime deadline = loop.now() + opts_.run_cap;
  while (!client.complete() && loop.now() < deadline) {
    topo->run_for(sim::Duration::millis(250));
  }
  topo->run_for(sim::Duration::seconds(1));

  TrialResult r;
  r.complete = client.complete();
  for (const Violation& v : checker.check(client)) {
    r.violations.push_back(v.str());
  }
  std::uint64_t h = kFnvBasis;
  h = fnv_mix(h, client.received());
  h = fnv_mix(h, r.complete ? 1 : 0);
  h = fnv_mix(h, topo->world().trace().count("takeover"));
  h = fnv_mix(h, topo->world().trace().count("non_ft_mode"));
  h = fnv_mix(h, static_cast<std::uint64_t>(
                     (loop.now() - sim::SimTime::zero()).ns()));
  for (const std::string& v : r.violations) h = fnv_mix(h, v);
  r.digest = h;
  return r;
}

ExploreStats Explorer::explore() {
  ExploreStats stats;
  stats.digest = kFnvBasis;
  seen_.clear();
  schedules_.clear();

  std::vector<std::uint8_t> choices;   // DFS path (prefix prescribed, rest grown)
  std::vector<std::uint8_t> branches;  // branching factor at each depth
  while (true) {
    TrialResult r = run_trial(choices, branches, /*extend=*/true, &stats);
    ++stats.schedules;
    stats.digest = fnv_mix(stats.digest, r.digest);
    ScheduleOutcome out;
    out.choices = choices;
    out.digest = r.digest;
    out.ok = r.violations.empty();
    if (!out.ok) {
      ++stats.violations;
      if (stats.violation_reports.size() < 5) {
        std::string rep = "schedule " + std::to_string(schedules_.size()) + " [";
        for (std::size_t i = 0; i < choices.size(); ++i) {
          if (i != 0) rep += ",";
          rep += std::to_string(static_cast<int>(choices[i]));
        }
        rep += "]:";
        for (const std::string& v : r.violations) rep += "\n  violated " + v;
        stats.violation_reports.push_back(std::move(rep));
      }
    }
    schedules_.push_back(std::move(out));

    if (stats.schedules >= opts_.max_schedules) {
      stats.truncated = true;
      break;
    }
    // Lexicographic advance: bump the deepest choice with siblings left.
    while (!choices.empty() && choices.back() + 1u >= branches.back()) {
      choices.pop_back();
      branches.pop_back();
    }
    if (choices.empty()) break;  // tree exhausted
    ++choices.back();
  }
  return stats;
}

std::uint64_t Explorer::replay(const std::vector<std::uint8_t>& choices) {
  std::vector<std::uint8_t> c = choices;
  std::vector<std::uint8_t> b;
  return run_trial(c, b, /*extend=*/false, nullptr).digest;
}

}  // namespace sttcp::harness
