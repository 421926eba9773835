// Exhaustive interleaving explorer: bounded model checking over the event
// loop's ready set for the one-connection, one-server-pair failover.
//
// Chaos fuzzing samples schedules; this explorer ENUMERATES them. A trial is
// a stateless re-execution: build the deterministic Figure-2 topology from a
// fixed seed, crash the primary mid-transfer, and step the event loop one
// event at a time through a choice window covering detection -> takeover.
// Wherever more than one pending event lies within `quantum` of the earliest
// one, the events are concurrent up to bounded delivery/scheduling delay and
// their execution order is a genuine nondeterminism of a real deployment —
// the explorer forks on it (EventLoop::run_event forces the chosen order;
// the bypassed event then runs late). Depth-first search over the recorded
// branching vectors visits every schedule; a state digest taken at each
// fresh choice point prunes subtrees rooted in an already-visited state.
//
// Every schedule runs under the InvariantChecker: no schedule may show the
// client a RST or two active servers, and every schedule must complete the
// transfer bit-exact. Re-running a recorded choice vector is bit-identical,
// so any schedule id from a report can be replayed one-command.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "sim/time.h"

namespace sttcp::app {
class DownloadClient;
}
namespace sttcp::sim {
class EventLoop;
}

namespace sttcp::harness {

class Topology;

struct ExploreOptions {
  std::uint64_t seed = 1;
  /// Small enough that a trial is milliseconds of sim; big enough that the
  /// transfer is mid-stream when the primary dies.
  std::uint64_t file_size = 400'000;
  sim::Duration crash_at = sim::Duration::millis(10);
  /// Wire-drain margin after the crash before choices begin: frames already
  /// in flight land in one fixed order (they are not schedule choices — the
  /// crash cannot retroactively reorder the past).
  sim::Duration margin = sim::Duration::millis(5);
  /// Choice-window length. The default covers the whole 3-miss/200 ms
  /// detection window plus takeover with slack.
  sim::Duration window = sim::Duration::millis(900);
  /// Keep branching this long past the takeover, then stop forking: the
  /// dual-active / client-RST hazards live around the takeover itself.
  sim::Duration takeover_tail = sim::Duration::millis(50);
  /// Events within this of the earliest pending one count as concurrent.
  sim::Duration quantum = sim::Duration::micros(50);
  /// Per-choice-point fan-out cap (the ready set is (at, seq)-ordered, so
  /// the capped prefix is the earliest — and most interesting — events).
  std::size_t max_branch = 3;
  /// Choice points per schedule cap.
  std::size_t max_depth = 64;
  /// Total schedule cap; the search reports truncated=true when it bites.
  std::uint64_t max_schedules = 20'000;
  /// Per-trial wall on simulated time after the choice window.
  sim::Duration run_cap = sim::Duration::seconds(30);
  /// Backups beyond the classic one. 0 explores the paper's 1+1 pair;
  /// 1 explores the three-host replication group, where the crash opens a
  /// PROMOTION RACE between the two surviving backups — the enumeration then
  /// proves no interleaving of conviction, vote and announce yields a
  /// dual-active pair or a client-visible RST.
  int extra_backups = 0;
  /// Also crash the rank-1 backup at `crash_at` (simultaneous double
  /// failure): the enumerated window must show rank-2 winning every race.
  bool crash_rank1 = false;
};

/// One explored schedule: its choice vector (index into the ready set at
/// each registered choice point) and the outcome digest of its run.
struct ScheduleOutcome {
  std::vector<std::uint8_t> choices;
  std::uint64_t digest = 0;
  bool ok = true;
};

struct ExploreStats {
  std::uint64_t schedules = 0;   // complete schedules executed
  std::uint64_t pruned = 0;      // choice points cut by state-digest match
  std::size_t max_depth = 0;     // deepest registered choice point
  std::uint64_t events = 0;      // events single-stepped across all trials
  std::uint64_t violations = 0;  // schedules with >= 1 invariant violation
  std::vector<std::string> violation_reports;  // first few, with schedule id
  bool truncated = false;        // a cap (schedules / depth) was hit
  /// FNV-1a fold of every schedule digest in exploration order: two explores
  /// of the same options must match bit-for-bit.
  std::uint64_t digest = 0;
};

class Explorer {
 public:
  explicit Explorer(ExploreOptions opts = {});

  /// Run the bounded-DFS enumeration. Idempotent per Explorer instance only
  /// in the sense that a fresh Explorer with equal options reproduces it.
  ExploreStats explore();

  /// Re-execute one schedule by its recorded choice vector (fresh topology,
  /// no search bookkeeping) and return its outcome digest — bit-identical to
  /// the digest recorded during explore().
  std::uint64_t replay(const std::vector<std::uint8_t>& choices);

  /// Every schedule explored, in DFS order (schedule id = index).
  const std::vector<ScheduleOutcome>& schedules() const { return schedules_; }

 private:
  struct TrialResult {
    std::uint64_t digest = 0;
    bool complete = false;
    std::vector<std::string> violations;
  };

  /// Execute one schedule. While `depth < choices.size()` the prescribed
  /// branch is taken; beyond that, with `extend`, fresh choice points are
  /// registered (appending to choices/branches) unless their state digest
  /// was already seen — without `extend` (replay) the earliest event is
  /// taken, which is what the original run did at pruned points.
  TrialResult run_trial(std::vector<std::uint8_t>& choices,
                        std::vector<std::uint8_t>& branches, bool extend,
                        ExploreStats* stats);

  /// Semantic state fingerprint at a choice point: pending-event offsets
  /// relative to now, stream progress, host liveness, stack footprints, and
  /// failover mode markers. Schedule-history artifacts (sequence numbers,
  /// trace length) are deliberately excluded so converging interleavings
  /// collide and prune.
  static std::uint64_t state_digest(sim::EventLoop& loop, Topology& topo,
                                    const app::DownloadClient& client);

  ExploreOptions opts_;
  std::unordered_set<std::uint64_t> seen_;
  std::vector<ScheduleOutcome> schedules_;
};

}  // namespace sttcp::harness
