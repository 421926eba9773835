// One chaos trial: adversarial multi-fault schedule + invariant verdict.
//
// run_chaos_seed(seed) is the unit the fuzzer, the replay path and the bench
// all share: build the Figure-2 topology from `seed`, draw the 2–4-fault
// FaultPlan::Adversarial(seed) schedule, run the transfer under an
// InvariantChecker, and fold everything observable into a ChaosVerdict. The
// verdict carries a fingerprint of every outcome-relevant quantity, so
// "same seed => bit-identical verdict" is a testable property, and
// ChaosVerdict::report() prints the exact seed + schedule + replay command
// when anything is violated.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/invariants.h"
#include "sim/time.h"

namespace sttcp::harness {

struct ChaosOptions {
  /// Transfer size. Big enough that every fault window in an adversarial
  /// schedule (faults land by 0.8 s, windows run up to 1.5 s) overlaps the
  /// live stream; small enough to keep 200 seeds cheap.
  std::uint64_t file_size = 8'000'000;
  /// Wall on simulated time; generous next to the ~1 s healthy transfer so
  /// retransmission storms and failovers have room to resolve.
  sim::Duration run_cap = sim::Duration::seconds(90);
  /// Passed through to InvariantChecker: adversarial plans are survivable by
  /// construction, so completion is part of the verdict.
  bool expect_masked = true;
};

struct ChaosVerdict {
  std::uint64_t seed = 0;
  std::string plan;
  std::vector<Violation> violations;

  // Outcome + impairment accounting (for reports and the bench table).
  bool complete = false;
  std::uint64_t received = 0;
  std::uint64_t corrupted = 0;      // frames corrupted on the wire
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  std::uint64_t burst_dropped = 0;
  std::uint64_t checksum_drops = 0;  // stack-level drops across all hosts
  std::uint64_t takeovers = 0;
  std::uint64_t non_ft = 0;
  std::int64_t sim_ns = 0;  // simulated time consumed

  /// FNV-1a fold of every field above (violations included): two runs of the
  /// same seed must produce equal digests.
  std::uint64_t digest = 0;

  bool ok() const { return violations.empty(); }
  /// Multi-line failure report: seed, schedule, violations, and the
  /// one-command replay line.
  std::string report() const;
};

ChaosVerdict run_chaos_seed(std::uint64_t seed, const ChaosOptions& opts = {});

// --- grey failures ---------------------------------------------------------

struct GreyOptions {
  /// Big enough that the transfer is still mid-stream (demand outstanding)
  /// when the latest-landing grey fault has been convicted: the counter
  /// criteria need unacknowledged bytes to reason about.
  std::uint64_t file_size = 40'000'000;
  sim::Duration run_cap = sim::Duration::seconds(90);
  /// Absolute-stagnation conviction threshold armed on both endpoints
  /// (StTcpConfig::progress_stall_time). Must clear the heartbeat staleness
  /// and replica grace, and stay well under conviction_budget.
  sim::Duration progress_stall_time = sim::Duration::millis(1200);
  /// Fault injection -> conviction wall asserted by the grey invariants.
  sim::Duration conviction_budget = sim::Duration::seconds(3);
};

/// One grey trial: FaultPlan::Grey(seed) under the InvariantChecker plus the
/// grey-specific checks (counter-based conviction of the grey host within
/// budget, no conviction BY the grey host). The transfer must still complete
/// bit-exact — grey failures are survivable by construction.
struct GreyVerdict {
  std::uint64_t seed = 0;
  std::string plan;
  std::vector<Violation> violations;

  bool complete = false;
  std::uint64_t received = 0;
  std::string grey_node;            // "primary" | "backup"
  std::string conviction_event;     // criterion that convicted it ("" = none)
  double conviction_latency_ms = -1;  // fault_injected -> conviction
  std::uint64_t false_convictions = 0;  // convictions recorded BY the grey host
  std::uint64_t takeovers = 0;
  std::uint64_t non_ft = 0;
  std::int64_t sim_ns = 0;

  /// FNV-1a fold of every field above: same seed => same digest.
  std::uint64_t digest = 0;

  bool ok() const { return violations.empty(); }
  std::string report() const;
};

GreyVerdict run_grey_seed(std::uint64_t seed, const GreyOptions& opts = {});

/// The node FaultPlan::Grey(seed) greys (parsed from the plan's first,
/// always-convictable fault).
Node grey_victim(const FaultPlan& plan);

// --- simultaneous double failures (1+N groups) -----------------------------

struct MultiFailureOptions {
  /// Bigger than the chaos default: MultiFailure crashes land as late as
  /// 1.5 s, and the double failure must hit a LIVE stream (~2 s at Fast
  /// Ethernet) for the schedule — and the negative control — to mean
  /// anything.
  std::uint64_t file_size = 25'000'000;
  sim::Duration run_cap = sim::Duration::seconds(90);
  /// Backups in the replication group. 2 (an N=3 group) is the tentpole
  /// claim: every MultiFailure schedule — two members crashing at the same
  /// instant — is masked. 1 is the classic pair, run as the negative
  /// control: the same schedules MUST fail whenever the leader is one of
  /// the victims (MultiFailureInvolvesLeader), proving the sweep measures
  /// redundancy rather than scheduler luck.
  int backups = 2;
  /// Passed to the InvariantChecker. Keep true even for the negative
  /// control — the resulting stream-exact violation IS the expected
  /// failure the control asserts on.
  bool expect_masked = true;
};

/// One double-failure trial: FaultPlan::MultiFailure(seed, backups) against
/// a 1+`backups` group, with conviction/promotion attribution pulled
/// from the trace so reports can say WHO died and WHO won the promotion race.
struct MultiFailureVerdict {
  std::uint64_t seed = 0;
  std::string plan;
  std::vector<Violation> violations;

  bool complete = false;
  std::uint64_t received = 0;
  int backups = 0;
  /// The schedule names the leader as one victim (65% of seeds). At
  /// backups == 1 these are total outages — the negative control's target.
  bool leader_involved = false;
  std::vector<std::string> convicted;  // member host names, conviction order
  std::string promotion_winner;        // "" = nobody promoted
  std::uint64_t takeovers = 0;
  std::uint64_t non_ft = 0;
  std::int64_t sim_ns = 0;

  /// FNV-1a fold of every field above: same seed => same digest.
  std::uint64_t digest = 0;

  bool ok() const { return violations.empty(); }
  std::string report() const;
};

MultiFailureVerdict run_multi_failure_seed(
    std::uint64_t seed, const MultiFailureOptions& opts = {});

}  // namespace sttcp::harness
