// Runtime invariant checking for chaos runs.
//
// An InvariantChecker wires itself into a Topology cell's observation points (the
// switch frame tap, per-host receive taps, the impairment corrupt taps) and
// watches the whole run, then renders a verdict. The invariants are the
// properties ST-TCP claims regardless of what the network does to it:
//
//   stream-exact     the byte stream the client observes is bit-identical to
//                    what the service wrote (complete, never corrupt, no
//                    connection failures) — when the plan is survivable;
//   no-client-rst    the client is never shown a RST that passes its own
//                    checksum verification;
//   checksum-drop    every wire-corrupted frame whose flip landed in the TCP
//                    segment is dropped by the receiving stack's checksum
//                    verification, and nothing else is: per host,
//                    stack.bad_checksum == frames we corrupted toward it.
//                    Fewer means a corrupted segment was ACCEPTED; more means
//                    an uncorrupted segment was rejected;
//   split-brain      at most one unsuppressed server talks to the client:
//                    once the backup transmits on the service connection, the
//                    primary must stay silent (beyond an in-flight grace);
//   bounded-memory   hold buffers and replica pending queues never exceed
//                    their configured caps, connection tables stay small —
//                    or, for a churn Workload, proportional to the
//                    configured concurrency with per-connection heap
//                    footprints inside the socket-buffer budget.
//
// The checker is pure observation: it never mutates traffic, draws no
// randomness, and adds no events, so a run behaves bit-identically with
// and without it.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness/fault.h"
#include "net/frame.h"
#include "net/host.h"
#include "net/link.h"
#include "net/switch.h"
#include "sim/time.h"
#include "sim/trace.h"
#include "sttcp/endpoint.h"
#include "tcp/stack.h"

namespace sttcp::app {
class DownloadClient;
}

namespace sttcp::harness {

class BlockWorkload;
class Topology;
class Workload;

struct Violation {
  std::string invariant;  // e.g. "split-brain"
  std::string detail;

  std::string str() const { return invariant + ": " + detail; }
};

class InvariantChecker {
 public:
  struct Options {
    /// Bytes the workload intends to transfer (stream-exact invariant).
    std::uint64_t expected_bytes = 0;
    /// Assert the transfer completed. True for every FaultPlan::Adversarial
    /// schedule (survivable by construction); set false when deliberately
    /// injecting unsurvivable plans to exercise the checker itself.
    bool expect_masked = true;
    /// Frames from the suppressed server may still be in flight (or queued on
    /// a busy link) when the survivor first transmits; within this window
    /// they are not split-brain.
    sim::Duration split_brain_grace = sim::Duration::millis(25);
    /// Which cell the invariants are stated over. In a sharded fabric each
    /// shard gets its own checker (cell k, watching only shard-k links and
    /// the first stack-bearing client in that shard) — the checkers then run
    /// safely on the shard's own executor thread.
    int cell = 0;
  };

  /// Installs taps on a Topology cell (the unit the invariants are stated
  /// over): the first stack-bearing plain host in the cell's shard is taken
  /// as the client, cell opt.cell as the watched pair. Must be constructed
  /// before traffic starts and outlive the run. Pre-creates the Impairment of
  /// every shard-local link except a "logger" host's, in creation order — for
  /// the Figure-2 LAN the classic client/primary/backup/gateway sequence — so
  /// the rng fork order is independent of which faults a plan happens to
  /// arm. Throws std::logic_error if the topology has no such cell or no
  /// stack-bearing host in its shard.
  InvariantChecker(Topology& topo, Options opt);

  /// Evaluate end-of-run invariants and return everything that failed (the
  /// streaming ones — RST, split-brain — are folded in). Empty = clean run.
  std::vector<Violation> check(const app::DownloadClient& client);

  /// Churn-workload variant: every flow a Workload generated must have
  /// drained byte-exact with no client-visible reset (when expect_masked),
  /// and memory must have stayed proportional to the live connection count
  /// instead of the single-download bound. Call after the workload reports
  /// drained() plus a quiet margin of at least 2 x MSL, so TIME_WAIT
  /// connections have left the tables.
  std::vector<Violation> check(const Workload& workload);

  /// Block-store variant: response-exactness instead of stream-exactness.
  /// Oracle mismatches (acknowledged writes lost, phantom reads) violate
  /// regardless of the plan; masked plans additionally demand zero resets,
  /// zero failed sessions, zero unpredicted statuses and a clean drain.
  std::vector<Violation> check(const BlockWorkload& workload);

  /// Grey-failure verdict, evaluated over the run's trace. The invariants a
  /// slow-not-dead fault adds on top of the streaming ones:
  ///
  ///   grey-conviction        the grey node was convicted by its peer within
  ///                          `budget` of the first fault injection;
  ///   grey-criterion         that conviction came from a progress-counter
  ///                          criterion ("progress_stall_detected" or
  ///                          "app_failure_detected"), never from heartbeat
  ///                          silence ("peer_dead") — the grey host was
  ///                          heartbeating the whole time;
  ///   grey-false-conviction  the grey host itself convicted nobody: slow is
  ///                          not a licence to shoot the healthy peer.
  ///
  /// Appends to `out` so it composes with check().
  void check_grey(const sim::TraceRecorder& trace, Node grey,
                  sim::Duration budget, std::vector<Violation>& out) const;

  // --- accounting (for reports / tests) ----------------------------------
  std::uint64_t corrupted_frames() const { return corrupt_events_; }
  std::uint64_t expected_checksum_drops() const;

 private:
  /// Everything the checker watches, resolved once at construction so the
  /// checking logic is independent of how the topology was built.
  struct Scope {
    net::Ipv4Addr client_ip;
    net::Ipv4Addr service_ip;
    net::Host* client = nullptr;
    net::Host* primary = nullptr;
    net::Host* backup = nullptr;  // == backups.front()
    tcp::TcpStack* client_stack = nullptr;
    tcp::TcpStack* primary_stack = nullptr;
    tcp::TcpStack* backup_stack = nullptr;  // == backup_stacks.front()
    sttcp::StTcpEndpoint* primary_ep = nullptr;  // null without ST-TCP
    sttcp::StTcpEndpoint* backup_ep = nullptr;   // == backup_eps.front()
    /// All the cell's backups; size > 1 switches the split-brain audit to
    /// the group-aware speaker protocol over every tapped member MAC.
    std::vector<net::Host*> backups;
    std::vector<tcp::TcpStack*> backup_stacks;
    std::vector<sttcp::StTcpEndpoint*> backup_eps;
    net::EthernetSwitch* sw = nullptr;
    std::vector<net::Link*> links;  // impairment pre-fork order
    std::size_t hold_cap = 0;
    tcp::TcpConfig tcp;
  };
  static Scope scope_from(Topology& topo, const Options& opt);

  void on_switch_frame(sim::SimTime at, const net::Frame& frame);
  void on_host_rx(int host_idx, const net::Frame& frame);
  void add_streamed(const std::string& invariant, const std::string& detail);

  /// 0 = primary, 1.. = backups, -1 = not a member MAC.
  int member_index(const net::MacAddr& mac) const;
  std::string member_name(int m) const;
  /// The watched hosts in rx-tap index order: client, primary, backups...
  std::vector<net::Host*> watched_hosts() const;
  std::vector<tcp::TcpStack*> watched_stacks() const;
  std::string watched_name(std::size_t i) const;

  // Shared between the two check() overloads.
  void collect_streamed(std::vector<Violation>& out) const;
  void check_checksums(std::vector<Violation>& out) const;
  void check_memory(std::vector<Violation>& out, std::size_t conn_table_cap) const;

  Scope scope_;
  Options opt_;
  net::EthernetSwitch::FrameTap prev_tap_;

  // Corrupted-frame identity: FNV-1a of the post-flip bytes -> flip offset.
  // Multicast fan-out delivers one corrupted buffer to several hosts; each
  // delivery is recognised by hash on the host rx tap.
  std::unordered_map<std::uint64_t, std::size_t> corrupted_;
  std::uint64_t corrupt_events_ = 0;

  // Per-host (client=0, primary=1, backups=2...) deliveries of corrupted
  // frames whose flip landed inside the TCP segment — each must become
  // exactly one stack bad_checksum increment.
  std::vector<std::uint64_t> expected_bad_checksum_;

  // Split-brain bookkeeping over service->client TCP frames.
  // Pair mode (one backup): the classic first-backup-transmission clock.
  sim::SimTime first_backup_tx_ = sim::SimTime::never();
  // Group mode (> 1 backup): speaker protocol over member MACs. The member
  // whose transmission most recently began speaks; every member it
  // superseded must fall silent within the grace (a superseded member
  // transmitting later is dual-active). Member 0 = primary, 1.. = backups.
  int current_speaker_ = -1;
  sim::SimTime speaker_since_ = sim::SimTime::never();
  std::unordered_map<int, sim::SimTime> superseded_at_;

  std::vector<Violation> streamed_;
  std::unordered_map<std::string, int> streamed_counts_;
};

}  // namespace sttcp::harness
