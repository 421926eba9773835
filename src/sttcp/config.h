// ST-TCP configuration: every tunable the paper names (heartbeat period,
// AppMaxLagBytes, AppMaxLagTime, MaxDelayFIN, hold-buffer size, ping
// arbitration) plus the addressing of the replication roster.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/addr.h"
#include "sim/time.h"

namespace sttcp::sttcp {

/// One member of the replication roster, in initial-rank order (index 0 is
/// the leader, index 1 the first backup, ...). See docs/GROUPS.md.
struct GroupMemberCfg {
  std::string name;     // STONITH power-off target
  net::Ipv4Addr ip;     // management address (HB/control traffic)
  /// Member reachable over the RS-232 channel (only the classic pair —
  /// members 0 and 1 — share the serial cable; the rest are IP-only).
  bool serial = false;
};

struct StTcpConfig {
  // --- identity ------------------------------------------------------------
  /// The virtual service address clients connect to (an IP alias on both
  /// servers, ARP-mapped to the multicast Ethernet address).
  net::Ipv4Addr service_ip;
  std::uint16_t service_port = 80;
  /// This server's own (management) address, used for HB/control traffic.
  /// The endpoint finds its own roster entry by this address.
  net::Ipv4Addr my_ip;
  /// Gateway pinged during NIC-failure arbitration (§4.3).
  net::Ipv4Addr gateway_ip;
  /// The replication roster, ordered by initial promotion rank (index 0 =
  /// leader), identical on every member. Two entries are the classic pair
  /// (primary, backup: the paper's protocol, wire format unchanged); three
  /// or more are a 1+N group (docs/GROUPS.md). Every other entry is a peer:
  /// its address carries HB/control traffic, its name is the STONITH
  /// power-off target.
  std::vector<GroupMemberCfg> group;
  /// Optional stream logger (§4.3 output-commit extension): the backup
  /// fetches client bytes the dead primary had already acknowledged from
  /// here after a takeover. Zero address disables the fallback.
  net::Ipv4Addr logger_ip;
  std::uint16_t logger_port = 7003;

  // --- heartbeat -------------------------------------------------------------
  std::uint16_t hb_port = 7001;
  std::uint16_t control_port = 7002;
  /// Heartbeat period (paper demos use 200 ms / 500 ms / 1 s).
  sim::Duration hb_period = sim::Duration::millis(200);
  /// Consecutive missed heartbeats before a channel is declared dead.
  int hb_miss_threshold = 3;
  /// Cap on per-connection records in the SERIAL copy of the periodic
  /// heartbeat; the excess rotates round-robin across periods. At 115.2 kbps
  /// a full record list for thousands of connections would take longer than
  /// the period to transmit, silently killing the serial channel. 0 = no cap
  /// (every record on every beat, the paper's ~100-connection regime). The
  /// IP copy always carries every record.
  std::size_t serial_max_records = 0;
  /// Derive the service's accept-side ISN from a keyed function of the
  /// 4-tuple (RFC 6528 shape) instead of a random draw. Primary and backup
  /// share the function, so the backup builds a replica from the tapped
  /// client SYN alone — closing the window where a primary under load
  /// accepts a connection and dies with both the announce heartbeat and the
  /// SYN-ACK still queued behind a data backlog (neither ever reaches the
  /// wire, and without this the client's retransmitted request draws an RST
  /// after takeover). Off = announce + handshake-ACK inference only, the
  /// paper's original mechanism.
  bool deterministic_isn = true;

  // --- application-failure detection (§4.2.1) ----------------------------------
  /// AppMaxLagBytes: peer app read/write position lagging by this many bytes…
  std::uint64_t app_max_lag_bytes = 64 * 1024;
  /// …sustained for this long ("a short duration of time") fails the peer.
  sim::Duration app_lag_bytes_grace = sim::Duration::millis(500);
  /// AppMaxLagTime: a byte processed locally but not by the peer for this
  /// long fails the peer.
  sim::Duration app_max_lag_time = sim::Duration::seconds(2);
  /// Grey-failure criterion (beyond the paper's §4.2.1 pair): the backup
  /// convicts the primary when a connection's peer counter sum stays frozen
  /// this long while heartbeats keep arriving and the backup holds
  /// unacknowledged bytes for the client. Catches CPU stalls that freeze
  /// BOTH sides' counters at the same value — invisible to the relative
  /// lag trackers above. Zero (default) disables the criterion, keeping
  /// classic deployments bit-identical; the grey chaos harness arms it.
  sim::Duration progress_stall_time = sim::Duration::zero();

  // --- FIN arbitration (§4.2.2) --------------------------------------------------
  /// How long a disagreed FIN/RST is withheld before being trusted as a
  /// normal close (paper suggests ~1 minute).
  sim::Duration max_delay_fin = sim::Duration::seconds(60);

  // --- NIC-failure arbitration (§4.3) -----------------------------------------
  sim::Duration ping_interval = sim::Duration::millis(300);
  sim::Duration ping_timeout = sim::Duration::millis(250);
  /// Consecutive peer ping failures (with local pings succeeding) that
  /// convict the peer's NIC.
  int ping_fail_threshold = 3;

  // --- missed-byte recovery (§4.3 temporary failures) -----------------------------
  /// Extra receive buffer on the primary holding client bytes until the
  /// backup confirms them (§2). Overflow ⇒ backup considered failed.
  /// Sizing law (see bench_ablation_design): confirmations arrive once per
  /// heartbeat, so steady-state occupancy under sustained client upload is
  /// ~bandwidth x hb_period (2.5 MB at 100 Mbps / 200 ms) plus recovery
  /// backlog; size well above that.
  std::size_t hold_buffer_capacity = 8 * 1024 * 1024;
  /// Payload bytes per MissedBytesReply datagram (fits a 1500-byte MTU).
  std::size_t recovery_chunk = 1200;

  // --- takeover --------------------------------------------------------------
  /// Paper behaviour: after takeover, wait for the next natural client/backup
  /// retransmission. Enabling this retransmits immediately instead (our
  /// extension; quantified by the ablation bench).
  bool immediate_retransmit_on_takeover = false;

  // --- group promotion (1+N, beyond the paper; docs/GROUPS.md) ---------------
  /// How long a higher-ranked backup waits for the lowest-ranked live
  /// candidate's ViewAnnounce after convicting the leader before convicting
  /// the silent candidate too and re-evaluating. Two heartbeat periods keeps
  /// the race window tight without tripping on ordinary jitter.
  sim::Duration promote_defer = sim::Duration::millis(400);
  /// Re-send cadence for unanswered PromoteRequest votes.
  sim::Duration promote_retry = sim::Duration::millis(100);

  // --- reintegration (beyond the paper) ----------------------------------------
  /// Survivor: how long to wait for the rejoiner's "ready" before re-sending
  /// the snapshot (snapshot datagrams are unreliable UDP).
  sim::Duration reintegration_retry = sim::Duration::millis(400);
  /// Survivor: snapshot attempts before abandoning the reintegration and
  /// falling back to unprotected single-server operation.
  int reintegration_max_attempts = 25;
};

}  // namespace sttcp::sttcp
