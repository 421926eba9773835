// StTcpEndpoint: the per-server ST-TCP engine (the paper's primary
// contribution).
//
// One endpoint runs on every member of the replication roster
// (StTcpConfig::group). A pair is a roster of two: one primary, one backup.
// Every other member is a peer in one per-peer table, so the pair and the
// 1+N group (docs/GROUPS.md) share the heartbeat, receive and detector
// paths. Each endpoint:
//  * exchanges heartbeats every hb_period on TWO channels — UDP over the IP
//    link and the RS-232 serial link (§3) — carrying the per-connection
//    progress counters, FIN/RST notices, connection announcements and
//    gateway-ping results;
//  * tracks per-channel liveness (hb_miss_threshold consecutive silent
//    periods kill a channel);
//  * detects and reacts to every single-failure row of Table 1:
//      1. HW/OS crash        — both channels dead             → takeover / non-FT
//      2. app hang (no FIN)  — AppMaxLagBytes / AppMaxLagTime → takeover / non-FT
//      3. app crash (FIN)    — FIN disagreement + MaxDelayFIN → takeover / non-FT
//      4. NIC/cable failure  — IP dead + serial alive, LastByteReceived
//                              comparison + gateway-ping arbitration
//      5. temporary loss     — backup recovers missed bytes from the
//                              primary's hold buffer over the control channel
//  * on the primary: feeds the hold buffer from the connection rx tap,
//    releases it as the backup confirms receipt, gates FIN/RST emission for
//    arbitration, and announces new connections (ISS/IRS) to the backup;
//  * on the backup: creates replica connections from announcements, keeps
//    them suppressed, and performs the takeover — STONITH the primary, leave
//    replica mode, stop suppressing (paper: wait for the next natural
//    retransmission; optionally retransmit immediately).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/host.h"
#include "net/serial_link.h"
#include "obs/metrics.h"
#include "sttcp/config.h"
#include "sttcp/group.h"
#include "sttcp/hold_buffer.h"
#include "sttcp/lag.h"
#include "sttcp/messages.h"
#include "tcp/stack.h"

namespace sttcp::sttcp {

class Reintegrator;

class StTcpEndpoint final : public tcp::TcpStack::ConnectionObserver {
 public:
  enum class Mode {
    kReplicating,       // normal operation, peer believed healthy
    kNonFaultTolerant,  // primary continuing alone (backup declared failed)
    kTakenOver,         // backup now owns the client connections
    kReintegrating,     // survivor: streaming its snapshot to a rejoiner
    kRejoining,         // freshly booted: asking the survivor for a snapshot
    kDead,              // this host crashed
  };

  struct Stats {
    std::uint64_t hb_sent = 0;
    std::uint64_t hb_received_ip = 0;
    std::uint64_t hb_received_serial = 0;
    std::uint64_t hb_malformed = 0;       // rejected by the codec (noise/garbage)
    std::uint64_t hb_stale = 0;           // reordered/duplicated old heartbeats
    std::uint64_t control_malformed = 0;  // control datagrams the codec rejected
    std::uint64_t announces_confirmed = 0;
    std::uint64_t replicas_created = 0;
    std::uint64_t missed_requests_sent = 0;
    std::uint64_t missed_requests_served = 0;
    std::uint64_t missed_bytes_injected = 0;
    std::uint64_t logger_requests_sent = 0;
    std::uint64_t logger_bytes_injected = 0;
    std::uint64_t decision_hb_sent = 0;  // event-style decision/ack beats
    std::uint64_t fin_delayed = 0;
    std::uint64_t fin_agreed = 0;
    std::uint64_t takeovers = 0;
    std::uint64_t promotions = 0;            // group mode: promotion wins
    std::uint64_t votes_granted = 0;         // group mode: PromoteAck grants sent
    std::uint64_t votes_denied = 0;          // group mode: PromoteAck denials sent
    std::uint64_t view_changes = 0;          // group mode: epochs adopted/announced
    std::uint64_t reintegrations = 0;        // survivor side: completed
    std::uint64_t rejoins = 0;               // rejoiner side: completed
    std::uint64_t snapshot_conns_sent = 0;
    std::uint64_t snapshot_conns_adopted = 0;
  };

  StTcpEndpoint(net::Host& host, tcp::TcpStack& stack, net::PowerController& power,
                net::SerialPort* serial, Role role, StTcpConfig config);
  ~StTcpEndpoint() override;
  StTcpEndpoint(const StTcpEndpoint&) = delete;
  StTcpEndpoint& operator=(const StTcpEndpoint&) = delete;

  /// Bind channels and begin heartbeating. Call once topology is wired.
  void start();

  Role role() const { return role_; }
  Mode mode() const { return mode_; }
  const StTcpConfig& config() const { return cfg_; }
  const Stats& stats() const { return stats_; }

  /// Channel liveness as currently believed (tests / benches).
  bool ip_channel_alive() const;
  bool serial_channel_alive() const;
  /// Replicated connections currently tracked.
  std::size_t replicated_connections() const { return conns_.size(); }
  /// High-water mark of any single connection's hold buffer, in bytes —
  /// the chaos invariants assert this never exceeds the configured capacity.
  std::size_t hold_peak_bytes() const { return hold_peak_bytes_; }
  /// Current total bytes across all hold buffers (maintained incrementally;
  /// the churn invariants audit it against the per-connection capacity sum).
  std::uint64_t hold_total_bytes() const { return hold_total_bytes_; }

  /// Watchdog extension: the application layer reports a suspicion that the
  /// LOCAL application has failed; relayed to the peer via the heartbeat.
  void report_local_app_suspect() { local_app_suspect_ = true; }

  // --- 1+N groups (docs/GROUPS.md) -------------------------------------------
  /// True when the roster has three or more members. A pair (two members)
  /// runs on the same peer table but keeps the paper's wire format: no view
  /// block in heartbeats, no control types 8-10.
  bool group_mode() const { return cfg_.group.size() > 2; }
  /// Current view (rank-ordered member list + epoch). A pair's view only
  /// tracks which member is watched; its leader is whoever holds the
  /// primary role.
  const GroupView& view() const { return view_; }
  /// This member's rank in its current view (0 = leader; -1 = fenced out).
  int promotion_rank() const {
    if (!group_mode()) return leads(my_member()) ? 0 : 1;
    return view_.rank_of(my_member());
  }
  bool is_group_leader() const { return group_mode() && leads(my_member()); }

  // --- reintegration (beyond the paper) --------------------------------------
  /// The application's checkpoint: serialized by the survivor into the
  /// rejoin snapshot, staged on the rejoiner before replica adoption. The
  /// endpoint is application-agnostic — these are opaque bytes.
  using CheckpointProvider = std::function<net::Bytes()>;
  using CheckpointRestorer = std::function<void(net::BytesView)>;
  void set_checkpoint_provider(CheckpointProvider fn) {
    checkpoint_provider_ = std::move(fn);
  }
  void set_checkpoint_restorer(CheckpointRestorer fn) {
    checkpoint_restorer_ = std::move(fn);
  }

  // --- logged-decision channel (decision.h, docs/APPLICATION.md) -------------
  /// Attach the application's decision log. The endpoint piggybacks its
  /// unacked records and cumulative ack on every heartbeat (the 0x40 header
  /// block), acks promptly when ingest advances, promotes the log at
  /// takeover, and flips it standalone whenever the pair loses its peer.
  /// Pair-scoped: a group (1+N) endpoint does not attach the log.
  void set_decision_log(DecisionLog* log);
  DecisionLog* decision_log() const { return decision_log_; }
  /// Event-style decision-only heartbeat (IP channel, no connection
  /// records): the application flushed a batch of choices, or our replay
  /// cursor advanced and the primary is waiting on the ack to release
  /// gated responses.
  void send_decision_heartbeat();

  // --- tcp::TcpStack::ConnectionObserver -------------------------------------
  void on_accepted(tcp::TcpConnection& conn) override;
  void on_finished(tcp::TcpConnection& conn, tcp::CloseReason reason) override;

 private:
  struct ReplConn {
    std::uint16_t id = 0;
    tcp::FourTuple tuple;
    tcp::TcpConnection* conn = nullptr;

    HoldBuffer hold;  // primary only
    bool announce_confirmed = false;

    // Peer state from heartbeat records (unwrapped to 64 bits). With more
    // than one peer these are the maximum across peers (unwrap_counter
    // ignores regressions) — what the backup-side detectors want.
    bool peer_valid = false;
    std::uint64_t p_received = 0;
    std::uint64_t p_acked = 0;
    std::uint64_t p_written = 0;
    std::uint64_t p_read = 0;
    bool p_fin = false;
    bool p_rst = false;
    bool p_closed = false;

    // Lag detectors (peer app read / write; LastByteReceived and
    // LastAckReceived for NIC arbitration — the ACK comparison covers
    // download-heavy workloads where the client sends no data, §4.3).
    LagTracker lag_read;
    LagTracker lag_written;
    LagTracker lag_received;
    LagTracker lag_acked;
    // Grey-failure criterion: absolute stagnation of the peer counter sum
    // under local demand (see lag.h). Disabled unless
    // cfg.progress_stall_time > 0.
    ProgressWatch progress;

    // FIN arbitration.
    bool fin_withheld = false;
    sim::OneShotTimer fin_delay_timer;
    sim::OneShotTimer peer_fin_timer;  // peer FINed, we did not

    // Missed-byte recovery (backup side: request state; primary side: when
    // we last served this connection — explains the backup's transient lag).
    sim::SimTime last_request_at;
    std::uint64_t last_request_offset = 0;
    sim::SimTime last_served_at;
    bool ever_served = false;

    // Local close bookkeeping: final counters survive connection GC.
    bool local_closed = false;
    sim::SimTime closed_at;
    std::uint64_t f_received = 0, f_acked = 0, f_written = 0, f_read = 0;
    bool f_fin = false, f_rst = false;

    sim::SimTime registered_at;

    // Per-peer progress mirror, indexed like peers_. Hold release, FIN
    // agreement, announces and the never-replicated grace are per peer on
    // the leader: a buffer is released only below the minimum confirmed
    // across the watched peers.
    struct PeerProgress {
      bool valid = false;   // a record matched: the member's replica exists
      bool echoed = false;  // matched by OUR id: stop announcing to this member
      std::uint64_t received = 0;
      bool fin = false, rst = false, closed = false;
      sim::SimTime since;  // when tracking (re)started; setup-grace baseline
    };
    std::vector<PeerProgress> gp;

    ReplConn(sim::EventLoop& loop, const StTcpConfig& cfg)
        : hold(cfg.hold_buffer_capacity),
          lag_read(cfg.app_max_lag_bytes, cfg.app_lag_bytes_grace,
                   cfg.app_max_lag_time),
          lag_written(cfg.app_max_lag_bytes, cfg.app_lag_bytes_grace,
                      cfg.app_max_lag_time),
          lag_received(cfg.nic_lag_bytes, cfg.app_lag_bytes_grace, cfg.nic_lag_time),
          lag_acked(cfg.nic_lag_bytes, cfg.app_lag_bytes_grace, cfg.nic_lag_time),
          progress(cfg.progress_stall_time),
          fin_delay_timer(loop),
          peer_fin_timer(loop) {}

    // Current counter values: live connection or final snapshot.
    std::uint64_t received() const { return conn ? conn->bytes_received() : f_received; }
    std::uint64_t acked() const { return conn ? conn->bytes_acked_by_peer() : f_acked; }
    std::uint64_t written() const { return conn ? conn->app_bytes_written() : f_written; }
    std::uint64_t read() const { return conn ? conn->app_bytes_read() : f_read; }
    bool fin() const { return conn ? conn->fin_generated() : f_fin; }
    bool rst() const { return conn ? conn->rst_generated() : f_rst; }
  };

  // --- per-peer table --------------------------------------------------------
  /// Liveness/arbitration state for one OTHER roster member. A pair has
  /// exactly one.
  struct Peer {
    std::uint8_t member = 0;
    net::Ipv4Addr ip;
    std::string name;
    bool has_serial = false;  // shares the RS-232 cable with us (members 0/1)
    sim::SimTime last_rx_ip;
    sim::SimTime last_rx_serial;
    // Bounded-reorder guard over the peer's heartbeat sequence (see
    // on_heartbeat). A large backward jump is a rebooted peer, not staleness.
    std::uint32_t last_hb_seq = 0;
    bool seen_hb = false;
    bool app_suspect = false;
    int ping_fail_streak = 0;
    // Rotating-window cursors (serial record cap and UDP byte budget — the
    // IPv4 64 KB datagram limit). Cursors hold the next connection id to
    // send, not a vector position: ids survive the churn of connections
    // opening and closing between beats, so no record can be starved by
    // recomposition. Each peer's window advances only with copies sent to
    // IT, so a record cannot be starved on one channel by traffic to another.
    std::uint16_t serial_rr_next_id = 0;
    std::uint16_t udp_rr_next_id = 0;
  };

  // Heartbeat path. Periodic beats go out on BOTH channels; event-triggered
  // beats (connection announce, FIN notice) go out on the IP channel only —
  // a full heartbeat costs milliseconds of serial wire time, and a burst of
  // events (e.g. 100 connections arriving) must not back the serial link up.
  // Event beats carry ONLY the affected connection's record: a full record
  // scan per accept/FIN is O(n) serialization per event, which at thousands
  // of churning connections turns every accept into a 40 KB datagram.
  // The serial copy of the periodic beat can additionally be capped to
  // cfg_.serial_max_records records, rotated round-robin across periods
  // (the 115.2 kbps line cannot carry thousands of records per period).
  /// One copy per peer, each with that peer's view of the announces and
  /// its own rotation cursors.
  void send_heartbeat(bool include_serial = true);
  void send_event_heartbeat(std::uint16_t id);
  HeartbeatMsg make_hb_header();
  /// The announce decision is per peer: `pi` keeps seeing the announce until
  /// it has echoed the id (rc.gp[pi].echoed).
  HbRecord make_record(std::uint16_t id, const ReplConn& rc, std::size_t pi) const;
  void on_hb_datagram(net::BytesView payload, bool via_serial);
  void on_heartbeat(const HeartbeatMsg& msg, bool via_serial);
  /// `pi`: the peers_ index the record arrived from.
  void process_record(const HbRecord& rec, std::size_t pi);
  void detector_tick();
  /// Emit the (possibly budget-rotated) UDP copy to `p` and, when `serial`
  /// is non-null, the capped serial copy. The rotation cursors are the
  /// peer's own, so no peer's window is advanced by a copy sent to another.
  void emit_heartbeat(const HeartbeatMsg& msg, std::size_t total_bytes, Peer& p,
                      net::SerialPort* serial);

  // Registration. Replica ids wrap within their range (primary [1, 0x8000),
  // inferred [0x8000, 0xffff]) and skip ids still tracked — a long churn run
  // cycles the 15-bit space many times over.
  std::uint16_t alloc_primary_id();
  std::uint16_t alloc_inferred_id();
  void register_primary_conn(tcp::TcpConnection& conn);
  /// Install the primary-side per-connection seams (rx tap feeding the hold
  /// buffer, close gate for FIN arbitration); used at registration and again
  /// when a reintegrating survivor re-arms a former backup's connections.
  void install_primary_seams(tcp::TcpConnection& conn, std::uint16_t id);
  void create_replica_from(const HbRecord& rec);
  /// `established` false = seeded from the tapped SYN via the deterministic
  /// accept-ISN function; the replica finishes the handshake passively.
  void create_replica_inferred(const tcp::FourTuple& tuple, tcp::SeqWire iss,
                               tcp::SeqWire irs, bool established);
  /// Keyed accept-side ISN for the service (cfg.deterministic_isn).
  tcp::SeqWire service_isn(const tcp::FourTuple& t) const;

  // FIN arbitration.
  bool close_gate(std::uint16_t id, bool is_rst);
  void on_peer_fin_notice(ReplConn& rc);

  // NIC arbitration.
  void update_ping_loop();

  // Recovery.
  void maybe_request_missed(ReplConn& rc);
  void on_control_datagram(net::Ipv4Addr src, net::BytesView payload);
  void serve_missed(const MissedBytesRequest& req, net::Ipv4Addr requester);
  // Logger fallback (§4.3 output-commit extension): after a takeover, fetch
  // client bytes the dead primary had acknowledged from the stream logger.
  void logger_recovery_tick();
  void apply_missed(const MissedBytesReply& rep);

  // Failure reactions.
  void takeover(const std::string& reason);
  void go_non_ft(const std::string& reason);

  // --- per-peer helpers -----------------------------------------------------
  std::uint8_t my_member() const { return my_member_; }
  /// Who leads: in a group, the front of the view; in a pair, whichever
  /// member holds the primary role (the pair swaps roles at reintegration
  /// without a view change, and a backup keeps its role across a takeover).
  bool leads(std::uint8_t m) const {
    if (group_mode()) return view_.is_leader(m);
    return (m == my_member()) == (role_ == Role::kPrimary);
  }
  Peer* peer_by_member(std::uint8_t m);
  int peer_index_by_ip(net::Ipv4Addr ip) const;
  bool peer_ip_alive(const Peer& p) const;
  bool peer_serial_alive(const Peer& p) const;
  /// Fresh liveness and arbitration state: the peer's heartbeats start the
  /// clock over (boot, rejoin, readmission).
  void reset_peer(Peer& p);
  /// Lazily size rc.gp to peers_. New entries take the connection's
  /// registration time as their setup-grace baseline.
  void ensure_peer_progress(ReplConn& rc);
  /// Peer `p`'s mirror of `rc` (sized on demand).
  ReplConn::PeerProgress& progress_of(ReplConn& rc, const Peer& p);
  /// Restart peer `pi`'s mirror of `rc`: its setup grace starts now.
  void restart_peer_progress(ReplConn& rc, std::size_t pi);
  /// Adopt a strictly newer view (from a heartbeat or a ViewAnnounce). A
  /// view that excludes this member is a fence: re-enter via rejoin.
  void maybe_adopt_view(std::uint32_t epoch, const std::vector<std::uint8_t>& order);
  /// Convict one watched peer: stamp the conviction (timeline, counters,
  /// trace), queue its STONITH, and react — a pair takes over or goes
  /// non-fault-tolerant; a group removes the member from the view and
  /// either (leader) fences + announces or (backup) starts ranked promotion.
  void convict(Peer& p, const std::string& reason, const char* trace_event);
  /// Conviction wording: a pair's reasons name no member (it has one peer,
  /// and its trace dumps are pinned), a group's name the member.
  std::string worded(std::string pair, std::string group) const {
    return group_mode() ? std::move(group) : std::move(pair);
  }
  /// Ranked promotion: called after any view change while leaderless.
  void evaluate_promotion();
  void on_defer_expired();
  void become_candidate();
  void try_win_promotion();
  void win_promotion();
  void on_promote_request(net::Ipv4Addr src, const PromoteRequest& pr);
  void on_promote_ack(const PromoteAck& ack);
  /// Broadcast the current view to every configured member (control channel;
  /// the next heartbeats carry it too).
  void announce_view();
  /// STONITH every member convicted since the last flush — always BEFORE
  /// unsuppressing any replica (the dual-active guard).
  void flush_stonith_pending();
  /// Reintegration commit on a group leader (the rejoiner is already back in
  /// the view): bump the epoch, restart its mirrors and announce.
  void group_commit_rejoin(std::uint8_t member);
  /// FIN/close agreement across every watched peer's mirror of `rc`
  /// (vacuously true with none).
  bool fins_agree(const ReplConn& rc) const;
  void update_group_gauges();
  /// The leader's address; zero when we lead or nobody does.
  net::Ipv4Addr leader_ip() const;

  ReplConn* by_id(std::uint16_t id);
  ReplConn* by_tuple(const tcp::FourTuple& t);
  void gc_closed_conns();
  bool active() const { return mode_ == Mode::kReplicating && host_.alive(); }
  /// Replication plumbing (taps, records, heartbeats) also runs while a
  /// reintegration is in flight on either side.
  bool replicating_or_reintegrating() const {
    return mode_ == Mode::kReplicating || mode_ == Mode::kReintegrating ||
           mode_ == Mode::kRejoining;
  }
  /// Install the backup-side stack seams (replica mode + ISN inference);
  /// used at start() and again when this node reboots into a rejoin.
  void install_replica_seams();

  /// Map the current mode onto the decision log's commit discipline:
  /// replicating = peer-acked commit; reintegrating = standalone commit but
  /// retain for the rejoiner; taken-over / non-FT = standalone, drop.
  /// Called after every mode transition site (takeover, go_non_ft, the
  /// reintegrator's handshakes) — idempotent.
  void sync_decision_log();
  void process_decisions(const HeartbeatMsg& msg);

  net::Host& host_;
  tcp::TcpStack& stack_;
  net::PowerController& power_;
  net::SerialPort* serial_;
  Role role_;
  StTcpConfig cfg_;
  sim::Logger log_;
  sim::World& world_;

  Mode mode_ = Mode::kReplicating;
  sim::PeriodicTimer hb_timer_;
  std::uint32_t hb_seq_ = 0;
  bool started_ = false;
  /// This endpoint's index in cfg_.group (the entry whose ip is my_ip).
  std::uint8_t my_member_ = 0;

  std::size_t hold_peak_bytes_ = 0;
  // Running total across all hold buffers; adjusted at every mutation site
  // (rx tap, release, clear, GC) so the gauge update is O(1) per event, not
  // an O(n) rescan per heartbeat record (O(n²) per heartbeat at scale).
  std::uint64_t hold_total_bytes_ = 0;
  void note_hold_change(std::size_t before, std::size_t after);
  void recompute_hold_total();

  std::vector<Peer> peers_;  // every OTHER roster member
  // A member outside the view is not watched: convicted (group), or being
  // reintegrated (until its commit).
  GroupView view_;
  // Group promotion state (idle in a pair).
  PromotionBallot ballot_;
  sim::OneShotTimer promote_timer_;
  /// Convicted members awaiting STONITH (flushed before any unsuppress).
  std::vector<std::uint8_t> stonith_pending_;
  /// True between convicting the leader and learning (or becoming) the next
  /// one; gates the candidacy / defer state machine.
  bool awaiting_leader_ = false;
  /// One-grant-per-epoch ledger (voter side).
  bool have_granted_ = false;
  std::uint32_t granted_epoch_ = 0;
  std::uint8_t granted_candidate_ = 0;

  // Gateway-ping arbitration.
  sim::OneShotTimer ping_timer_;
  // Logger fallback.
  sim::OneShotTimer logger_timer_;
  int logger_attempts_ = 0;
  bool ping_loop_active_ = false;
  bool my_ping_valid_ = false;
  bool my_ping_ok_ = false;
  bool local_app_suspect_ = false;

  std::map<std::uint16_t, std::unique_ptr<ReplConn>> conns_;
  std::map<tcp::FourTuple, std::uint16_t> id_by_tuple_;
  std::uint16_t next_id_ = 1;
  /// Inferred (un-announced) replicas use a disjoint id range; they are
  /// remapped to the primary's id when its announce arrives.
  std::uint16_t next_inferred_id_ = 0x8000;

  // Observability (bound in start() when World::metrics() is set; null = off).
  void update_hold_gauge();
  obs::Histogram* m_hb_gap_ip_us_ = nullptr;
  obs::Histogram* m_hb_gap_serial_us_ = nullptr;
  obs::Gauge* m_hold_bytes_ = nullptr;
  obs::Counter* m_recovery_bytes_ = nullptr;
  /// Worst current byte lag across this node's app-lag trackers — the grey
  /// detection-latency signal, exported so bench output can graph how far a
  /// sick peer fell behind before conviction.
  obs::Gauge* m_app_lag_bytes_ = nullptr;
  /// Group mode: this member's current promotion rank and view epoch.
  obs::Gauge* m_rank_ = nullptr;
  obs::Gauge* m_epoch_ = nullptr;
  obs::FailoverTimeline* timeline_ = nullptr;
  /// Worst lag_bytes observed since start (survives tracker resets; stamped
  /// into the timeline's conviction record).
  std::uint64_t app_lag_peak_bytes_ = 0;

  // Reintegration engine (reintegration.cc); owns the rejoin protocol state
  // on both sides and reaches into this endpoint as a friend.
  friend class Reintegrator;
  std::unique_ptr<Reintegrator> reintegrator_;
  CheckpointProvider checkpoint_provider_;
  CheckpointRestorer checkpoint_restorer_;
  DecisionLog* decision_log_ = nullptr;

  Stats stats_;
};

}  // namespace sttcp::sttcp
