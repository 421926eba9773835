#include "sttcp/endpoint.h"

#include <algorithm>

#include "sttcp/logger.h"
#include "sttcp/reintegration.h"

namespace sttcp::sttcp {

StTcpEndpoint::StTcpEndpoint(net::Host& host, tcp::TcpStack& stack,
                             net::PowerController& power, net::SerialPort* serial,
                             Role role, StTcpConfig config)
    : host_(host),
      stack_(stack),
      power_(power),
      serial_(serial),
      role_(role),
      cfg_(std::move(config)),
      log_(host.logger().child("sttcp")),
      world_(host.world()),
      hb_timer_(host.world().loop()),
      promote_timer_(host.world().loop()),
      ping_timer_(host.world().loop()),
      logger_timer_(host.world().loop()) {
  for (std::size_t i = 0; i < cfg_.group.size(); ++i) {
    if (cfg_.group[i].ip == cfg_.my_ip) my_member_ = static_cast<std::uint8_t>(i);
  }
  reintegrator_ = std::make_unique<Reintegrator>(*this);
}

StTcpEndpoint::~StTcpEndpoint() = default;

void StTcpEndpoint::start() {
  started_ = true;

  if (auto* reg = world_.metrics()) {
    const std::string prefix = "sttcp." + host_.name();
    m_hb_gap_ip_us_ = &reg->histogram(prefix + ".hb_interarrival_us.ip");
    m_hb_gap_serial_us_ = &reg->histogram(prefix + ".hb_interarrival_us.serial");
    m_hold_bytes_ = &reg->gauge(prefix + ".hold_buffer_bytes");
    m_recovery_bytes_ = &reg->counter(prefix + ".recovery_bytes");
    m_app_lag_bytes_ = &reg->gauge(prefix + ".app_lag_bytes");
    if (group_mode()) {
      m_rank_ = &reg->gauge(prefix + ".rank");
      m_epoch_ = &reg->gauge(prefix + ".view_epoch");
    }
    timeline_ = &reg->timeline();
  }

  // Initial view: every roster member, in roster (rank) order; every other
  // member is a peer.
  view_.epoch = 0;
  view_.order.clear();
  peers_.clear();
  for (std::size_t i = 0; i < cfg_.group.size(); ++i) {
    view_.order.push_back(static_cast<std::uint8_t>(i));
    if (i == my_member_) continue;
    Peer p;
    p.member = static_cast<std::uint8_t>(i);
    p.ip = cfg_.group[i].ip;
    p.name = cfg_.group[i].name;
    p.has_serial = cfg_.group[i].serial && cfg_.group[my_member_].serial;
    peers_.push_back(p);
    reset_peer(peers_.back());
  }
  update_group_gauges();

  stack_.set_observer(this);
  if (cfg_.deterministic_isn) {
    // Both roles install the same keyed ISN function: the primary uses it to
    // pick the ISS in its SYN-ACK, the backup to reconstruct that ISS from a
    // tapped SYN, and a promoted backup keeps using it for fresh accepts.
    stack_.set_accept_isn_fn([this](const tcp::FourTuple& t) {
      if (t.local.ip == cfg_.service_ip && t.local.port == cfg_.service_port) {
        return service_isn(t);
      }
      return stack_.choose_isn();  // non-service listeners: random as before
    });
  }
  if (role_ == Role::kBackup) install_replica_seams();

  host_.udp_bind(cfg_.hb_port, [this](net::Ipv4Addr, std::uint16_t,
                                      net::BytesView payload) {
    on_hb_datagram(payload, /*via_serial=*/false);
  });
  host_.udp_bind(cfg_.control_port,
                 [this](net::Ipv4Addr src, std::uint16_t, net::BytesView payload) {
                   on_control_datagram(src, payload);
                 });
  if (serial_ != nullptr) {
    serial_->set_handler([this](net::Bytes msg) {
      on_hb_datagram(msg, /*via_serial=*/true);
    });
  }
  host_.add_crash_hook([this] {
    mode_ = Mode::kDead;
    hb_timer_.stop();
    ping_timer_.cancel();
    promote_timer_.cancel();
  });
  // Reintegration: a powered-on host re-enters the pair as a rejoining
  // backup. Runs after the stack's own boot hook (registered in the stack
  // ctor, before this endpoint existed), so the stack is already blank.
  host_.add_boot_hook([this] {
    if (started_) reintegrator_->enter_rejoin();
  });

  hb_timer_.start(cfg_.hb_period, [this] {
    send_heartbeat();
    detector_tick();
  });
  log_.info("ST-TCP ", to_string(role_), " started (hb=", cfg_.hb_period.str(), ")");
}

void StTcpEndpoint::install_replica_seams() {
  stack_.set_replica_mode(true);
  stack_.set_replica_inference([this](const tcp::FourTuple& t, tcp::SeqWire iss,
                                      tcp::SeqWire irs, bool established) {
    create_replica_inferred(t, iss, irs, established);
  });
}

bool StTcpEndpoint::ip_channel_alive() const {
  return std::any_of(peers_.begin(), peers_.end(),
                     [this](const Peer& p) { return peer_ip_alive(p); });
}

bool StTcpEndpoint::serial_channel_alive() const {
  return std::any_of(peers_.begin(), peers_.end(),
                     [this](const Peer& p) { return peer_serial_alive(p); });
}

// ---------------------------------------------------------------------------
// Heartbeat
// ---------------------------------------------------------------------------

namespace {
// Decision records per beat: a burst of choices cannot blow up one beat;
// periodic beats retransmit the remainder oldest-first until acked.
constexpr std::size_t kMaxDecisionsPerBeat = 512;
// Record bytes one UDP beat carries at most (see emit_heartbeat).
constexpr std::size_t kUdpRecordBudget = 60'000;
}  // namespace

HbHeader StTcpEndpoint::next_hb_header() {
  HbHeader h;
  h.role = role_;
  h.hb_seq = hb_seq_++;
  h.ping_valid = my_ping_valid_;
  h.ping_ok = my_ping_ok_;
  h.app_suspect = local_app_suspect_;
  h.rejoin_request = reintegrator_->rejoin_request_flag();
  h.rejoin_ready = reintegrator_->rejoin_ready_flag();
  h.rejoin_epoch = reintegrator_->epoch();
  if (group_mode()) {
    h.group_valid = true;
    h.member = my_member();
    h.view_epoch = view_.epoch;
    h.view_order = view_.order;
  }
  // Logged-decision block (pairs only — see set_decision_log;
  // docs/APPLICATION.md): cumulative ack of the peer's decision stream; the
  // beat then carries our own unacked records, kMaxDecisionsPerBeat at most.
  if (decision_log_ != nullptr && replicating_or_reintegrating()) {
    h.decisions_valid = true;
    h.decision_ack = decision_log_->rx_cursor();
  }
  return h;
}

bool StTcpEndpoint::announces(std::uint16_t id, const ReplConn& rc,
                              std::size_t pi) const {
  if (rc.conn == nullptr) return false;
  // Announces are per peer: each peer keeps seeing the announce until IT
  // has echoed the id (or a reintegration snapshot carried the connection).
  if (role_ == Role::kPrimary) return !rc.gp[pi].echoed;
  // A replica still under an inferred id: the primary cannot match the
  // record by id, so carry the tuple (announce extension) and let it match
  // by connection identity. Under load the primary's own announce can sit
  // behind seconds of queued client data on its uplink — this leg rides
  // the backup's idle uplink, so "peer never replicated" stays quiet.
  return id >= 0x8000;
}

HbRecord StTcpEndpoint::make_record(std::uint16_t id, const ReplConn& rc,
                                    std::size_t pi) const {
  HbRecord rec;
  rec.repl_id = id;
  rec.fin_generated = rc.fin();
  rec.rst_generated = rc.rst();
  rec.closed = rc.local_closed;
  rec.bytes_received = rc.received();
  rec.acked_by_peer = rc.acked();
  rec.app_written = rc.written();
  rec.app_read = rc.read();
  if (announces(id, rc, pi)) {
    rec.announce = true;
    rec.established =
        role_ == Role::kPrimary || rc.conn->state() != tcp::TcpState::kSynRcvd;
    rec.client_ip = rc.tuple.remote.ip;
    rec.client_port = rc.tuple.remote.port;
    rec.local_port = rc.tuple.local.port;
    rec.iss = rc.conn->iss();
    rec.irs = rc.conn->irs();
  }
  return rec;
}

void StTcpEndpoint::send_heartbeat(bool include_serial) {
  if (!host_.alive() || mode_ == Mode::kDead) return;
  if (mode_ == Mode::kTakenOver || mode_ == Mode::kNonFaultTolerant) return;
  // One copy per peer, each with ITS view of the announces and ITS rotation
  // cursors: a record's window position for peer A must not advance because
  // a copy went to peer B (a shared cursor would starve every record at
  // fan-out > 1 under budget pressure).
  for (std::size_t pi = 0; pi < peers_.size(); ++pi) {
    emit_heartbeat(pi, Beat::kPeriodic, 0,
                   include_serial && peers_[pi].has_serial ? serial_ : nullptr);
  }
  ++stats_.hb_sent;
}

void StTcpEndpoint::send_event_heartbeat(std::uint16_t id) {
  if (!host_.alive() || mode_ == Mode::kDead) return;
  if (mode_ == Mode::kTakenOver || mode_ == Mode::kNonFaultTolerant) return;
  for (std::size_t pi = 0; pi < peers_.size(); ++pi) {
    emit_heartbeat(pi, Beat::kEvent, id, nullptr);
  }
  ++stats_.hb_sent;
}

void StTcpEndpoint::emit_heartbeat(std::size_t pi, Beat beat, std::uint16_t id,
                                   net::SerialPort* serial) {
  Peer& p = peers_[pi];
  const HbHeader h = next_hb_header();
  const DecisionLog::Window decisions =
      h.decisions_valid ? decision_log_->unacked(kMaxDecisionsPerBeat)
                        : DecisionLog::Window();

  // A beat's records: `count` entries of conns_ from `first` on, wrapping
  // past the end, `bytes` wire bytes in all. conns_ is id-ordered, so the
  // rotation cursors below are connection ids, not positions: an id
  // survives the churn of inserts/erases between beats, where a positional
  // cursor drifts and can starve a record indefinitely — exactly long
  // enough for the peer's replica-setup grace timer to convict.
  using ConnIt = decltype(conns_)::const_iterator;
  struct Records {
    ConnIt first;
    std::size_t count = 0;
    std::size_t bytes = 0;
  };
  const auto next = [this](ConnIt it) {
    return ++it == conns_.end() ? conns_.begin() : it;
  };
  const auto from_id = [this](std::uint16_t next_id) {
    const ConnIt it = conns_.lower_bound(next_id);
    return it == conns_.end() ? conns_.begin() : it;
  };
  const auto size_of = [&](ConnIt it) {
    return announces(it->first, *it->second, pi) ? HbRecord::kAnnounceWireSize
                                                 : HbRecord::kWireSize;
  };
  const auto write = [&](std::span<std::uint8_t> out, const Records& recs) {
    HbWriter w(out, h, decisions.size());
    for (const DecisionRecord& d : decisions) w.decision(d);
    w.records(recs.count);
    ConnIt it = recs.first;
    for (std::size_t k = 0; k < recs.count; ++k, it = next(it)) {
      w.record(make_record(it->first, *it->second, pi));
    }
    w.finish();
  };

  Records all{conns_.begin(), 0, 0};
  Records udp = all;
  switch (beat) {
    case Beat::kDecision:
      break;
    case Beat::kEvent:
      if (const ConnIt it = conns_.find(id); it != conns_.end()) {
        udp = Records{it, 1, size_of(it)};
      }
      break;
    case Beat::kPeriodic: {
      all.count = conns_.size();
      for (ConnIt it = conns_.begin(); it != conns_.end(); ++it) all.bytes += size_of(it);
      // An IPv4 datagram caps at 65,535 bytes; with every record carrying
      // an announce (35 B) that is ~1,870 connections. Past it the 16-bit
      // total_length would wrap and the peer drop the frame — the IP
      // heartbeat channel would go dead exactly when the pair is busiest,
      // and the peer falsely convict ("never replicated"). The UDP copy
      // therefore carries a rotating window of records that fits next to
      // the beat's other bytes (header, view, up to 512 decisions), so every
      // record still crosses within ceil(total/window) periods. Urgent
      // records never wait for the window: announces and FIN/RST notices
      // also travel as single-record event heartbeats the moment they
      // happen.
      const std::size_t window = std::min(
          kUdpRecordBudget, net::kMaxUdpPayload - h.wire_size(decisions.size(), 0));
      if (all.bytes <= window) {
        udp = all;
        break;
      }
      udp.first = from_id(p.udp_rr_next_id);
      ConnIt it = udp.first;
      for (std::size_t k = 0; k < all.count; ++k, it = next(it)) {
        const std::size_t size = size_of(it);
        if (udp.bytes + size > window) {
          p.udp_rr_next_id = it->first;
          break;
        }
        udp.bytes += size;
        ++udp.count;
      }
      break;
    }
  }

  net::Frame frame = net::Frame::allocate(net::kUdpFrameHeaderSize +
                                          h.wire_size(decisions.size(), udp.bytes));
  const std::span<std::uint8_t> payload =
      frame.writable().subspan(net::kUdpFrameHeaderSize);
  write(payload, udp);

  net::Bytes serial_msg;
  if (serial != nullptr) {
    const std::size_t cap = cfg_.serial_max_records;
    if (cap == 0 || all.count <= cap) {
      if (udp.count == all.count) {
        // The UDP copy carries every record: the bytes are the same.
        serial_msg.assign(payload.begin(), payload.end());
      } else {
        serial_msg.resize(h.wire_size(decisions.size(), all.bytes));
        write(serial_msg, all);
      }
    } else {
      // Serial copy carries a rotating window of `cap` records (same header
      // and hb_seq), so every connection's counters ride the line within
      // ceil(n/cap) periods while the channel-liveness beat stays on time.
      Records window{from_id(p.serial_rr_next_id), cap, 0};
      ConnIt it = window.first;
      for (std::size_t k = 0; k < cap; ++k, it = next(it)) window.bytes += size_of(it);
      p.serial_rr_next_id = it->first;
      serial_msg.resize(h.wire_size(decisions.size(), window.bytes));
      write(serial_msg, window);
    }
  }
  host_.udp_send_frame(cfg_.my_ip, cfg_.hb_port, p.ip, cfg_.hb_port, std::move(frame));
  if (serial != nullptr) serial->send(std::move(serial_msg));
}

// ---------------------------------------------------------------------------
// Logged-decision channel (decision.h, docs/APPLICATION.md)
// ---------------------------------------------------------------------------

void StTcpEndpoint::set_decision_log(DecisionLog* log) {
  // Pair-scoped: a group has no per-follower decision acks yet, so a group
  // endpoint leaves the log unattached (ROADMAP item 4).
  if (group_mode()) return;
  decision_log_ = log;
  if (log != nullptr) {
    // The application flushed a batch of choices: put them on the wire now.
    // Every heartbeat retransmits the unacked window, so a lost flush only
    // costs latency, never correctness.
    log->set_flush_hook([this] { send_decision_heartbeat(); });
  }
}

void StTcpEndpoint::send_decision_heartbeat() {
  if (!host_.alive() || decision_log_ == nullptr) return;
  if (!replicating_or_reintegrating()) return;
  // A records-free header still carries the decision block — the cheap
  // event-style beat for both directions (primary: fresh records; backup:
  // a fresh cumulative ack the primary's output gate is waiting on). Rides
  // the IP channel only, like other event heartbeats: the serial line is
  // too slow for per-request traffic.
  for (std::size_t pi = 0; pi < peers_.size(); ++pi) {
    emit_heartbeat(pi, Beat::kDecision, 0, nullptr);
  }
  ++stats_.hb_sent;
  ++stats_.decision_hb_sent;
}

void StTcpEndpoint::process_decisions(const HbView& beat) {
  if (decision_log_ == nullptr || !beat.header.decisions_valid) return;
  decision_log_->on_peer_ack(beat.header.decision_ack);
  if (decision_log_->ingest(beat.decisions)) {
    // Our replay cursor advanced: ack promptly instead of waiting out the
    // heartbeat period — the primary's output-commit gate holds client
    // responses until this ack lands. No storm: the ack beat carries no new
    // records, so the peer's ingest cannot advance and echo back.
    send_decision_heartbeat();
  }
}

void StTcpEndpoint::sync_decision_log() {
  if (decision_log_ == nullptr) return;
  switch (mode_) {
    case Mode::kReplicating:
      decision_log_->set_standalone(false, /*retain=*/true);
      break;
    case Mode::kReintegrating:
      // Commit without the rejoiner (clients must not stall behind a
      // snapshot transfer) but retain every record: the rejoiner's restored
      // cursor skips the ones its checkpoint already folds in and replays
      // the rest.
      decision_log_->set_standalone(true, /*retain=*/true);
      break;
    case Mode::kTakenOver:
    case Mode::kNonFaultTolerant:
      decision_log_->set_standalone(true, /*retain=*/false);
      break;
    case Mode::kRejoining:
    case Mode::kDead:
      break;
  }
}

void StTcpEndpoint::on_hb_datagram(net::BytesView payload, bool via_serial) {
  if (!host_.alive() || mode_ == Mode::kDead) return;
  const std::optional<HbView> beat = HbView::parse(payload);
  if (!beat.has_value()) {
    ++stats_.hb_malformed;
    world_.trace().record(host_.name(), "hb_malformed",
                          via_serial ? "serial" : "ip");
    log_.warn("malformed heartbeat (", via_serial ? "serial" : "ip", ")");
    return;
  }
  on_heartbeat(*beat, via_serial);
}

void StTcpEndpoint::on_heartbeat(const HbView& beat, bool via_serial) {
  const HbHeader& msg = beat.header;
  // A group beat names its sender; a pair beat carries no member block and
  // comes from the pair's one peer.
  Peer* p = msg.group_valid ? peer_by_member(msg.member)
                            : (peers_.size() == 1 ? &peers_.front() : nullptr);
  if (p == nullptr) return;  // our own reflection, or not a roster member
  const std::size_t pi = static_cast<std::size_t>(p - peers_.data());

  // Rejoin solicitations are handled BEFORE the pair's role-reflection guard:
  // a former backup that survived a takeover still calls itself backup, and
  // so does the rejoiner — identical roles must not drop the request. The
  // leader serves them while replicating; a survivor that fell out of
  // replication (taken over, non-FT, last one standing) serves them too. A
  // replicating backup ignores it (the detector promotes us first; the
  // requesting peer is by definition not heartbeating normally).
  if (msg.rejoin_request &&
      (mode_ == Mode::kTakenOver || mode_ == Mode::kNonFaultTolerant ||
       mode_ == Mode::kReintegrating ||
       (mode_ == Mode::kReplicating && leads(my_member())))) {
    reintegrator_->on_rejoin_request(msg.rejoin_epoch, p->member);
  }
  // A pair's peer always holds the other role: a same-role beat is our own
  // reflection (should not happen) or that rejoin solicitation.
  if (!msg.group_valid && msg.role == role_) return;

  if (via_serial) {
    if (m_hb_gap_serial_us_ != nullptr) {
      m_hb_gap_serial_us_->record(
          static_cast<std::uint64_t>((world_.now() - p->last_rx_serial).us()));
    }
    p->last_rx_serial = world_.now();
    ++stats_.hb_received_serial;
  } else {
    if (m_hb_gap_ip_us_ != nullptr) {
      m_hb_gap_ip_us_->record(
          static_cast<std::uint64_t>((world_.now() - p->last_rx_ip).us()));
    }
    p->last_rx_ip = world_.now();
    ++stats_.hb_received_ip;
  }
  if (timeline_ != nullptr) timeline_->heartbeat_seen(world_.now());
  // Bounded-reorder guard: a duplicated or link-reordered heartbeat still
  // proves the channel is alive (counted above), but its state must not
  // rewind newer arbitration input (ping streaks, rejoin handshakes). A
  // small backward sequence jump is a stale copy; a large one is a rebooted
  // peer restarting its sequence and is accepted as a fresh stream.
  const auto seq_delta = static_cast<std::int32_t>(msg.hb_seq - p->last_hb_seq);
  if (p->seen_hb && seq_delta < 0 && seq_delta > -4096) {
    ++stats_.hb_stale;
    return;
  }
  p->seen_hb = true;
  p->last_hb_seq = msg.hb_seq;

  // Conviction revert: we convicted this member, yet here it is — alive and
  // claiming leadership with a view at least as new as ours. The conviction
  // was wrong (a grey channel, not a dead host); reinstate it before its
  // queued STONITH can ever fire.
  if (awaiting_leader_ && !view_.contains(msg.member) &&
      !msg.view_order.empty() && msg.view_order.front() == msg.member &&
      msg.view_epoch >= view_.epoch) {
    view_.order.insert(view_.order.begin(), msg.member);
    stonith_pending_.erase(
        std::remove(stonith_pending_.begin(), stonith_pending_.end(), msg.member),
        stonith_pending_.end());
    awaiting_leader_ = false;
    ballot_.reset();
    promote_timer_.cancel();
    world_.trace().record(host_.name(), "conviction_reverted", p->name);
  }

  maybe_adopt_view(msg.view_epoch, msg.view_order);  // may fence us into rejoin

  if (msg.rejoin_ready &&
      (mode_ == Mode::kReintegrating ||
       (mode_ == Mode::kReplicating && leads(my_member())))) {
    reintegrator_->on_rejoin_ready(msg.rejoin_epoch, p->member);
  }
  if (!replicating_or_reintegrating()) return;

  if (msg.ping_valid) {
    p->ping_fail_streak = msg.ping_ok ? 0 : p->ping_fail_streak + 1;
  }
  // A suspicion raised mid-reintegration must not convict the peer the
  // instant replication resumes; only assimilate it in steady state.
  if (msg.app_suspect && mode_ == Mode::kReplicating && view_.contains(p->member)) {
    p->app_suspect = true;
  }

  // A rejoiner that has not yet applied the snapshot cannot interpret
  // records (it has no connections, and an announce would cold-start a
  // from-scratch replica for a mid-stream connection) nor decisions (the
  // checkpoint it is waiting for jumps the replay cursor past them).
  if (mode_ == Mode::kRejoining && !reintegrator_->snapshot_applied()) return;

  process_decisions(beat);
  sync_decision_log();

  // Records count only on the leader<->backup axis: a group backup hears
  // another backup's heartbeats for liveness and promotion, not for
  // replication. (A pair has only that axis.)
  if (!leads(my_member()) && !leads(p->member) && mode_ != Mode::kRejoining) return;
  for (const HbRecord& rec : beat.records) {
    // A record may have triggered a failover action.
    if (!replicating_or_reintegrating()) break;
    process_record(rec, pi);
  }
}

void StTcpEndpoint::process_record(const HbRecord& rec, std::size_t pi) {
  ReplConn* rc = by_id(rec.repl_id);
  bool matched_by_id = rc != nullptr;
  if (rc == nullptr) {
    if (role_ == Role::kBackup && rec.announce) {
      create_replica_from(rec);
      rc = by_id(rec.repl_id);
      matched_by_id = rc != nullptr;
    } else if (role_ == Role::kPrimary && rec.announce &&
               rec.repl_id >= 0x8000) {
      // The backup built this replica on its own (deterministic accept ISN)
      // and has not yet adopted our id — our announce is still queued behind
      // client data on the uplink. Its record carries the tuple instead:
      // match by connection identity so its progress counters count and the
      // replica-setup grace timer does not convict a healthy backup.
      tcp::FourTuple t;
      t.local = net::SocketAddr{cfg_.service_ip, rec.local_port};
      t.remote = net::SocketAddr{rec.client_ip, rec.client_port};
      rc = by_tuple(t);
    }
    if (rc == nullptr) return;
  }

  // Only an id echo confirms the announce: a tuple-matched record means the
  // backup still does not know our id, so the announce must keep flowing.
  if (role_ == Role::kPrimary && matched_by_id && !rc->announce_confirmed) {
    rc->announce_confirmed = true;
    ++stats_.announces_confirmed;
    world_.trace().record(host_.name(), "announce_confirmed", rc->tuple.str());
  }

  // The record updates its sender's mirror only: every detector below
  // compares the sender with us and convicts the sender.
  ReplConn::PeerProgress& g = rc->gp[pi];
  g.valid = true;
  if (matched_by_id) g.echoed = true;
  // Unwrap the 32-bit wire counters against the sender's previous values.
  g.received = unwrap_counter(static_cast<std::uint32_t>(rec.bytes_received), g.received);
  g.acked = unwrap_counter(static_cast<std::uint32_t>(rec.acked_by_peer), g.acked);
  g.written = unwrap_counter(static_cast<std::uint32_t>(rec.app_written), g.written);
  g.read = unwrap_counter(static_cast<std::uint32_t>(rec.app_read), g.read);
  g.fin = g.fin || rec.fin_generated;
  g.rst = g.rst || rec.rst_generated;
  g.closed = g.closed || rec.closed;

  // Grey-failure watch: note the peer's total progress. Stagnation is
  // evaluated on the detector tick (it needs the clock even when a record's
  // values are unchanged); here we only timestamp changes.
  g.progress.observe(g.received + g.acked + g.written + g.read, world_.now());

  // Primary: the peers have confirmed receipt — release the hold buffer.
  if (role_ == Role::kPrimary) {
    const std::size_t before = rc->hold.size();
    rc->hold.release_to(release_point(*rc, pi));
    note_hold_change(before, rc->hold.size());
  }

  // FIN arbitration: the peer generated a FIN/RST. A primary holding a
  // withheld FIN settles only on full agreement (every watched peer FINed);
  // a lone peer's FIN with no local counterpart still arms the
  // disagreement timer below via on_peer_fin_notice.
  if (g.fin || g.rst) {
    if (role_ != Role::kPrimary || !rc->fin_withheld || fins_agree(*rc)) {
      on_peer_fin_notice(*rc);
    }
  }

  const sim::SimTime now = world_.now();

  // Application-failure detection (§4.2.1). Detection stays ACTIVE while a
  // FIN disagreement is pending — the paper makes the delayed-FIN window
  // "identical to the one described in Section 4.2.1". Only an AGREED close
  // (both sides produced a FIN/RST) or a finished connection disables it;
  // replicas behave identically during a normal close, so a lone FIN on the
  // healthy side never creates false lag.
  // While the IP heartbeat is down (local network failure, §4.3), app-level
  // lag is a symptom of the network fault, not of the application: leave the
  // diagnosis to the NIC arbitration below.
  // A lone peer close (FIN/RST/closed with our side still open) is NOT
  // benign — its frozen counters are exactly the §4.2.1 symptom.
  const bool local_closing = rc->conn == nullptr || rc->conn->fin_generated() ||
                             rc->conn->rst_generated();
  const bool peer_closing = g.fin || g.rst || g.closed;
  // While we are actively serving missed bytes to the peer, its app lag is
  // explained by the gap being repaired — do not convict until the recovery
  // has had a couple of heartbeats to land.
  const bool recovering_peer =
      rc->ever_served && now - rc->last_served_at < cfg_.hb_period * 3;
  // No lag conviction while a reintegration is in flight: the rejoiner is
  // still catching up by design. Trackers are reset when FT resumes.
  // Channel liveness is the sender's own: another peer's beats must not
  // mask this peer's dead NIC.
  Peer& sender = peers_[pi];
  const bool peer_ip_ok = peer_ip_alive(sender);
  const bool peer_serial_ok = peer_serial_alive(sender);
  const bool detection_eligible = mode_ == Mode::kReplicating &&
                                  rc->conn != nullptr && !rc->local_closed &&
                                  !(local_closing && peer_closing) &&
                                  !recovering_peer && peer_ip_ok;
  if (detection_eligible) {
    const auto v_read = g.lag_read.update(rc->read(), g.read, now);
    const auto v_written = g.lag_written.update(rc->written(), g.written, now);
    // Export the worst current byte lag before any conviction fires, so the
    // grey benches can read how far the peer fell behind.
    const std::uint64_t lag = std::max(g.lag_read.lag_bytes(), g.lag_written.lag_bytes());
    if (lag > app_lag_peak_bytes_) app_lag_peak_bytes_ = lag;
    if (m_app_lag_bytes_ != nullptr) {
      m_app_lag_bytes_->set(static_cast<std::int64_t>(lag));
    }
    if (v_read.failed) {
      convict(sender, sim::cat("app read lag: ", v_read.reason), "app_failure_detected");
      return;
    }
    if (v_written.failed) {
      convict(sender, sim::cat("app write lag: ", v_written.reason),
              "app_failure_detected");
      return;
    }
  }

  // NIC-failure detection via LastByteReceived / LastAckReceived comparison
  // (§4.3) — only meaningful while the IP channel is dead and the serial
  // channel carries the heartbeat.
  if (mode_ == Mode::kReplicating && !peer_ip_ok && peer_serial_ok &&
      rc->conn != nullptr && !rc->local_closed && !g.closed) {
    const auto v_rx = g.lag_received.update(rc->received(), g.received, now);
    const auto v_ack = g.lag_acked.update(rc->acked(), g.acked, now);
    if (v_rx.failed || v_ack.failed) {
      convict(sender,
              sim::cat("NIC failure (client-byte comparison): ",
                       v_rx.failed ? v_rx.reason : v_ack.reason),
              "nic_failure_detected");
      return;
    }
  }

  // Backup: missed-byte recovery (§4.3 temporary failures).
  if (role_ == Role::kBackup) maybe_request_missed(*rc);
}

void StTcpEndpoint::detector_tick() {
  if (!host_.alive()) return;
  // A group leader keeps watching its live followers while it serves a
  // rejoiner's snapshot (the rejoiner is outside the view until commit).
  if (mode_ != Mode::kReplicating && mode_ != Mode::kReintegrating) return;
  if (mode_ == Mode::kReplicating) gc_closed_conns();

  for (Peer& p : peers_) {
    if (!view_.contains(p.member)) continue;
    // Table 1 row 1: heartbeat failure on every link => the peer crashed.
    // Without a shared RS-232 cable the IP channel is the only channel —
    // peer_serial_alive() is constantly false there, so "both links dead"
    // collapses to IP silence as intended.
    if (!peer_ip_alive(p) && !peer_serial_alive(p)) {
      world_.trace().record(host_.name(), "hb_both_links_dead", worded("", p.name));
      convict(p,
              worded("heartbeat failure on both links",
                     sim::cat("heartbeat failure on all channels to ", p.name)),
              "peer_dead");
      return;  // one conviction per tick; the next period re-evaluates
    }
    if (p.app_suspect) {
      convict(p,
              worded("watchdog reported peer application failure",
                     sim::cat("watchdog reported application failure on ", p.name)),
              "watchdog_failure");
      return;
    }
  }

  // Table 1 row 4 territory: a watched peer is IP-silent while its serial
  // beat still arrives — a local network failure somewhere. Start (or
  // continue) gateway-ping arbitration; conviction happens here or in
  // process_record via the byte-count comparison.
  const auto in_nic_window = [this](const Peer& p) {
    return view_.contains(p.member) && !peer_ip_alive(p) && peer_serial_alive(p);
  };
  if (std::any_of(peers_.begin(), peers_.end(), in_nic_window)) {
    if (!ping_loop_active_) {
      // Every window counts only its own failures: a report that straddled
      // the previous window's close must not shorten this one.
      for (Peer& p : peers_) p.ping_fail_streak = 0;
      ping_loop_active_ = true;
      world_.trace().record(host_.name(), "nic_arbitration_start");
      update_ping_loop();
    }
    for (Peer& p : peers_) {
      if (in_nic_window(p) && my_ping_valid_ && my_ping_ok_ &&
          p.ping_fail_streak >= cfg_.ping_fail_threshold) {
        convict(p,
                sim::cat("gateway ping arbitration: ", worded("peer", p.name),
                         " failed ", p.ping_fail_streak, " consecutive pings"),
                "nic_failure_detected");
        return;
      }
    }
  } else if (ping_loop_active_ && !ballot_.active) {
    // The window closed: stop pinging and forget every streak, so the next
    // flap needs ping_fail_threshold fresh failures. (A promotion candidate
    // keeps the loop running — its win is gated on it.)
    ping_loop_active_ = false;
    my_ping_valid_ = false;
    for (Peer& p : peers_) p.ping_fail_streak = 0;
    ping_timer_.cancel();
  }

  if (mode_ != Mode::kReplicating) return;

  if (leads(my_member())) {
    for (auto& [id, rc] : conns_) {
      if (rc->conn != nullptr && !rc->local_closed) {
        // A connection a peer never started replicating within the grace
        // period means the peer application is not accepting (e.g. it
        // crashed between connections). The baseline restarts when the peer
        // (re)joined the tracking, not just when the connection opened.
        for (std::size_t i = 0; i < peers_.size(); ++i) {
          if (!view_.contains(peers_[i].member)) continue;
          const ReplConn::PeerProgress& g = rc->gp[i];
          const sim::SimTime base =
              g.since < rc->registered_at ? rc->registered_at : g.since;
          if (!g.valid && world_.now() - base > kReplicaSetupGrace) {
            convict(peers_[i],
                    sim::cat(worded("peer", sim::cat("member ", peers_[i].name)),
                             " never replicated connection ", rc->tuple.str()),
                    "app_failure_detected");
            return;
          }
        }
      }
      // Deferred hold-buffer overflow (set from the rx tap). The buffer is
      // pinned by the slowest watched peer: convict it.
      if (rc->hold.overflowed()) {
        Peer* slow = nullptr;
        std::uint64_t slow_rx = 0;
        for (std::size_t i = 0; i < peers_.size(); ++i) {
          if (!view_.contains(peers_[i].member)) continue;
          const std::uint64_t rx = rc->gp[i].valid ? rc->gp[i].received : 0;
          if (slow == nullptr || rx < slow_rx) {
            slow = &peers_[i];
            slow_rx = rx;
          }
        }
        if (slow != nullptr) {
          convict(*slow,
                  sim::cat("hold buffer overflow: ",
                           worded("backup", "slowest member"), " cannot catch up"),
                  "hold_overflow");
          return;
        }
      }
    }
  } else {
    // Grey-failure conviction: progress-counter stagnation against the
    // leader (lag.h ProgressWatch). Only meaningful while its heartbeats
    // still arrive over IP — silence is the classic detector's jurisdiction
    // — and only evaluated by followers: a stalled LEADER freezes both
    // sides' counters at the same value, so the relative lag trackers never
    // trip, while a stalled follower is caught by the leader's write-lag
    // tracker on that follower's own mirror. Gating the absolute criterion
    // to one role also means a grey host can never convict its healthy
    // leader with it (the healthy leader's counters freeze only when the
    // client stops acknowledging — which the demand test requires).
    const int li = leader_index();
    if (li >= 0 && peer_ip_alive(peers_[li]) &&
        cfg_.progress_stall_time > sim::Duration::zero()) {
      const sim::SimTime now = world_.now();
      for (auto& [id, rc] : conns_) {
        ReplConn::PeerProgress& m = rc->gp[li];
        if (rc->conn == nullptr || rc->local_closed || !m.valid) continue;
        if (m.fin || m.rst || m.closed) continue;
        if (rc->conn->fin_generated() || rc->conn->rst_generated()) continue;
        if (now - rc->registered_at <= kReplicaSetupGrace) continue;
        // Demand: this replica holds bytes the client has not acknowledged —
        // if the leader were healthy, SOME counter would be moving.
        const bool demand = rc->written() > rc->acked();
        const auto v = m.progress.check(demand, now);
        if (v.failed) {
          if (timeline_ != nullptr) {
            timeline_->mark(obs::Milestone::kProgressStall, now);
          }
          convict(peers_[li],
                  sim::cat("progress stall on ", rc->tuple.str(), ": ", v.reason),
                  "progress_stall_detected");
          return;
        }
      }
    }
  }

  if (awaiting_leader_) evaluate_promotion();
}

// ---------------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------------

void StTcpEndpoint::on_accepted(tcp::TcpConnection& conn) {
  // A reintegrating survivor keeps registering (and announcing) new
  // connections; the rejoiner adopts them via the snapshot retry or, once
  // applied, via the ordinary announce path.
  if (mode_ != Mode::kReplicating && mode_ != Mode::kReintegrating) return;
  if (conn.tuple().local.ip != cfg_.service_ip ||
      conn.tuple().local.port != cfg_.service_port) {
    return;  // not the replicated service
  }
  if (role_ == Role::kPrimary) {
    register_primary_conn(conn);
  }
  // Backup replicas are registered in create_replica_from(); nothing here.
}

void StTcpEndpoint::on_finished(tcp::TcpConnection& conn, tcp::CloseReason) {
  ReplConn* rc = by_tuple(conn.tuple());
  if (rc == nullptr || rc->conn != &conn) return;
  rc->f_received = conn.bytes_received();
  rc->f_acked = conn.bytes_acked_by_peer();
  rc->f_written = conn.app_bytes_written();
  rc->f_read = conn.app_bytes_read();
  rc->f_fin = conn.fin_generated();
  rc->f_rst = conn.rst_generated();
  rc->conn = nullptr;
  rc->local_closed = true;
  rc->closed_at = world_.now();
  rc->fin_delay_timer.cancel();
  rc->peer_fin_timer.cancel();
}

std::uint16_t StTcpEndpoint::alloc_primary_id() {
  for (int guard = 0; guard < 0x8000; ++guard) {
    const std::uint16_t id = next_id_;
    next_id_ = next_id_ >= 0x7fff ? 1 : static_cast<std::uint16_t>(next_id_ + 1);
    if (conns_.find(id) == conns_.end()) return id;
  }
  return 0;  // unreachable: would need 32k live replicated connections
}

std::uint16_t StTcpEndpoint::alloc_inferred_id() {
  for (int guard = 0; guard < 0x8000; ++guard) {
    const std::uint16_t id = next_inferred_id_;
    next_inferred_id_ = next_inferred_id_ == 0xffff
                            ? 0x8000
                            : static_cast<std::uint16_t>(next_inferred_id_ + 1);
    if (conns_.find(id) == conns_.end()) return id;
  }
  return 0;
}

void StTcpEndpoint::register_primary_conn(tcp::TcpConnection& conn) {
  const std::uint16_t id = alloc_primary_id();
  track_conn(id, conn.tuple()).conn = &conn;

  install_primary_seams(conn, id);

  world_.trace().record(host_.name(), "conn_registered", conn.tuple().str(), id);
  // Announce immediately rather than waiting out the period (IP channel
  // only, and only this connection's record: the periodic beat carries the
  // full list, on serial too).
  send_event_heartbeat(id);
}

void StTcpEndpoint::install_primary_seams(tcp::TcpConnection& conn,
                                          std::uint16_t id) {
  conn.set_rx_tap([this, id](std::uint64_t off, net::BytesView data) {
    ReplConn* r = by_id(id);
    // The hold buffer also feeds the rejoiner during a reintegration — a
    // gap at adoption is recovered against it.
    if (r == nullptr ||
        (mode_ != Mode::kReplicating && mode_ != Mode::kReintegrating)) {
      return;
    }
    const std::size_t before = r->hold.size();
    r->hold.append(off, data);
    if (r->hold.size() > hold_peak_bytes_) hold_peak_bytes_ = r->hold.size();
    note_hold_change(before, r->hold.size());
    // Overflow is handled (deferred) by detector_tick: reacting here would
    // tear down hooks while this very callback executes.
  });
  conn.set_close_gate([this, id](bool is_rst) { return close_gate(id, is_rst); });
}

void StTcpEndpoint::create_replica_from(const HbRecord& rec) {
  tcp::FourTuple tuple;
  tuple.local = net::SocketAddr{cfg_.service_ip, rec.local_port};
  tuple.remote = net::SocketAddr{rec.client_ip, rec.client_port};

  // The tuple may already be tracked under an inferred id (ISN inference
  // beat the announcement): remap it to the primary's id so heartbeat
  // records line up, and keep the existing connection.
  auto existing = id_by_tuple_.find(tuple);
  if (existing != id_by_tuple_.end()) {
    const std::uint16_t old_id = existing->second;
    ReplConn* old = by_id(old_id);
    if (old != nullptr && old->local_closed) {
      // Not the same connection: the client recycled its ephemeral port
      // while the closed record lingered for final counter exchange. The
      // announce is for a NEW incarnation of the tuple — displace the stale
      // record entirely (it may even share the announced id) and build a
      // fresh replica below.
      note_hold_change(old->hold.size(), 0);
      conns_.erase(old_id);
      id_by_tuple_.erase(existing);
      world_.trace().record(host_.name(), "replica_displaced_stale",
                            tuple.str(), old_id);
    } else {
      if (old_id == rec.repl_id) return;
      auto node = conns_.extract(old_id);
      if (!node.empty()) {
        node.key() = rec.repl_id;
        node.mapped()->id = rec.repl_id;
        conns_.insert(std::move(node));
        existing->second = rec.repl_id;
        world_.trace().record(host_.name(), "replica_id_remapped", tuple.str(),
                              rec.repl_id);
        // Echo the adopted id right away. The periodic heartbeat may be
        // rotating under load, and the primary's replica-setup grace timer
        // is running until it sees a record under its own id.
        send_event_heartbeat(rec.repl_id);
      }
      return;
    }
  }

  ReplConn& rc = track_conn(rec.repl_id, tuple);
  tcp::TcpConnection::ReplicaInit init;
  init.iss = rec.iss;
  init.irs = rec.irs;
  init.established = rec.established;
  rc.conn = &stack_.create_replica(tuple, init);
  ++stats_.replicas_created;
  world_.trace().record(host_.name(), "replica_created", tuple.str(), rec.repl_id);
  // Mirror the primary's announce-immediately behaviour: confirm the new
  // replica with a single-record event heartbeat instead of waiting for the
  // periodic beat (which may be a rotating window under high connection
  // counts — the grace timer must not race the rotation).
  send_event_heartbeat(rec.repl_id);
}

tcp::SeqWire StTcpEndpoint::service_isn(const tcp::FourTuple& t) const {
  // FNV-1a over the 4-tuple under a fixed key. A deployment would key this
  // with a boot-time secret shared between the pair (RFC 6528 adds a clock
  // component against cross-incarnation reuse); in the simulation the tuple
  // space is guarded by the client's own TIME_WAIT.
  std::uint64_t h = 0x53545443'50495346ull;  // "STTCPISF"
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  mix(t.remote.ip.value());
  mix(t.remote.port);
  mix(t.local.ip.value());
  mix(t.local.port);
  return static_cast<tcp::SeqWire>(h ^ (h >> 32));
}

void StTcpEndpoint::create_replica_inferred(const tcp::FourTuple& tuple,
                                            tcp::SeqWire iss, tcp::SeqWire irs,
                                            bool established) {
  // kRejoining: a connection OPENING during the rejoin window is fully
  // observable from the tap (SYN + handshake ACK) — adopt it directly; the
  // snapshot only has to carry connections older than the rejoiner's boot.
  if (mode_ != Mode::kReplicating && mode_ != Mode::kRejoining) return;
  if (tuple.local.ip != cfg_.service_ip || tuple.local.port != cfg_.service_port) {
    return;  // only the replicated service is adopted
  }
  auto existing = id_by_tuple_.find(tuple);
  if (existing != id_by_tuple_.end()) {
    // A live replica on this tuple means the SYN is a retransmit — nothing
    // to do. A closed, lingering record means the client recycled the
    // ephemeral port: displace the stale incarnation and adopt the new one.
    ReplConn* old = by_id(existing->second);
    if (old == nullptr || !old->local_closed) return;
    note_hold_change(old->hold.size(), 0);
    conns_.erase(existing->second);
    id_by_tuple_.erase(existing);
    world_.trace().record(host_.name(), "replica_displaced_stale", tuple.str());
  }
  // The inferred replica has no peer record yet; the announce (if the
  // primary lives long enough to send one) will remap the id.
  const std::uint16_t id = alloc_inferred_id();
  ReplConn& rc = track_conn(id, tuple);
  tcp::TcpConnection::ReplicaInit init;
  init.iss = iss;
  init.irs = irs;
  init.established = established;
  rc.conn = &stack_.create_replica(tuple, init);
  ++stats_.replicas_created;
  world_.trace().record(host_.name(), "replica_created", tuple.str(), id);
  world_.trace().record(host_.name(), "replica_inferred", tuple.str(), id);
}

// ---------------------------------------------------------------------------
// FIN arbitration (§4.2.2)
// ---------------------------------------------------------------------------

bool StTcpEndpoint::close_gate(std::uint16_t id, bool is_rst) {
  if (mode_ != Mode::kReplicating) return true;
  ReplConn* rc = by_id(id);
  if (rc == nullptr || rc->conn == nullptr) return true;

  // "The primary always immediately sends out a FIN if it has already
  // received a FIN from the client."
  if (rc->conn->peer_half_closed()) return true;

  // Agreement: the peer generated one too => normal closure. A primary
  // needs EVERY watched peer to have produced the FIN/RST — one healthy
  // member's silence keeps the arbitration open. (A backup hears only the
  // leader.)
  const int li = leader_index();
  const bool agreed = role_ == Role::kPrimary
                          ? fins_agree(*rc)
                          : li >= 0 && (rc->gp[li].fin || rc->gp[li].rst);
  if (agreed) {
    ++stats_.fin_agreed;
    world_.trace().record(host_.name(), "fin_agreed", rc->tuple.str());
    return true;
  }

  // Disagreement (so far): withhold for MaxDelayFIN. The peer's notice may
  // arrive within a heartbeat; failure detection may also fire first.
  if (!rc->fin_withheld) {
    rc->fin_withheld = true;
    ++stats_.fin_delayed;
    world_.trace().record(host_.name(), is_rst ? "rst_delayed" : "fin_delayed",
                          rc->tuple.str());
    rc->fin_delay_timer.arm(cfg_.max_delay_fin, [this, id] {
      ReplConn* r = by_id(id);
      if (r == nullptr || r->conn == nullptr) return;
      // MaxDelayFIN expired with no failure detected: trust our own close
      // as the correct behaviour and send the FIN to the client.
      world_.trace().record(host_.name(), "fin_released_after_delay",
                            r->tuple.str());
      r->conn->release_fin();
    });
    // Tell the peer about our FIN right away ("...should immediately
    // communicate the FIN to the other server through the HB").
    send_event_heartbeat(id);
  }
  return false;
}

void StTcpEndpoint::on_peer_fin_notice(ReplConn& rc) {
  if (rc.conn == nullptr) return;

  // If our own FIN is withheld, the peer's notice settles the arbitration:
  // both closed => normal closure, send it.
  if (rc.fin_withheld) {
    rc.fin_withheld = false;
    rc.fin_delay_timer.cancel();
    ++stats_.fin_agreed;
    world_.trace().record(host_.name(), "fin_agreed", rc.tuple.str());
    rc.conn->release_fin();
    return;
  }

  // Peer FINed, we did not (and our app hasn't closed): suspicious. Give the
  // lag detectors MaxDelayFIN to convict; on the primary an expiry convicts
  // the backup (its FIN was a failure artifact); on the backup an expiry
  // means the primary will send its FIN — nothing for us to do.
  if (!rc.conn->fin_generated() && !rc.conn->rst_generated() &&
      !rc.peer_fin_timer.armed()) {
    const std::uint16_t id = rc.id;
    world_.trace().record(host_.name(), "peer_fin_disagreement", rc.tuple.str());
    rc.peer_fin_timer.arm(cfg_.max_delay_fin, [this, id] {
      if (!active()) return;
      ReplConn* r = by_id(id);
      if (r == nullptr || r->conn == nullptr) return;
      if (r->conn->fin_generated() || r->conn->rst_generated()) return;  // agreed since
      if (role_ == Role::kPrimary) {
        // Convict the peer whose lone FIN/RST started the disagreement.
        for (std::size_t i = 0; i < peers_.size(); ++i) {
          if (!view_.contains(peers_[i].member)) continue;
          if (r->gp[i].fin || r->gp[i].rst) {
            convict(peers_[i],
                    sim::cat(worded("backup", "member"),
                             " generated FIN/RST with no local counterpart"),
                    "fin_disagreement");
            return;
          }
        }
      } else {
        world_.trace().record(host_.name(), "fin_disagreement_expired",
                              r->tuple.str());
      }
    });
  }
}

// ---------------------------------------------------------------------------
// NIC arbitration (§4.3)
// ---------------------------------------------------------------------------

void StTcpEndpoint::update_ping_loop() {
  if (!ping_loop_active_ || !active()) return;
  host_.ping(cfg_.my_ip, cfg_.gateway_ip, cfg_.ping_timeout,
             [this](bool ok, sim::Duration) {
               my_ping_valid_ = true;
               my_ping_ok_ = ok;
               // A promotion candidate's win may be gated only on this
               // result (quorum-over-IP: votes are in, gateway pending).
               if (ballot_.active) try_win_promotion();
             });
  ping_timer_.arm(cfg_.ping_interval, [this] { update_ping_loop(); });
}

// ---------------------------------------------------------------------------
// Missed-byte recovery (§4.3 temporary failures)
// ---------------------------------------------------------------------------

void StTcpEndpoint::maybe_request_missed(ReplConn& rc) {
  if (rc.conn == nullptr) return;
  // Only the leader holds the bytes; a fenced-out or leaderless view has no
  // one to ask (the promotion settles first).
  const int li = leader_index();
  if (li < 0) return;
  const std::uint64_t mine = rc.conn->bytes_received();
  const std::uint64_t theirs = rc.gp[li].received;
  if (theirs <= mine) return;
  if (world_.now() - rc.last_request_at < kRecoveryRequestDelay &&
      rc.last_request_offset == mine) {
    return;  // request outstanding for the same gap
  }
  MissedBytesRequest req;
  req.repl_id = rc.id;
  req.offset = mine;
  req.length = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(theirs - mine, 512 * 1024));
  rc.last_request_at = world_.now();
  rc.last_request_offset = mine;
  ++stats_.missed_requests_sent;
  world_.trace().record(host_.name(), "missed_bytes_request", rc.tuple.str(),
                        static_cast<std::int64_t>(req.length));
  host_.udp_send(cfg_.my_ip, cfg_.control_port, peers_[li].ip, cfg_.control_port,
                 req.serialize());
}

void StTcpEndpoint::on_control_datagram(net::Ipv4Addr src, net::BytesView payload) {
  if (!host_.alive() || mode_ == Mode::kDead) return;
  if (peer_index_by_ip(src) >= 0) {
    // Snapshot-transfer datagrams (reintegration) are routed before
    // ControlMsg::parse, which only understands the recovery messages.
    if (!payload.empty() &&
        payload[0] >= static_cast<std::uint8_t>(ControlType::kSnapshotBegin) &&
        payload[0] <= static_cast<std::uint8_t>(ControlType::kRejoinCommit)) {
      reintegrator_->on_control(payload);
      return;
    }
    auto msg = ControlMsg::parse(payload);
    if (!msg.has_value()) {
      ++stats_.control_malformed;
      return;
    }
    // Promotion and views (types 8-10) are group-only: a pair never sends
    // them and ignores them.
    const bool group_type = msg->type == ControlType::kPromoteRequest ||
                            msg->type == ControlType::kPromoteAck ||
                            msg->type == ControlType::kViewAnnounce;
    if (group_type && !group_mode()) return;
    switch (msg->type) {
      case ControlType::kMissedBytesRequest:
        serve_missed(msg->request, src);
        break;
      case ControlType::kMissedBytesReply:
        apply_missed(msg->reply);
        break;
      case ControlType::kPromoteRequest:
        on_promote_request(src, msg->promote_request);
        break;
      case ControlType::kPromoteAck:
        on_promote_ack(msg->promote_ack);
        break;
      case ControlType::kViewAnnounce:
        maybe_adopt_view(msg->view_announce.epoch, msg->view_announce.order);
        break;
      default:  // snapshot types are routed above, never parsed here
        break;
    }
    return;
  }
  if (!cfg_.logger_ip.is_zero() && src == cfg_.logger_ip) {
    auto rep = LoggerReply::parse(payload);
    if (!rep.has_value() || rep->data.empty()) return;
    tcp::FourTuple t;
    t.local = net::SocketAddr{cfg_.service_ip, rep->service_port};
    t.remote = net::SocketAddr{rep->client_ip, rep->client_port};
    ReplConn* rc = by_tuple(t);
    if (rc == nullptr || rc->conn == nullptr) return;
    const std::size_t injected =
        rc->conn->inject_stream_bytes(rep->offset, rep->data);
    stats_.logger_bytes_injected += injected;
    if (injected > 0) {
      world_.trace().record(host_.name(), "logger_injected", rc->tuple.str(),
                            static_cast<std::int64_t>(injected));
      // Chain immediately while the gap persists.
      logger_recovery_tick();
    }
  }
}

void StTcpEndpoint::serve_missed(const MissedBytesRequest& req,
                                 net::Ipv4Addr requester) {
  ReplConn* rc = by_id(req.repl_id);
  if (rc == nullptr) return;
  ++stats_.missed_requests_served;
  rc->last_served_at = world_.now();
  rc->ever_served = true;
  std::uint64_t off = req.offset;
  std::uint64_t remaining = req.length;
  while (remaining > 0) {
    const std::size_t chunk =
        static_cast<std::size_t>(std::min<std::uint64_t>(remaining, cfg_.recovery_chunk));
    MissedBytesReply rep;
    rep.repl_id = req.repl_id;
    rep.offset = off;
    rep.data = rc->hold.slice(off, chunk);
    if (rep.data.empty()) {
      log_.warn("missed-byte request for [", off, ", +", chunk,
                ") outside hold buffer [", rc->hold.start_offset(), ", ",
                rc->hold.end_offset(), ")");
      break;
    }
    world_.trace().record(host_.name(), "missed_bytes_served", rc->tuple.str(),
                          static_cast<std::int64_t>(rep.data.size()));
    const std::uint64_t served = rep.data.size();
    host_.udp_send(cfg_.my_ip, cfg_.control_port, requester, cfg_.control_port,
                   rep.serialize());
    off += served;
    remaining -= std::min<std::uint64_t>(remaining, served);
    if (served < chunk) break;  // ran out of held bytes
  }
}

void StTcpEndpoint::apply_missed(const MissedBytesReply& rep) {
  ReplConn* rc = by_id(rep.repl_id);
  if (rc == nullptr || rc->conn == nullptr) return;
  const std::size_t injected = rc->conn->inject_stream_bytes(rep.offset, rep.data);
  stats_.missed_bytes_injected += injected;
  if (m_recovery_bytes_ != nullptr) m_recovery_bytes_->inc(injected);
  if (injected > 0) {
    world_.trace().record(host_.name(), "missed_bytes_injected", rc->tuple.str(),
                          static_cast<std::int64_t>(injected));
    // Chain: if the gap is still open (more was lost than one request
    // covers), ask again immediately instead of waiting for the next
    // heartbeat record.
    maybe_request_missed(*rc);
  }
}

// ---------------------------------------------------------------------------
// Failure reactions
// ---------------------------------------------------------------------------

void StTcpEndpoint::takeover(const std::string& reason) {
  ++stats_.takeovers;
  mode_ = Mode::kTakenOver;
  // Power the primary down BEFORE assuming the connection — no dual-active.
  flush_stonith_pending();
  stack_.set_replica_mode(false);
  // Promote the decision log BEFORE unsuppressing: the app's promote hook
  // drains the replayed backlog, and any response it releases must see the
  // log already in standalone-record mode.
  if (decision_log_ != nullptr) decision_log_->promote();
  for (auto& [id, rc] : conns_) {
    if (rc->conn != nullptr) {
      rc->conn->on_takeover(cfg_.immediate_retransmit_on_takeover);
    }
  }
  hb_timer_.stop();
  ping_timer_.cancel();
  if (timeline_ != nullptr) timeline_->mark(obs::Milestone::kTakeover, world_.now());
  world_.trace().record(host_.name(), "takeover", reason);
  log_.warn("TOOK OVER as active server: ", reason);
  // Output-commit fallback: any receive gap whose bytes the dead primary
  // already acknowledged can only be filled by the stream logger now.
  if (!cfg_.logger_ip.is_zero()) {
    logger_attempts_ = 0;
    logger_recovery_tick();
  }
}

void StTcpEndpoint::logger_recovery_tick() {
  if (!host_.alive()) return;
  bool any_gap = false;
  for (auto& [id, rc] : conns_) {
    if (rc->conn == nullptr) continue;
    const std::uint64_t mine = rc->conn->bytes_received();
    // The furthest any peer reported receiving: after a takeover or a
    // promotion, the dead leader's last word.
    std::uint64_t target = 0;
    for (const ReplConn::PeerProgress& g : rc->gp) target = std::max(target, g.received);
    if (rc->conn->has_rx_gap()) {
      target = std::max(target, rc->conn->rx_gap_end());
    }
    // The client retransmitting from above our rcv_nxt proves the dead
    // primary acknowledged the bytes in between; only the logger has them.
    if (const auto floor = rc->conn->rx_future_floor()) {
      target = std::max(target, *floor);
    }
    if (target <= mine) continue;
    any_gap = true;
    LoggerRequest req;
    req.client_ip = rc->tuple.remote.ip;
    req.client_port = rc->tuple.remote.port;
    req.service_port = rc->tuple.local.port;
    req.offset = mine;
    req.length = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        target - mine, cfg_.recovery_chunk));
    ++stats_.logger_requests_sent;
    world_.trace().record(host_.name(), "logger_request", rc->tuple.str(),
                          static_cast<std::int64_t>(req.length));
    host_.udp_send(cfg_.my_ip, cfg_.control_port, cfg_.logger_ip,
                   cfg_.logger_port, req.serialize());
  }
  if (any_gap && ++logger_attempts_ < 200) {
    logger_timer_.arm(cfg_.hb_period / 2, [this] { logger_recovery_tick(); });
  }
}

void StTcpEndpoint::go_non_ft(const std::string& reason) {
  mode_ = Mode::kNonFaultTolerant;
  sync_decision_log();
  for (auto& [id, rc] : conns_) {
    rc->hold.clear();
    if (rc->conn != nullptr) {
      rc->conn->set_rx_tap(nullptr);
      rc->conn->set_close_gate(nullptr);
      rc->conn->release_fin();  // any withheld FIN goes out now
    }
    rc->fin_delay_timer.cancel();
    rc->peer_fin_timer.cancel();
  }
  recompute_hold_total();
  hb_timer_.stop();
  ping_timer_.cancel();
  if (timeline_ != nullptr) timeline_->mark(obs::Milestone::kTakeover, world_.now());
  world_.trace().record(host_.name(), "non_ft_mode", reason);
  log_.warn("running NON-FAULT-TOLERANT: ", reason);
}

// ---------------------------------------------------------------------------
// 1+N groups (group.h, docs/GROUPS.md)
// ---------------------------------------------------------------------------

StTcpEndpoint::Peer* StTcpEndpoint::peer_by_member(std::uint8_t m) {
  for (Peer& p : peers_) {
    if (p.member == m) return &p;
  }
  return nullptr;
}

int StTcpEndpoint::peer_index_by_ip(net::Ipv4Addr ip) const {
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    if (peers_[i].ip == ip) return static_cast<int>(i);
  }
  return -1;
}

bool StTcpEndpoint::peer_ip_alive(const Peer& p) const {
  const sim::Duration deadline =
      cfg_.hb_period * cfg_.hb_miss_threshold + cfg_.hb_period / 2;
  return world_.now() - p.last_rx_ip <= deadline;
}

bool StTcpEndpoint::peer_serial_alive(const Peer& p) const {
  if (!p.has_serial) return false;
  const sim::Duration deadline =
      cfg_.hb_period * cfg_.hb_miss_threshold + cfg_.hb_period / 2;
  return world_.now() - p.last_rx_serial <= deadline;
}

void StTcpEndpoint::reset_peer(Peer& p) {
  p.last_rx_ip = world_.now();
  p.last_rx_serial = world_.now();
  p.seen_hb = false;
  p.app_suspect = false;
  p.ping_fail_streak = 0;
}

void StTcpEndpoint::update_group_gauges() {
  if (m_rank_ != nullptr) m_rank_->set(promotion_rank());
  if (m_epoch_ != nullptr) m_epoch_->set(static_cast<std::int64_t>(view_.epoch));
}

int StTcpEndpoint::leader_index() const {
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    if (leads(peers_[i].member)) return static_cast<int>(i);
  }
  return -1;
}

template <class Pred>
bool StTcpEndpoint::all_watched(const ReplConn& rc, Pred pred) const {
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    if (view_.contains(peers_[i].member) && !pred(rc.gp[i])) return false;
  }
  return true;
}

bool StTcpEndpoint::fins_agree(const ReplConn& rc) const {
  return all_watched(rc, [](const ReplConn::PeerProgress& m) {
    return m.valid && (m.fin || m.rst);
  });
}

bool StTcpEndpoint::peers_closed(const ReplConn& rc) const {
  if (!leads(my_member())) {
    const int li = leader_index();
    return li >= 0 && rc.gp[li].closed;
  }
  return all_watched(rc, [](const ReplConn::PeerProgress& m) { return m.closed; });
}

std::uint64_t StTcpEndpoint::release_point(const ReplConn& rc, std::size_t sender) const {
  bool any = false;
  std::uint64_t low = UINT64_MAX;
  const bool all_valid = all_watched(rc, [&](const ReplConn::PeerProgress& m) {
    any = true;
    low = std::min(low, m.received);
    return m.valid;
  });
  if (!any) return rc.gp[sender].received;
  return all_valid ? low : 0;
}

void StTcpEndpoint::convict(Peer& p, const std::string& reason,
                            const char* trace_event) {
  // A pair's rejoiner is outside the view until its commit, so only a group
  // leader convicts while it serves a snapshot.
  if (mode_ != Mode::kReplicating && mode_ != Mode::kReintegrating) return;
  if (!view_.contains(p.member)) return;
  // A group names the convicted member in the stamp; a pair has one peer.
  const bool group = group_mode();

  if (timeline_ != nullptr) {
    timeline_->mark(obs::Milestone::kChannelDead, world_.now());
    timeline_->set_conviction(trace_event, app_lag_peak_bytes_,
                              group ? p.name : std::string());
  }
  if (auto* reg = world_.metrics()) {
    // One counter per conviction criterion: the grey bench sums these to
    // prove convictions came from progress counters, not heartbeat silence.
    const std::string prefix = "sttcp." + host_.name();
    reg->counter(prefix + ".conviction." + trace_event).inc();
    if (group) reg->counter(prefix + ".convicted_member." + p.name).inc();
  }
  world_.trace().record(host_.name(), trace_event, reason);
  // Uniform marker (detail = the criterion event): the grey invariant check
  // counts convictions without enumerating every criterion name.
  world_.trace().record(host_.name(), "peer_convicted", trace_event);
  if (group) {
    world_.trace().record(host_.name(), "member_convicted", p.name);
    log_.warn("member ", p.name, " declared failed: ", reason);
  } else {
    log_.warn("peer declared failed: ", reason);
  }
  if (std::find(stonith_pending_.begin(), stonith_pending_.end(), p.member) ==
      stonith_pending_.end()) {
    stonith_pending_.push_back(p.member);
  }

  if (!group) {
    // The pair's reaction: the backup takes over, the primary continues
    // alone (non-fault-tolerant). Either way the peer is powered off first.
    if (role_ == Role::kBackup) {
      takeover(reason);
    } else {
      flush_stonith_pending();
      go_non_ft(reason);
    }
    return;
  }

  // "Leader" here means the ESTABLISHED leader, not a front-of-view member
  // whose promotion is still unresolved: a candidate that convicts its last
  // surviving voter must fall through to the promotion path (its ballot just
  // became vacuous), never to the leader's keep-serving/non-FT path.
  const bool i_was_leader = view_.is_leader(my_member()) && !awaiting_leader_;
  const bool victim_was_leader = view_.is_leader(p.member);
  view_.remove(p.member);

  if (i_was_leader) {
    // The leader convicts a backup: STONITH and fence it out immediately —
    // bump the epoch, announce the shrunk view, keep replicating with the
    // remaining members (or continue alone, non-fault-tolerant).
    flush_stonith_pending();
    ++view_.epoch;
    ++stats_.view_changes;
    announce_view();
    update_group_gauges();
    for (auto& [id, rc] : conns_) progress_of(*rc, p).restart(world_.now());
    if (view_.order.size() <= 1 && mode_ == Mode::kReplicating) {
      go_non_ft(reason);
    }
    return;
  }

  // A backup convicted a member. If the leader is now gone (this conviction
  // or an earlier one), run the ranked-promotion protocol; a conviction of a
  // fellow backup merely shrinks the local view (the leader's next announce
  // is authoritative either way).
  if (victim_was_leader) awaiting_leader_ = true;
  if (ballot_.active) ballot_.reset();  // voter set changed; recompute
  update_group_gauges();
  if (awaiting_leader_ && mode_ == Mode::kReplicating) evaluate_promotion();
}

void StTcpEndpoint::evaluate_promotion() {
  if (mode_ != Mode::kReplicating || !awaiting_leader_) return;
  if (view_.order.empty()) return;
  if (view_.is_leader(my_member())) {
    become_candidate();
    return;
  }
  // A lower-ranked member should win. Defer, bounded: a dead candidate must
  // not stall the group forever.
  if (!promote_timer_.armed()) {
    world_.trace().record(host_.name(), "promote_defer",
                          sim::cat("rank ", view_.rank_of(my_member()),
                                   " defers to member ",
                                   static_cast<int>(view_.leader())));
    promote_timer_.arm(cfg_.promote_defer, [this] { on_defer_expired(); });
  }
}

void StTcpEndpoint::on_defer_expired() {
  if (!awaiting_leader_ || mode_ != Mode::kReplicating) return;
  if (view_.order.empty()) return;
  if (view_.is_leader(my_member())) {
    become_candidate();
    return;
  }
  const std::uint8_t cand = view_.leader();
  Peer* p = peer_by_member(cand);
  if (p != nullptr && (peer_ip_alive(*p) || peer_serial_alive(*p))) {
    // The candidate is alive but has not won yet (its own quorum may still
    // be settling). NEVER convict a live candidate — re-arm and keep waiting.
    promote_timer_.arm(cfg_.promote_defer, [this] { on_defer_expired(); });
    return;
  }
  if (p != nullptr) {
    convict(*p, sim::cat("promotion candidate ", p->name, " silent past defer"),
            "promote_defer_expired");
  }
}

void StTcpEndpoint::become_candidate() {
  promote_timer_.cancel();
  // One-grant-per-epoch binds our own candidacy too: having granted another
  // still-live candidate this epoch, we wait for its announce instead.
  if (have_granted_ && granted_epoch_ == view_.epoch &&
      granted_candidate_ != my_member() && view_.contains(granted_candidate_)) {
    promote_timer_.arm(cfg_.promote_retry, [this] { evaluate_promotion(); });
    return;
  }
  if (!ballot_.active || ballot_.epoch != view_.epoch) {
    ballot_.reset();
    ballot_.active = true;
    ballot_.epoch = view_.epoch;
    for (const std::uint8_t m : view_.order) {
      if (m != my_member()) ballot_.voters.push_back(m);
    }
    world_.trace().record(host_.name(), "promote_candidate", view_.str());
  }
  // Gateway reachability is part of the win condition (quorum-over-IP): a
  // candidate whose own NIC is the real fault must not take the service.
  if (!ping_loop_active_) {
    ping_loop_active_ = true;
    update_ping_loop();
  }
  PromoteRequest pr;
  pr.epoch = ballot_.epoch;
  pr.candidate = my_member();
  for (const std::uint8_t m : ballot_.voters) {
    if (ballot_.granted_by(m)) continue;
    Peer* p = peer_by_member(m);
    if (p == nullptr) continue;
    host_.udp_send(cfg_.my_ip, cfg_.control_port, p->ip, cfg_.control_port,
                   pr.serialize());
  }
  // Requests and acks ride lossy UDP: keep soliciting until the ballot
  // completes or the view changes under us.
  promote_timer_.arm(cfg_.promote_retry, [this] {
    if (awaiting_leader_ && mode_ == Mode::kReplicating) become_candidate();
  });
  try_win_promotion();
}

void StTcpEndpoint::try_win_promotion() {
  if (!ballot_.active || !awaiting_leader_ || mode_ != Mode::kReplicating) return;
  for (const std::uint8_t m : ballot_.voters) {
    if (!ballot_.granted_by(m)) return;
  }
  // Unanimity over the live voter set (vacuous after a double failure left
  // us alone). Last gate: our own gateway reachability — the IP network
  // standing in as the arbiter the 2-host serial cable used to be.
  if (!my_ping_valid_) return;  // ping in flight; its callback re-checks
  if (!my_ping_ok_) {
    world_.trace().record(host_.name(), "promotion_blocked_gateway");
    return;
  }
  win_promotion();
}

void StTcpEndpoint::win_promotion() {
  promote_timer_.cancel();
  ballot_.reset();
  awaiting_leader_ = false;
  ping_loop_active_ = false;
  my_ping_valid_ = false;
  ping_timer_.cancel();

  ++stats_.takeovers;
  ++stats_.promotions;
  // STONITH every convicted member BEFORE any replica is unsuppressed: even
  // a mis-convicted, actually-live leader is powered off before this node
  // can emit a single segment with the service identity (dual-active guard).
  flush_stonith_pending();
  ++view_.epoch;
  ++stats_.view_changes;
  view_.remove(my_member());
  view_.order.insert(view_.order.begin(), my_member());
  role_ = Role::kPrimary;
  if (timeline_ != nullptr) {
    timeline_->mark(obs::Milestone::kTakeover, world_.now());
    timeline_->set_promotion(host_.name(), my_member(), view_.epoch);
  }
  world_.trace().record(host_.name(), "takeover",
                        sim::cat("promoted to leader: ", view_.str()));
  world_.trace().record(host_.name(), "promoted", view_.str());
  log_.warn("PROMOTED to group leader: ", view_.str());

  stack_.set_replica_mode(false);
  for (auto& [id, rc] : conns_) {
    if (rc->conn != nullptr) {
      rc->conn->on_takeover(cfg_.immediate_retransmit_on_takeover);
    }
  }

  if (view_.order.size() > 1) {
    // Survivors remain: stay in replicating mode as the new leader. Fresh
    // per-member mirrors and lag baselines (the survivors' counters restart
    // relative to OURS now), and primary-side seams on every live replica.
    for (auto& [id, rc] : conns_) {
      for (ReplConn::PeerProgress& g : rc->gp) g.restart(world_.now());
      if (rc->conn != nullptr && !rc->local_closed) {
        install_primary_seams(*rc->conn, id);
      }
    }
    announce_view();
    update_group_gauges();
    send_heartbeat(/*include_serial=*/false);  // immediate beat as leader
  } else {
    mode_ = Mode::kTakenOver;
    hb_timer_.stop();
    announce_view();
    update_group_gauges();
  }
  if (!cfg_.logger_ip.is_zero()) {
    logger_attempts_ = 0;
    logger_recovery_tick();
  }
}

void StTcpEndpoint::on_promote_request(net::Ipv4Addr src, const PromoteRequest& pr) {
  if (mode_ != Mode::kReplicating) return;
  PromoteAck ack;
  ack.epoch = pr.epoch;
  ack.candidate = pr.candidate;
  ack.voter = my_member();
  const int crank = view_.rank_of(pr.candidate);
  const int myrank = view_.rank_of(my_member());
  // One grant per epoch: free if we never granted this epoch, are re-acking
  // the same candidate, or the prior grantee has since been convicted.
  const bool grant_free = !have_granted_ || granted_epoch_ != view_.epoch ||
                          granted_candidate_ == pr.candidate ||
                          !view_.contains(granted_candidate_);
  ack.granted = pr.epoch == view_.epoch && crank >= 0 && myrank >= 0 &&
                crank < myrank && grant_free;
  if (ack.granted) {
    have_granted_ = true;
    granted_epoch_ = view_.epoch;
    granted_candidate_ = pr.candidate;
    ++stats_.votes_granted;
    world_.trace().record(host_.name(), "promote_grant",
                          sim::cat("member ", static_cast<int>(pr.candidate),
                                   " epoch ", pr.epoch));
    // Granting restarts our defer: the candidate earned a fresh window to
    // finish its quorum before we may convict it for silence.
    if (awaiting_leader_) {
      promote_timer_.arm(cfg_.promote_defer, [this] { on_defer_expired(); });
    }
  } else {
    ++stats_.votes_denied;
    world_.trace().record(host_.name(), "promote_deny",
                          sim::cat("member ", static_cast<int>(pr.candidate),
                                   " epoch ", pr.epoch, " (view ", view_.str(),
                                   ")"));
  }
  host_.udp_send(cfg_.my_ip, cfg_.control_port, src, cfg_.control_port,
                 ack.serialize());
}

void StTcpEndpoint::on_promote_ack(const PromoteAck& ack) {
  if (mode_ != Mode::kReplicating) return;
  if (!ballot_.active || ack.candidate != my_member() ||
      ack.epoch != ballot_.epoch) {
    return;
  }
  if (!ack.granted) {
    // A voter knows a view we do not (or granted someone else). Step back
    // and wait for the winner's announce; the defer path retries.
    world_.trace().record(host_.name(), "promotion_denied",
                          sim::cat("by member ", static_cast<int>(ack.voter)));
    ballot_.reset();
    if (awaiting_leader_) {
      promote_timer_.arm(cfg_.promote_defer, [this] { on_defer_expired(); });
    }
    return;
  }
  if (!ballot_.granted_by(ack.voter)) ballot_.grants.push_back(ack.voter);
  try_win_promotion();
}

void StTcpEndpoint::announce_view() {
  ViewAnnounce va;
  va.epoch = view_.epoch;
  va.order = view_.order;
  // Every configured member hears it, including ones fenced out of the view:
  // a mis-convicted survivor must learn its fate quickly (and rejoin).
  for (const Peer& p : peers_) {
    host_.udp_send(cfg_.my_ip, cfg_.control_port, p.ip, cfg_.control_port,
                   va.serialize());
  }
  world_.trace().record(host_.name(), "view_announced", view_.str());
}

void StTcpEndpoint::flush_stonith_pending() {
  for (const std::uint8_t m : stonith_pending_) {
    const std::string& name = cfg_.group[m].name;
    if (timeline_ != nullptr) {
      timeline_->mark(obs::Milestone::kStonith, world_.now());
    }
    world_.trace().record(host_.name(), "stonith", name);
    if (!power_.power_off(name)) {
      log_.warn("STONITH of ", name, " failed (power controller)");
    }
  }
  stonith_pending_.clear();
}

void StTcpEndpoint::maybe_adopt_view(std::uint32_t epoch,
                                     std::span<const std::uint8_t> order) {
  if (order.empty()) return;
  if (static_cast<std::int32_t>(epoch - view_.epoch) <= 0) return;
  view_.epoch = epoch;
  view_.order.assign(order.begin(), order.end());
  ++stats_.view_changes;
  // The announced view supersedes every local arbitration in flight. In
  // particular any pending STONITH: the announcer already powered off what
  // it convicted BEFORE announcing, and our own convictions are overruled.
  awaiting_leader_ = false;
  ballot_.reset();
  promote_timer_.cancel();
  stonith_pending_.clear();
  if (ping_loop_active_) {
    ping_loop_active_ = false;
    my_ping_valid_ = false;
    ping_timer_.cancel();
  }
  world_.trace().record(host_.name(), "view_adopted", view_.str());
  if (!view_.contains(my_member())) {
    update_group_gauges();
    if (mode_ == Mode::kReplicating) {
      // Fenced out: the group moved on without us (we were convicted and the
      // STONITH missed, or our channels were grey). Re-enter from scratch.
      world_.trace().record(host_.name(), "fenced_by_view", view_.str());
      role_ = Role::kBackup;
      reintegrator_->enter_rejoin();
    }
    return;
  }
  if (mode_ == Mode::kReplicating) {
    role_ = view_.is_leader(my_member()) ? Role::kPrimary : Role::kBackup;
  }
  update_group_gauges();
}

void StTcpEndpoint::group_commit_rejoin(std::uint8_t member) {
  ++view_.epoch;
  ++stats_.view_changes;
  Peer* p = peer_by_member(member);
  if (p != nullptr) {
    reset_peer(*p);
    for (auto& [id, rc] : conns_) progress_of(*rc, *p).restart(world_.now());
  }
  announce_view();
  update_group_gauges();
}

// ---------------------------------------------------------------------------
// Bookkeeping
// ---------------------------------------------------------------------------

void StTcpEndpoint::update_hold_gauge() {
  if (m_hold_bytes_ == nullptr) return;
  m_hold_bytes_->set(static_cast<std::int64_t>(hold_total_bytes_));
}

void StTcpEndpoint::note_hold_change(std::size_t before, std::size_t after) {
  hold_total_bytes_ += after;
  hold_total_bytes_ -= before;
  update_hold_gauge();
}

void StTcpEndpoint::recompute_hold_total() {
  // Cold-path resync after bulk clears (non-FT fallback, reintegration
  // re-arm/abandon); the hot paths adjust incrementally.
  hold_total_bytes_ = 0;
  for (const auto& [id, rc] : conns_) hold_total_bytes_ += rc->hold.size();
  update_hold_gauge();
}

StTcpEndpoint::ReplConn& StTcpEndpoint::track_conn(std::uint16_t id,
                                                   const tcp::FourTuple& tuple) {
  auto rc = std::make_unique<ReplConn>(world_.loop(), cfg_);
  rc->id = id;
  rc->tuple = tuple;
  rc->registered_at = world_.now();
  rc->gp.assign(peers_.size(), ReplConn::PeerProgress(cfg_, rc->registered_at));
  id_by_tuple_[tuple] = id;
  return *conns_.emplace(id, std::move(rc)).first->second;
}

StTcpEndpoint::ReplConn* StTcpEndpoint::by_id(std::uint16_t id) {
  auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : it->second.get();
}

StTcpEndpoint::ReplConn* StTcpEndpoint::by_tuple(const tcp::FourTuple& t) {
  auto it = id_by_tuple_.find(t);
  return it == id_by_tuple_.end() ? nullptr : by_id(it->second);
}

void StTcpEndpoint::gc_closed_conns() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    ReplConn& rc = *it->second;
    const bool expired = rc.local_closed &&
                         (peers_closed(rc) || world_.now() - rc.closed_at > kClosedLinger);
    if (expired) {
      note_hold_change(rc.hold.size(), 0);
      // Only drop the tuple mapping if it still points at THIS record. Under
      // heavy churn the client's ephemeral ports recycle, and a new
      // incarnation of the tuple may have been registered while this closed
      // record lingered — erasing its mapping would orphan the live
      // connection (on_finished could no longer find it to clear conn,
      // leaving a dangling pointer once the stack frees the connection).
      auto t = id_by_tuple_.find(rc.tuple);
      if (t != id_by_tuple_.end() && t->second == it->first) id_by_tuple_.erase(t);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace sttcp::sttcp
