#include "sttcp/reintegration.h"

#include <algorithm>
#include <vector>

#include "sttcp/endpoint.h"

namespace sttcp::sttcp {

namespace {
constexpr std::uint8_t kKindTx = 0;  // SnapshotData carries unacked send bytes
constexpr std::uint8_t kKindRx = 1;  // SnapshotData carries unread receive bytes
constexpr std::uint8_t kKindApp = 2;  // SnapshotData carries app checkpoint bytes
}  // namespace

Reintegrator::Reintegrator(StTcpEndpoint& ep)
    : ep_(ep), retry_timer_(ep.world_.loop()) {}

Reintegrator::~Reintegrator() = default;

bool Reintegrator::rejoin_request_flag() const {
  return ep_.mode_ == StTcpEndpoint::Mode::kRejoining && !applied_;
}

bool Reintegrator::rejoin_ready_flag() const {
  return ep_.mode_ == StTcpEndpoint::Mode::kRejoining && applied_;
}

void Reintegrator::send_control(const net::Bytes& payload) {
  // To the member whose rejoin we serve.
  if (rejoin_member_ < 0) return;
  const net::Ipv4Addr dst = ep_.cfg_.group[static_cast<std::size_t>(rejoin_member_)].ip;
  ep_.host_.udp_send(ep_.cfg_.my_ip, ep_.cfg_.control_port, dst,
                     ep_.cfg_.control_port, payload);
}

// ---------------------------------------------------------------------------
// Rejoiner side
// ---------------------------------------------------------------------------

void Reintegrator::enter_rejoin() {
  if (!ep_.started_) return;
  // Epoch: unique per boot. The sim clock is strictly later than at any
  // previous boot; the original role salts the low bit so both nodes booting
  // in the same microsecond cannot collide.
  const std::uint64_t boot_us =
      static_cast<std::uint64_t>((ep_.world_.now() - sim::SimTime()).us());
  // The epoch travels in heartbeats, so a pair salts with its two-valued
  // role (its wire bytes are pinned); any subset of a group can reboot in
  // the same microsecond, so a group salts with the member index.
  const std::uint64_t salted =
      ep_.group_mode() ? boot_us * 8 + ep_.my_member()
                       : boot_us * 2 + (ep_.role_ == Role::kPrimary ? 1 : 0);
  epoch_ = static_cast<std::uint32_t>(salted) | 1u << 31;  // never zero

  ep_.mode_ = StTcpEndpoint::Mode::kRejoining;
  ep_.role_ = Role::kBackup;
  ep_.conns_.clear();
  ep_.id_by_tuple_.clear();
  ep_.local_app_suspect_ = false;
  ep_.ping_loop_active_ = false;
  ep_.my_ping_valid_ = false;
  ep_.my_ping_ok_ = false;
  // A crashed member's promotion/arbitration state died with it.
  ep_.awaiting_leader_ = false;
  ep_.ballot_.reset();
  ep_.promote_timer_.cancel();
  ep_.stonith_pending_.clear();
  ep_.have_granted_ = false;
  for (auto& p : ep_.peers_) ep_.reset_peer(p);
  applied_ = false;
  rx_active_ = false;
  rx_app_.clear();
  rx_app_len_ = 0;
  rx_conns_.clear();

  // Replica mode must be on BEFORE the first tapped client frame arrives —
  // a non-replica stack answers segments of the live (unknown to it)
  // connection with a RST straight at the client.
  ep_.install_replica_seams();

  ep_.hb_timer_.start(ep_.cfg_.hb_period, [&ep = ep_] {
    ep.send_heartbeat();
    ep.detector_tick();
  });
  ep_.world_.trace().record(ep_.host_.name(), "rejoin_start");
  ep_.log_.info("rejoining as backup (epoch ", epoch_, ")");
  ep_.send_heartbeat(/*include_serial=*/false);
}

void Reintegrator::on_control(net::BytesView payload) {
  try {
    net::ByteReader r(payload);
    switch (static_cast<ControlType>(r.u8())) {
      case ControlType::kSnapshotBegin: on_snapshot_begin(r); break;
      case ControlType::kSnapshotConn: on_snapshot_conn(r); break;
      case ControlType::kSnapshotData: on_snapshot_data(r); break;
      case ControlType::kSnapshotEnd: on_snapshot_end(r); break;
      case ControlType::kRejoinCommit: on_commit(r); break;
      default: break;
    }
  } catch (const std::exception&) {
    // Truncated/garbled datagram: drop it; the survivor's retry timer will
    // resend the whole snapshot under the same epoch.
  }
}

void Reintegrator::on_snapshot_begin(net::ByteReader& r) {
  if (ep_.mode_ != StTcpEndpoint::Mode::kRejoining || applied_) return;
  const std::uint32_t e = r.u32();
  if (e != epoch_) return;  // a stale snapshot from a previous life
  rx_active_ = true;
  rx_epoch_ = e;
  rx_expected_conns_ = r.u16();
  // The checkpoint itself follows as kKindApp data chunks: a UDP datagram's
  // length field is 16-bit, so a large checkpoint cannot travel inline here.
  rx_app_len_ = r.u32();
  rx_app_.clear();
  rx_conns_.clear();  // a re-sent snapshot restarts accumulation
}

void Reintegrator::on_snapshot_conn(net::ByteReader& r) {
  if (!rx_active_ || applied_) return;
  const std::uint32_t e = r.u32();
  if (e != rx_epoch_) return;
  const std::uint16_t id = r.u16();
  SnapConn sc;
  const net::Ipv4Addr client_ip(r.u32());
  const std::uint16_t client_port = r.u16();
  const std::uint16_t local_port = r.u16();
  sc.tuple.local = net::SocketAddr{ep_.cfg_.service_ip, local_port};
  sc.tuple.remote = net::SocketAddr{client_ip, client_port};
  sc.iss = r.u32();
  sc.irs = r.u32();
  sc.peer_fin = r.u8() != 0;
  sc.peer_fin_offset = r.u64();
  sc.received = r.u64();
  sc.acked = r.u64();
  sc.written = r.u64();
  sc.read = r.u64();
  sc.tx_len = r.u32();
  sc.rx_len = r.u32();
  sc.tx.reserve(sc.tx_len);
  sc.rx.reserve(sc.rx_len);
  rx_conns_[id] = std::move(sc);
}

void Reintegrator::on_snapshot_data(net::ByteReader& r) {
  if (!rx_active_ || applied_) return;
  const std::uint32_t e = r.u32();
  if (e != rx_epoch_) return;
  const std::uint16_t id = r.u16();
  const std::uint8_t kind = r.u8();
  const std::uint64_t off = r.u64();
  const std::uint32_t len = r.u32();
  const net::BytesView data = r.bytes(len);
  if (kind == kKindApp) {
    if (off == rx_app_.size()) rx_app_.insert(rx_app_.end(), data.begin(), data.end());
    return;
  }
  auto it = rx_conns_.find(id);
  if (it == rx_conns_.end()) return;
  SnapConn& sc = it->second;
  net::Bytes& buf = kind == kKindTx ? sc.tx : sc.rx;
  const std::uint64_t base = kind == kKindTx ? sc.acked : sc.read;
  // Chunks arrive in order on the FIFO link; anything else (a drop upstream)
  // leaves the buffer short and SnapshotEnd will reject the attempt.
  if (off != base + buf.size()) return;
  buf.insert(buf.end(), data.begin(), data.end());
}

void Reintegrator::on_snapshot_end(net::ByteReader& r) {
  if (!rx_active_ || applied_) return;
  const std::uint32_t e = r.u32();
  if (e != rx_epoch_) return;
  const std::uint16_t count = r.u16();
  if (count != rx_expected_conns_ || rx_conns_.size() != count) return;
  if (rx_app_.size() != rx_app_len_) return;  // checkpoint chunk lost upstream
  for (const auto& [id, sc] : rx_conns_) {
    if (sc.tx.size() != sc.tx_len || sc.rx.size() != sc.rx_len) return;
  }
  apply_snapshot();
}

void Reintegrator::apply_snapshot() {
  // Atomic from the application's point of view: checkpoint staged first,
  // then every replica adopted (adoption calls into the app synchronously).
  if (ep_.checkpoint_restorer_) ep_.checkpoint_restorer_(rx_app_);
  std::size_t adopted = 0;
  for (auto& [id, sc] : rx_conns_) {
    // Opened during our rejoin window and already adopted via ISN inference
    // (the whole handshake was tapped): that replica is complete, keep it.
    if (ep_.id_by_tuple_.count(sc.tuple) != 0) continue;
    if (id < 0x8000) {
      ep_.next_id_ = std::max<std::uint16_t>(
          ep_.next_id_, static_cast<std::uint16_t>(id + 1));
    } else {
      ep_.next_inferred_id_ = std::max<std::uint16_t>(
          ep_.next_inferred_id_, static_cast<std::uint16_t>(id + 1));
    }
    StTcpEndpoint::ReplConn& rc = ep_.track_conn(id, sc.tuple);
    rc.announce_confirmed = true;
    // The survivor's counters at capture: its records resume from them.
    for (StTcpEndpoint::ReplConn::PeerProgress& g : rc.gp) {
      g.received = sc.received;
      g.acked = sc.acked;
      g.written = sc.written;
      g.read = sc.read;
    }

    tcp::TcpConnection::ReplicaInit init;
    init.iss = sc.iss;
    init.irs = sc.irs;
    init.established = true;
    init.midstream = true;
    init.acked = sc.acked;
    init.read = sc.read;
    init.tx_data = std::move(sc.tx);
    init.rx_data = std::move(sc.rx);
    init.peer_fin = sc.peer_fin;
    init.peer_fin_offset = sc.peer_fin_offset;
    rc.conn = &ep_.stack_.create_replica(sc.tuple, std::move(init));
    ++ep_.stats_.replicas_created;
    ++ep_.stats_.snapshot_conns_adopted;
    ++adopted;
    ep_.world_.trace().record(ep_.host_.name(), "replica_adopted",
                              sc.tuple.str(), id);
  }
  rx_conns_.clear();
  rx_app_.clear();
  rx_active_ = false;
  applied_ = true;
  ep_.world_.trace().record(ep_.host_.name(), "snapshot_applied", "",
                            static_cast<std::int64_t>(adopted));
  ep_.log_.info("snapshot applied: ", adopted, " connection(s) adopted");
  // Signal readiness now rather than waiting out the heartbeat period.
  ep_.send_heartbeat(/*include_serial=*/false);
}

void Reintegrator::on_commit(net::ByteReader& r) {
  const std::uint32_t e = r.u32();
  if (ep_.mode_ != StTcpEndpoint::Mode::kRejoining || !applied_ || e != epoch_) {
    return;
  }
  ep_.mode_ = StTcpEndpoint::Mode::kReplicating;
  ep_.sync_decision_log();
  ++ep_.stats_.rejoins;
  // Replication resumes: every peer's liveness window starts now.
  for (auto& p : ep_.peers_) {
    p.last_rx_ip = ep_.world_.now();
    p.last_rx_serial = ep_.world_.now();
  }
  if (ep_.timeline_ != nullptr) {
    ep_.timeline_->mark(obs::Milestone::kReintegrationComplete, ep_.world_.now());
  }
  ep_.world_.trace().record(ep_.host_.name(), "rejoin_complete");
  ep_.log_.info("rejoin complete (epoch ", e, "): replicating as backup");
}

// ---------------------------------------------------------------------------
// Survivor side
// ---------------------------------------------------------------------------

void Reintegrator::on_rejoin_request(std::uint32_t epoch, int member) {
  using Mode = StTcpEndpoint::Mode;
  const Mode m = ep_.mode_;
  if (m == Mode::kRejoining || m == Mode::kDead) return;
  if (have_committed_ && epoch == committed_epoch_) return;  // stale retry
  if (m == Mode::kReintegrating && epoch == epoch_) return;  // in progress
  if (m == Mode::kReintegrating && member != rejoin_member_) {
    return;  // one rejoiner at a time; the other keeps soliciting
  }
  if (m == Mode::kReplicating && ep_.role_ != Role::kPrimary) {
    // A replicating backup cannot serve a snapshot — its connections are
    // suppressed replicas. The detector will promote us first (the
    // requesting peer is by definition not heartbeating normally).
    return;
  }
  epoch_ = epoch;
  attempts_ = 0;
  rejoin_member_ = member;
  begin_reintegration();
}

void Reintegrator::begin_reintegration() {
  using Mode = StTcpEndpoint::Mode;
  if (ep_.mode_ != Mode::kReintegrating) {
    // A group leader still replicating to live backups keeps all of its
    // per-member state: its holds, lag history and seams protect the OTHER
    // members. Only the pair-survivor / last-man-standing path re-arms from
    // scratch below.
    const bool live_group_leader = ep_.group_mode() &&
                                   ep_.mode_ == Mode::kReplicating &&
                                   ep_.view_.order.size() > 1;
    ep_.mode_ = Mode::kReintegrating;
    ep_.role_ = Role::kPrimary;  // the survivor serves; the rejoiner taps
    if (live_group_leader) {
      if (ep_.timeline_ != nullptr) {
        ep_.timeline_->mark(obs::Milestone::kReintegrationStart,
                            ep_.world_.now());
      }
      ep_.world_.trace().record(ep_.host_.name(), "reintegration_start");
      ep_.log_.info("reintegration started (epoch ", epoch_,
                    "), still replicating to live backups");
      capture_and_send_snapshot();
      arm_retry();
      return;
    }

    // The rejoiner is outside the view (unwatched) until its commit, with
    // fresh liveness and arbitration state: its heartbeats start the clock
    // over.
    const auto member = static_cast<std::uint8_t>(rejoin_member_);
    ep_.view_.remove(member);
    StTcpEndpoint::Peer* peer = ep_.peer_by_member(member);
    if (peer != nullptr) ep_.reset_peer(*peer);
    ep_.ping_loop_active_ = false;
    ep_.my_ping_valid_ = false;
    ep_.ping_timer_.cancel();

    // A former backup's table mixes the dead primary's ids with inferred
    // ids; new registrations must collide with neither range.
    for (const auto& [id, rc] : ep_.conns_) {
      if (id < 0x8000) {
        ep_.next_id_ = std::max<std::uint16_t>(
            ep_.next_id_, static_cast<std::uint16_t>(id + 1));
      } else {
        ep_.next_inferred_id_ = std::max<std::uint16_t>(
            ep_.next_inferred_id_, static_cast<std::uint16_t>(id + 1));
      }
    }

    // Sweep in connections accepted while we ran unprotected (on_accepted
    // ignores them outside replication).
    std::vector<tcp::TcpConnection*> fresh;
    ep_.stack_.for_each([&](tcp::TcpConnection& c) {
      if (c.tuple().local.ip != ep_.cfg_.service_ip ||
          c.tuple().local.port != ep_.cfg_.service_port) {
        return;
      }
      if (!c.is_open()) return;
      if (ep_.id_by_tuple_.count(c.tuple()) != 0) return;
      fresh.push_back(&c);
    });
    for (tcp::TcpConnection* c : fresh) ep_.register_primary_conn(*c);

    // (Re-)arm taps, close gates and hold buffers on every live connection:
    // a former backup never had them, and go_non_ft tore them down.
    for (auto& [id, rc] : ep_.conns_) {
      rc->hold.clear();
      if (peer != nullptr) {
        StTcpEndpoint::ReplConn::PeerProgress& m = ep_.progress_of(*rc, *peer);
        m.reset_lag();
        m.valid = false;
      }
      if (rc->conn != nullptr) ep_.install_primary_seams(*rc->conn, id);
    }
    ep_.recompute_hold_total();

    ep_.hb_timer_.start(ep_.cfg_.hb_period, [&ep = ep_] {
      ep.send_heartbeat();
      ep.detector_tick();
    });
    if (ep_.timeline_ != nullptr) {
      ep_.timeline_->mark(obs::Milestone::kReintegrationStart, ep_.world_.now());
    }
    ep_.world_.trace().record(ep_.host_.name(), "reintegration_start");
    ep_.log_.info("reintegration started (epoch ", epoch_, ")");
  }
  capture_and_send_snapshot();
  arm_retry();
}

void Reintegrator::capture_and_send_snapshot() {
  ++attempts_;
  // Retention must be on BEFORE the checkpoint is cut: every decision made
  // after the serialize point must reach the rejoiner via heartbeats (its
  // restored cursor starts exactly there).
  ep_.sync_decision_log();
  const net::Bytes app =
      ep_.checkpoint_provider_ ? ep_.checkpoint_provider_() : net::Bytes{};

  // Capture everything in one pass: identity, sequence basis, counters, and
  // the unacked/unread byte tails. Connections already closing (local FIN or
  // RST generated) are not re-protected — they are about to disappear.
  struct Item {
    StTcpEndpoint::ReplConn* rc;
    std::uint32_t iss, irs;
    bool peer_fin;
    std::uint64_t peer_fin_offset;
    std::uint64_t received, acked, written, read;
    net::Bytes tx, rx;
  };
  std::vector<Item> items;
  const StTcpEndpoint::Peer& rejoiner =
      *ep_.peer_by_member(static_cast<std::uint8_t>(rejoin_member_));
  for (auto& [id, rc] : ep_.conns_) {
    // The snapshot IS the announcement: suppress heartbeat announces for
    // everything present at capture time (including skipped dying
    // connections — the rejoiner must not cold-start replicas for them).
    rc->announce_confirmed = true;
    StTcpEndpoint::ReplConn::PeerProgress& m = ep_.progress_of(*rc, rejoiner);
    m.echoed = true;
    tcp::TcpConnection* c = rc->conn;
    if (c == nullptr || !c->is_open() || c->fin_generated() ||
        c->rst_generated()) {
      continue;
    }
    Item it;
    it.rc = rc.get();
    it.iss = c->iss();
    it.irs = c->irs();
    const auto fin = c->peer_fin_payload_offset();
    it.peer_fin = fin.has_value();
    it.peer_fin_offset = fin.value_or(0);
    it.received = c->bytes_received();
    it.acked = c->bytes_acked_by_peer();
    it.written = c->app_bytes_written();
    it.read = c->app_bytes_read();
    it.tx = c->unacked_send_data();
    it.rx = c->unread_recv_data();
    // Baseline the rejoiner's mirror: its heartbeat records resume from
    // exactly these values.
    m.valid = true;
    m.received = it.received;
    m.acked = it.acked;
    m.written = it.written;
    m.read = it.read;
    items.push_back(std::move(it));
  }

  {
    net::Bytes out;
    net::ByteWriter w(out);
    w.u8(static_cast<std::uint8_t>(ControlType::kSnapshotBegin));
    w.u32(epoch_);
    w.u16(static_cast<std::uint16_t>(items.size()));
    w.u32(static_cast<std::uint32_t>(app.size()));
    send_control(out);
  }
  // The app checkpoint travels chunked like connection data (id unused).
  for (std::size_t off = 0; off < app.size();) {
    const std::size_t n = std::min(app.size() - off, ep_.cfg_.recovery_chunk);
    net::Bytes msg;
    net::ByteWriter w(msg);
    w.u8(static_cast<std::uint8_t>(ControlType::kSnapshotData));
    w.u32(epoch_);
    w.u16(0);
    w.u8(kKindApp);
    w.u64(off);
    w.u32(static_cast<std::uint32_t>(n));
    w.bytes(net::BytesView(app).subspan(off, n));
    send_control(msg);
    off += n;
  }
  for (const Item& it : items) {
    {
      net::Bytes out;
      net::ByteWriter w(out);
      w.u8(static_cast<std::uint8_t>(ControlType::kSnapshotConn));
      w.u32(epoch_);
      w.u16(it.rc->id);
      w.u32(it.rc->tuple.remote.ip.value());
      w.u16(it.rc->tuple.remote.port);
      w.u16(it.rc->tuple.local.port);
      w.u32(it.iss);
      w.u32(it.irs);
      w.u8(it.peer_fin ? 1 : 0);
      w.u64(it.peer_fin_offset);
      w.u64(it.received);
      w.u64(it.acked);
      w.u64(it.written);
      w.u64(it.read);
      w.u32(static_cast<std::uint32_t>(it.tx.size()));
      w.u32(static_cast<std::uint32_t>(it.rx.size()));
      send_control(out);
    }
    ++ep_.stats_.snapshot_conns_sent;
    const auto send_chunks = [this, &it](std::uint8_t kind,
                                         const net::Bytes& data,
                                         std::uint64_t base) {
      std::size_t off = 0;
      while (off < data.size()) {
        const std::size_t n =
            std::min(data.size() - off, ep_.cfg_.recovery_chunk);
        net::Bytes msg;
        net::ByteWriter w(msg);
        w.u8(static_cast<std::uint8_t>(ControlType::kSnapshotData));
        w.u32(epoch_);
        w.u16(it.rc->id);
        w.u8(kind);
        w.u64(base + off);
        w.u32(static_cast<std::uint32_t>(n));
        w.bytes(net::BytesView(data).subspan(off, n));
        send_control(msg);
        off += n;
      }
    };
    send_chunks(kKindTx, it.tx, it.acked);
    send_chunks(kKindRx, it.rx, it.read);
  }
  {
    net::Bytes out;
    net::ByteWriter w(out);
    w.u8(static_cast<std::uint8_t>(ControlType::kSnapshotEnd));
    w.u32(epoch_);
    w.u16(static_cast<std::uint16_t>(items.size()));
    send_control(out);
  }
  ep_.world_.trace().record(ep_.host_.name(), "snapshot_sent", "",
                            static_cast<std::int64_t>(items.size()));
}

void Reintegrator::arm_retry() {
  retry_timer_.arm(ep_.cfg_.reintegration_retry, [this] {
    if (ep_.mode_ != StTcpEndpoint::Mode::kReintegrating) return;
    if (attempts_ >= ep_.cfg_.reintegration_max_attempts) {
      abandon();
      return;
    }
    capture_and_send_snapshot();
    arm_retry();
  });
}

void Reintegrator::abandon() {
  ep_.world_.trace().record(ep_.host_.name(), "reintegration_abandoned");
  rejoin_member_ = -1;
  if (ep_.view_.order.size() > 1) {
    // Other backups still replicate from us: drop back to group leadership
    // instead of running unprotected. A fresh rejoin_request restarts.
    ep_.log_.warn("reintegration abandoned after ", attempts_,
                  " snapshot attempts; still replicating to live backups");
    ep_.mode_ = StTcpEndpoint::Mode::kReplicating;
    return;
  }
  ep_.log_.warn("reintegration abandoned after ", attempts_,
                " snapshot attempts; continuing unprotected");
  ep_.mode_ = StTcpEndpoint::Mode::kTakenOver;
  ep_.sync_decision_log();
  ep_.hb_timer_.stop();
  for (auto& [id, rc] : ep_.conns_) rc->hold.clear();
  ep_.recompute_hold_total();
  // A fresh rejoin_request starts the whole protocol over.
}

void Reintegrator::on_rejoin_ready(std::uint32_t epoch, int member) {
  using Mode = StTcpEndpoint::Mode;
  if (member != rejoin_member_) return;
  if (ep_.mode_ == Mode::kReintegrating && epoch == epoch_) {
    retry_timer_.cancel();
    ep_.mode_ = Mode::kReplicating;
    ep_.sync_decision_log();
    committed_epoch_ = epoch;
    have_committed_ = true;
    ++ep_.stats_.reintegrations;
    // The rejoiner may still be a few tapped segments behind: restart its
    // lag history so the catch-up is not mistaken for an application failure.
    const auto m = static_cast<std::uint8_t>(member);
    if (const StTcpEndpoint::Peer* p = ep_.peer_by_member(m)) {
      for (auto& [id, rc] : ep_.conns_) ep_.progress_of(*rc, *p).reset_lag();
    }
    if (ep_.timeline_ != nullptr) {
      ep_.timeline_->mark(obs::Milestone::kReintegrationComplete,
                          ep_.world_.now());
    }
    ep_.world_.trace().record(ep_.host_.name(), "reintegration_complete");
    ep_.log_.info("reintegration complete (epoch ", epoch, "): FT restored");
    send_commit(epoch);
    // Readmit the rejoiner at the lowest rank: it is watched again. A group
    // also bumps the epoch and announces the widened view to every member
    // (a pair's view never goes on the wire).
    ep_.view_.append_lowest(m);
    if (ep_.group_mode()) ep_.group_commit_rejoin(m);
    return;
  }
  if (have_committed_ && epoch == committed_epoch_) {
    send_commit(epoch);  // the commit datagram was lost; repeat it
  }
}

void Reintegrator::send_commit(std::uint32_t epoch) {
  net::Bytes out;
  net::ByteWriter w(out);
  w.u8(static_cast<std::uint8_t>(ControlType::kRejoinCommit));
  w.u32(epoch);
  send_control(out);
}

}  // namespace sttcp::sttcp
