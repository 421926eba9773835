#include "tcp/stack.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace sttcp::tcp {

TcpStack::TcpStack(net::Host& host, TcpConfig config)
    : host_(host),
      cfg_(config),
      log_(host.logger().child("tcp")),
      isn_rng_(host.world().rng().fork()) {
  host_.set_l4_handler(net::kIpProtoTcp,
                       [this](const net::Ipv4Header& ip, net::BytesView l4,
                              const net::Frame& frame) { on_packet(ip, l4, frame); });
  host_.add_boot_hook([this] { reset_for_boot(); });
}

void TcpStack::reset_for_boot() {
  conns_.clear();
  pending_.clear();
  replica_mode_ = false;
}

TcpStack::~TcpStack() = default;

void TcpStack::listen(std::uint16_t port, AcceptHandler handler) {
  listeners_[port] = std::move(handler);
}

TcpConnection& TcpStack::connect(net::Ipv4Addr local_ip, net::SocketAddr remote,
                                 TcpConnection::Callbacks callbacks) {
  FourTuple t;
  t.remote = remote;
  // Allocate an ephemeral port within [49152, 65535], wrapping and skipping
  // tuples still in use — long churn runs cycle the range many times, and a
  // port can linger in TIME_WAIT from an earlier connection to the same
  // server. The guard bound equals the range size: with 16,384 live
  // connections to one remote address there is no port left.
  bool found = false;
  for (int guard = 0; guard < 16384 && !found; ++guard) {
    t.local = net::SocketAddr{local_ip, next_ephemeral_};
    next_ephemeral_ =
        next_ephemeral_ == 65535 ? 49152 : static_cast<std::uint16_t>(next_ephemeral_ + 1);
    found = !conns_.contains(t);
  }
  if (!found) {
    throw std::runtime_error("TcpStack::connect: no free ephemeral port to " +
                             remote.str());
  }
  TcpConnection& conn = create_connection(t);
  conn.set_callbacks(std::move(callbacks));
  ++stats_.connections_initiated;
  conn.start_connect();
  return conn;
}

TcpConnection& TcpStack::create_replica(const FourTuple& tuple,
                                        TcpConnection::ReplicaInit init) {
  if (TcpConnection* existing = find(tuple)) return *existing;
  TcpConnection& conn = create_connection(tuple);
  ++stats_.replicas_created;
  // The listener's accept handler attaches the (replica) application when
  // the connection establishes — identically to the primary.
  TcpConnection::Callbacks cb;
  cb.on_established = [this, &conn] { dispatch_accept(conn); };
  conn.set_callbacks(std::move(cb));
  conn.start_replica(init);
  // Replay anything tapped before the announcement arrived.
  auto it = pending_.find(tuple);
  if (it != pending_.end()) {
    std::vector<PendingSegment> segs = std::move(it->second.segments);
    pending_.erase(it);
    for (const PendingSegment& p : segs) {
      if (!conn.is_open()) break;
      conn.on_segment(p.seg);
    }
  }
  return conn;
}

TcpConnection* TcpStack::find(const FourTuple& tuple) {
  auto it = conns_.find(tuple);
  return it == conns_.end() ? nullptr : it->second.get();
}

void TcpStack::for_each(const std::function<void(TcpConnection&)>& fn) {
  // The demux table is unordered; visit in 4-tuple order so callers (the
  // reintegration snapshot sweep in particular) see a deterministic sequence.
  std::vector<TcpConnection*> ordered;
  ordered.reserve(conns_.size());
  for (auto& [t, c] : conns_) ordered.push_back(c.get());
  std::sort(ordered.begin(), ordered.end(),
            [](const TcpConnection* a, const TcpConnection* b) {
              return a->tuple() < b->tuple();
            });
  for (TcpConnection* c : ordered) fn(*c);
}

void TcpStack::set_replica_mode(bool on) {
  replica_mode_ = on;
  if (!on) {
    // Segments buffered for tuples that were never announced are useless
    // after takeover: no replica exists to replay them into, and the client
    // retransmits its SYN anyway, reaching the listener directly.
    pending_.clear();
  }
}

std::size_t TcpStack::memory_bytes() const {
  std::size_t total = 0;
  for (const auto& [t, c] : conns_) total += c->memory_bytes();
  for (const auto& [t, p] : pending_) {
    for (const PendingSegment& b : p.segments) total += sizeof(PendingSegment) + b.frame.size();
  }
  return total;
}

bool TcpStack::emit(const FourTuple& tuple, const TcpSegment& seg,
                    std::pair<net::BytesView, net::BytesView> payload) {
  if (!alive()) return false;
  net::Frame frame = net::Frame::allocate(net::kIpFrameHeaderSize + TcpSegment::kHeaderSize +
                                          payload.first.size() + payload.second.size());
  // The header room in front is filled in by the host.
  seg.write(frame.writable().subspan(net::kIpFrameHeaderSize), tuple.local.ip,
            tuple.remote.ip, payload);
  return host_.send_ip_frame(tuple.local.ip, tuple.remote.ip, net::kIpProtoTcp,
                             std::move(frame));
}

void TcpStack::on_connection_finished(TcpConnection& conn, CloseReason reason) {
  if (observer_ != nullptr) observer_->on_finished(conn, reason);
  schedule_gc(conn.tuple());
}

void TcpStack::on_packet(const net::Ipv4Header& ip, net::BytesView l4,
                         const net::Frame& frame) {
  if (!alive()) return;
  ++stats_.segments_in;
  auto seg = TcpSegment::parse(ip.src, ip.dst, l4, cfg_.verify_checksums);
  if (!seg.has_value()) {
    ++stats_.bad_checksum;
    world().trace().record(host_.name(), "checksum_drop", ip.src.str(),
                           static_cast<std::int64_t>(l4.size()));
    log_.warn("dropping malformed/corrupt TCP segment from ", ip.src.str());
    return;
  }
  FourTuple t;
  t.local = net::SocketAddr{ip.dst, seg->dst_port};
  t.remote = net::SocketAddr{ip.src, seg->src_port};

  if (TcpConnection* conn = find(t)) {
    ++stats_.segments_demuxed;
    conn->on_segment(*seg);
    return;
  }

  if (replica_mode_) {
    // Hold segments until ST-TCP announces the connection (ISS/IRS).
    Pending& p = pending_[t];
    if (p.segments.size() < kMaxBufferedSegments) {
      p.segments.push_back({*seg, frame});
      ++stats_.segments_buffered;
    }
    if (seg->flags.syn && !seg->flags.ack) {
      p.syn_time = world().now();
      if (inference_ && accept_isn_fn_) {
        // Deterministic accept ISN: the primary's ISS is a pure function of
        // the tuple, so the replica can be seeded from the SYN alone and
        // complete the handshake passively — even if the primary dies before
        // either its SYN-ACK or its announce leaves the machine.
        inference_(t, accept_isn_fn_(t), seg->seq, /*established=*/false);
      }
    } else if (inference_ && seg->flags.ack && !seg->flags.rst &&
               seg->payload.empty()) {
      // ISN inference: the first pure ACK tapped hard on the heels of the
      // client's SYN is its handshake ACK, so ack-1 is the primary's ISS.
      // The time window guards against mistaking a later data ACK (which
      // would infer a corrupting ISS) for the handshake ACK.
      // The SYN time is spent either way: an expired window never infers.
      const std::optional<sim::SimTime> syn_time = std::exchange(p.syn_time, std::nullopt);
      if (syn_time && world().now() - *syn_time <= cfg_.replica_isn_inference_window) {
        SeqWire irs = 0;
        for (const PendingSegment& b : p.segments) {
          if (b.seg.flags.syn) {
            irs = b.seg.seq;
            break;
          }
        }
        inference_(t, seg->ack - 1, irs, /*established=*/true);
      }
    }
    return;
  }

  if (seg->flags.syn && !seg->flags.ack) {
    auto l = listeners_.find(seg->dst_port);
    if (l != listeners_.end() && host_.has_ip(ip.dst)) {
      TcpConnection& conn = create_connection(t);
      ++stats_.connections_accepted;
      TcpConnection::Callbacks cb;
      cb.on_established = [this, &conn] { dispatch_accept(conn); };
      conn.set_callbacks(std::move(cb));
      conn.start_accept(seg->seq);
      return;
    }
  }
  send_rst_for(ip, *seg);
}

TcpConnection& TcpStack::create_connection(const FourTuple& tuple) {
  auto [it, inserted] = conns_.try_emplace(tuple);
  if (!inserted) {
    throw std::logic_error("TcpStack: connection " + tuple.local.str() + " <-> " +
                           tuple.remote.str() + " already exists");
  }
  it->second = std::make_unique<TcpConnection>(*this, tuple, cfg_,
                                               log_.child(tuple.remote.str()));
  return *it->second;
}

void TcpStack::dispatch_accept(TcpConnection& conn) {
  auto l = listeners_.find(conn.tuple().local.port);
  if (l != listeners_.end() && l->second) {
    l->second(conn);  // application installs its callbacks here
  }
  if (observer_ != nullptr) observer_->on_accepted(conn);
}

void TcpStack::send_rst_for(const net::Ipv4Header& ip, const TcpSegment& seg) {
  if (seg.flags.rst) return;  // never RST a RST
  log_.debug("RST for unknown segment ", seg.str(), " from ", ip.src.str(), ":",
             seg.src_port, " to port ", seg.dst_port);
  TcpSegment rst;
  rst.src_port = seg.dst_port;
  rst.dst_port = seg.src_port;
  rst.flags.rst = true;
  if (seg.flags.ack) {
    rst.seq = seg.ack;
  } else {
    rst.seq = 0;
    rst.flags.ack = true;
    rst.ack = seg.seq + seg.seq_len();
  }
  ++stats_.rst_sent;
  emit(FourTuple{{ip.dst, seg.dst_port}, {ip.src, seg.src_port}}, rst, {});
}

void TcpStack::schedule_gc(const FourTuple& tuple) {
  // Defer destruction: finish() may be deep inside the connection's own
  // call stack.
  domain().schedule_after(sim::Duration::zero(), [this, tuple] {
    auto it = conns_.find(tuple);
    if (it != conns_.end() && it->second->state() == TcpState::kClosed) conns_.erase(it);
  });
}

}  // namespace sttcp::tcp
