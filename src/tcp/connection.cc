#include "tcp/connection.h"

#include <algorithm>

#include "tcp/stack.h"

namespace sttcp::tcp {

const char* to_string(TcpState s) {
  switch (s) {
    case TcpState::kClosed: return "CLOSED";
    case TcpState::kSynSent: return "SYN_SENT";
    case TcpState::kSynRcvd: return "SYN_RCVD";
    case TcpState::kEstablished: return "ESTABLISHED";
    case TcpState::kFinWait1: return "FIN_WAIT_1";
    case TcpState::kFinWait2: return "FIN_WAIT_2";
    case TcpState::kCloseWait: return "CLOSE_WAIT";
    case TcpState::kClosing: return "CLOSING";
    case TcpState::kLastAck: return "LAST_ACK";
    case TcpState::kTimeWait: return "TIME_WAIT";
  }
  return "?";
}

const char* to_string(CloseReason r) {
  switch (r) {
    case CloseReason::kGraceful: return "graceful";
    case CloseReason::kReset: return "reset";
    case CloseReason::kTimeout: return "timeout";
    case CloseReason::kAborted: return "aborted";
  }
  return "?";
}

TcpConnection::TcpConnection(TcpStack& stack, FourTuple tuple, const TcpConfig& cfg,
                             sim::Logger log)
    : stack_(stack),
      tuple_(tuple),
      cfg_(cfg),
      log_(std::move(log)),
      send_buf_(cfg.send_buffer),
      reasm_(cfg.recv_buffer),
      rto_(cfg),
      cc_(cfg),
      retrans_timer_(stack.domain()),
      persist_timer_(stack.domain()),
      time_wait_timer_(stack.domain()),
      writable_notify_timer_(stack.domain()),
      keepalive_timer_(stack.domain()),
      ack_flush_timer_(stack.domain()) {
  reasm_.set_deliver_tap([this](std::uint64_t off, net::BytesView data) {
    if (rx_tap_) rx_tap_(off, data);
  });
  if (obs::MetricsRegistry* m = stack.world().metrics()) {
    const std::string prefix = "tcp." + stack.host().name();
    m_retransmissions_ = &m->counter(prefix + ".retransmissions");
    m_rto_expiries_ = &m->counter(prefix + ".rto_expiries");
    m_fast_retransmissions_ = &m->counter(prefix + ".fast_retransmissions");
    m_srtt_us_ = &m->histogram(prefix + ".srtt_us");
    m_cwnd_bytes_ = &m->histogram(prefix + ".cwnd_bytes");
  }
}

void TcpConnection::record_cwnd() {
  const std::uint64_t w = cc_.cwnd();
  // cwnd() reports "infinite" when congestion control is disabled.
  if (m_cwnd_bytes_ != nullptr && w != ~std::uint64_t{0}) m_cwnd_bytes_->record(w);
}

TcpConnection::~TcpConnection() = default;

// ---------------------------------------------------------------------------
// Application API
// ---------------------------------------------------------------------------

std::size_t TcpConnection::send(net::BytesView data) {
  if (app_closed_) return 0;
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait) return 0;
  const std::size_t n = send_buf_.append(data);
  app_written_ += n;
  transmit_pending();
  return n;
}

void TcpConnection::on_consumed(std::size_t n, std::size_t window_before) {
  app_read_ += n;
  // Window update: if the advertised window was effectively closed and the
  // read reopened it, tell the sender so it does not sit in persist.
  if (window_before < cfg_.mss && reasm_.window() >= cfg_.mss && is_open() &&
      state_ != TcpState::kSynSent && state_ != TcpState::kSynRcvd) {
    emit_ack();
  }
}

std::size_t TcpConnection::send_space() const {
  if (app_closed_) return 0;
  return send_buf_.free_space();
}

void TcpConnection::close() {
  if (app_closed_ || state_ == TcpState::kClosed) return;
  if (state_ == TcpState::kSynSent || state_ == TcpState::kSynRcvd) {
    finish(CloseReason::kAborted);
    return;
  }
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait) return;
  app_closed_ = true;
  fin_generated_ = true;  // TCP will produce a FIN: heartbeat notice
  log_.debug("close(): FIN generated");
  transmit_pending();
}

void TcpConnection::abort() {
  if (state_ == TcpState::kClosed) return;
  app_closed_ = true;
  rst_pending_ = true;
  rst_generated_ = true;
  log_.debug("abort(): RST generated");
  transmit_pending();
}

void TcpConnection::release_fin() {
  fin_released_ = true;
  transmit_pending();
}

// ---------------------------------------------------------------------------
// Opens
// ---------------------------------------------------------------------------

void TcpConnection::start_connect() {
  iss_ = stack_.choose_isn();
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  state_ = TcpState::kSynSent;
  emit_control(TcpFlags{.syn = true}, wire(iss_));
  arm_retransmit();
}

void TcpConnection::start_accept(SeqWire client_isn) {
  irs_ = client_isn;
  rcv_nxt_ = irs_ + 1;
  iss_ = stack_.choose_accept_isn(tuple_);
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  state_ = TcpState::kSynRcvd;
  emit_control(TcpFlags{.syn = true, .ack = true}, wire(iss_));
  arm_retransmit();
}

void TcpConnection::start_replica(const ReplicaInit& init) {
  replica_ = true;
  suppressed_ = true;
  iss_ = init.iss;
  irs_ = init.irs;
  if (init.midstream) {
    // Warm start from a survivor's snapshot (reintegration). The sequence
    // pointers resume exactly where the survivor's connection stands: the
    // unacked tail refills the send buffer (a later takeover retransmits it
    // from here), the unread tail refills the receive queue (application
    // reads stay byte-exact), and everything below those tails is treated as
    // already delivered. All of this must be in place before on_established
    // fires — the adopting application may write immediately.
    state_ = TcpState::kEstablished;
    payload_acked_ = init.acked;
    send_buf_.reset_to(init.acked);
    send_buf_.append(init.tx_data);
    app_written_ = send_buf_.end_offset();
    snd_una_ = iss_ + 1 + init.acked;
    snd_nxt_ = iss_ + 1 + send_buf_.end_offset();
    highest_sent_ = snd_nxt_;
    snd_wnd_ = 65535;  // refreshed by the first tapped client ACK
    reasm_.reset_to(init.read);
    app_read_ = init.read;
    if (!init.rx_data.empty()) reasm_.insert(init.read, init.rx_data);
    rcv_nxt_ = irs_ + 1 + reasm_.next_expected();
    if (init.peer_fin && !peer_fin_offset_.has_value()) {
      peer_fin_offset_ = init.peer_fin_offset;
      maybe_consume_peer_fin();
    }
    last_rx_at_ = stack_.world().now();
    arm_keepalive();
    log_.debug("replica adopted mid-stream at acked=", init.acked,
               " written=", app_written_, " read=", init.read,
               " received=", reasm_.next_expected());
    if (cb_.on_established) cb_.on_established();
    return;
  }
  rcv_nxt_ = irs_ + 1;
  snd_nxt_ = iss_ + 1;
  if (init.established) {
    snd_una_ = iss_ + 1;
    state_ = TcpState::kEstablished;
    last_rx_at_ = stack_.world().now();
    arm_keepalive();
    if (cb_.on_established) cb_.on_established();
  } else {
    // Seeded from a tapped client SYN: the client's handshake ACK will
    // complete establishment, exactly as it does on the primary. No SYN-ACK
    // is emitted (output is suppressed regardless).
    snd_una_ = iss_;
    state_ = TcpState::kSynRcvd;
    arm_retransmit();
  }
}

// ---------------------------------------------------------------------------
// Output engine
// ---------------------------------------------------------------------------

std::uint16_t TcpConnection::advertised_window() const {
  return static_cast<std::uint16_t>(std::min<std::size_t>(reasm_.window(), 65535));
}

void TcpConnection::transmit_pending() {
  if (state_ == TcpState::kClosed || state_ == TcpState::kTimeWait) return;

  if (rst_pending_) {
    const bool allowed = fin_released_ || !close_gate_ || close_gate_(true);
    if (allowed) {
      emit_control(TcpFlags{.ack = true, .rst = true}, wire(snd_nxt_));
      finish(CloseReason::kAborted);
    }
    return;
  }

  const bool can_send_data =
      state_ == TcpState::kEstablished || state_ == TcpState::kCloseWait;
  if (can_send_data) {
    const std::uint64_t effective_wnd = std::min<std::uint64_t>(snd_wnd_, cc_.cwnd());
    while (true) {
      if (snd_nxt_ < iss_ + 1) break;  // handshake not complete
      const std::uint64_t nxt_po = send_payload_offset(snd_nxt_);
      if (nxt_po >= send_buf_.end_offset()) break;  // nothing unsent
      const std::uint64_t flight = flight_size();
      if (flight >= effective_wnd) break;
      const std::size_t len = static_cast<std::size_t>(
          std::min<std::uint64_t>({cfg_.mss, send_buf_.end_offset() - nxt_po,
                                   effective_wnd - flight}));
      if (len == 0) break;
      emit_data_segment(snd_nxt_, len, /*retransmit=*/false);
      snd_nxt_ += len;
    }
    try_emit_fin_or_rst();
  }

  if (flight_size() > 0) {
    if (!retrans_timer_.armed()) arm_retransmit();
  } else {
    retrans_timer_.cancel();
    retries_ = 0;
  }
  arm_persist_if_needed();
  if (replica_) apply_deferred_ack();
}

bool TcpConnection::try_emit_fin_or_rst() {
  if (!app_closed_ || rst_pending_ || fin_seq_.has_value()) return false;
  // FIN goes out only after all data has been transmitted.
  if (snd_nxt_ < iss_ + 1) return false;
  if (send_payload_offset(snd_nxt_) < send_buf_.end_offset()) return false;
  const bool allowed = fin_released_ || !close_gate_ || close_gate_(false);
  if (!allowed) {
    log_.debug("FIN withheld by close gate");
    return false;
  }
  fin_released_ = true;
  fin_seq_ = snd_nxt_;
  snd_nxt_ += 1;
  emit_control(TcpFlags{.ack = true, .fin = true}, wire(*fin_seq_));
  if (state_ == TcpState::kEstablished) {
    state_ = TcpState::kFinWait1;
  } else if (state_ == TcpState::kCloseWait) {
    state_ = TcpState::kLastAck;
  }
  log_.debug("FIN sent, state=", to_string(state_));
  arm_retransmit();
  return true;
}

void TcpConnection::emit_data_segment(std::uint64_t seq_abs, std::size_t len,
                                      bool retransmit) {
  // The payload is read in place: the stack copies it from the send buffer
  // straight into the frame.
  const auto payload = send_buf_.spans(send_payload_offset(seq_abs), len);
  const std::size_t n = payload.first.size() + payload.second.size();
  if (n == 0) {
    // The bytes were already acknowledged and released (stale retransmit).
    return;
  }
  TcpSegment seg;
  seg.seq = wire(seq_abs);
  seg.ack = wire(rcv_nxt_);
  seg.flags.ack = true;
  seg.flags.psh = true;
  if (retransmit) {
    ++stats_.retransmissions;
    if (m_retransmissions_ != nullptr) m_retransmissions_->inc();
    rtt_pending_ = false;  // Karn: never sample a retransmitted range
  } else if (!rtt_pending_ && seq_abs >= highest_sent_) {
    // Karn's rule also covers go-back-N rewinds: bytes at or below the
    // high-water mark have been transmitted before and are never sampled.
    rtt_pending_ = true;
    rtt_seq_ = seq_abs + n - 1;
    rtt_sent_at_ = stack_.world().now();
  }
  if (seq_abs + n > highest_sent_) highest_sent_ = seq_abs + n;
  send_segment(seg, payload);
}

void TcpConnection::emit_control(TcpFlags flags, SeqWire seq_wire) {
  TcpSegment seg;
  seg.seq = seq_wire;
  seg.flags = flags;
  if (flags.ack) seg.ack = wire(rcv_nxt_);
  send_segment(seg, {});
}

void TcpConnection::emit_ack() {
  emit_control(TcpFlags{.ack = true}, wire(snd_nxt_));
}

void TcpConnection::schedule_ack() {
  if (ack_pending_) return;
  ack_pending_ = true;
  ack_flush_timer_.arm(sim::Duration::zero(), [this] {
    if (!ack_pending_) return;  // superseded by an ACK-bearing segment
    ack_pending_ = false;
    if (state_ == TcpState::kClosed) return;
    emit_ack();
  });
}

void TcpConnection::send_segment(TcpSegment& seg,
                                 std::pair<net::BytesView, net::BytesView> payload) {
  seg.src_port = tuple_.local.port;
  seg.dst_port = tuple_.remote.port;
  seg.window = advertised_window();
  if (seg.flags.ack && ack_pending_) {
    // This segment carries the cumulative ACK; the deferred pure ACK would
    // be a duplicate.
    ack_pending_ = false;
    ack_flush_timer_.cancel();
  }
  stats_.bytes_sent += payload.first.size() + payload.second.size();
  if (suppressed_) {
    ++stats_.segments_suppressed;
    return;
  }
  ++stats_.segments_sent;
  stack_.emit(tuple_, seg, payload);
}

// ---------------------------------------------------------------------------
// Input
// ---------------------------------------------------------------------------

void TcpConnection::on_segment(const TcpSegment& seg) {
  if (state_ == TcpState::kClosed) return;
  ++stats_.segments_received;
  last_rx_at_ = stack_.world().now();
  keepalive_unanswered_ = 0;

  if (state_ == TcpState::kSynSent) {
    on_segment_synsent(seg);
    return;
  }

  if (state_ == TcpState::kTimeWait) {
    // Re-ACK a retransmitted FIN; otherwise stay quiet.
    if (seg.flags.fin) emit_ack();
    return;
  }

  const SeqAbs seq_abs = unwrap32(seg.seq, rcv_nxt_);

  if (seg.flags.rst) {
    // Accept the reset if it falls in (or at the edge of) our window.
    const std::uint64_t win = std::max<std::uint64_t>(reasm_.window(), 1);
    if (seq_abs >= rcv_nxt_ - 1 && seq_abs < rcv_nxt_ + win) {
      log_.debug("RST received");
      finish(CloseReason::kReset);
    }
    return;
  }

  if (seg.flags.syn) {
    // Duplicate SYN from the client while we are (or were) in the handshake.
    if (state_ == TcpState::kSynRcvd && seq_abs == irs_) {
      emit_control(TcpFlags{.syn = true, .ack = true}, wire(iss_));
      return;
    }
    // Anything else: challenge-ACK and drop.
    emit_ack();
    return;
  }

  process_ack(seg);
  if (state_ == TcpState::kClosed) return;  // RST/finish during ACK processing

  const SeqAbs rcv_before = rcv_nxt_;
  bool want_ack = false;
  if (!seg.payload.empty()) {
    process_payload(seg);
    want_ack = true;
  }
  // An empty segment below rcv_nxt is a keepalive / stale probe: answer it
  // so the prober knows we are alive.
  if (seg.payload.empty() && !seg.flags.syn && !seg.flags.fin &&
      seq_abs < rcv_nxt_) {
    want_ack = true;
  }

  if (seg.flags.fin) {
    const std::uint64_t fin_po =
        recv_payload_offset(seq_abs + seg.payload.size());
    if (!peer_fin_offset_.has_value()) {
      peer_fin_offset_ = fin_po;
      log_.debug("peer FIN at payload offset ", fin_po);
    }
    want_ack = true;
  }
  maybe_consume_peer_fin();

  if (want_ack && state_ != TcpState::kClosed) {
    // In-order data that advanced rcv_nxt_ coalesces into one end-of-tick
    // cumulative ACK (see schedule_ack). Everything else — out-of-order or
    // duplicate payload, probes, a FIN — keeps the classic per-segment ACK,
    // so the sender's duplicate-ACK accounting and close handshake see
    // exactly the segments they did before.
    if (rcv_nxt_ > rcv_before && !seg.flags.fin) {
      schedule_ack();
    } else {
      emit_ack();
    }
  }
}

void TcpConnection::on_segment_synsent(const TcpSegment& seg) {
  if (seg.flags.rst) {
    if (seg.flags.ack && unwrap32(seg.ack, snd_nxt_) == snd_nxt_) {
      finish(CloseReason::kReset);
    }
    return;
  }
  if (!seg.flags.syn || !seg.flags.ack) return;  // simultaneous open: unsupported
  const SeqAbs ack_abs = unwrap32(seg.ack, snd_nxt_);
  if (ack_abs != iss_ + 1) return;  // bad handshake ACK
  irs_ = unwrap32(seg.seq, iss_);   // any reference works for the first contact
  rcv_nxt_ = irs_ + 1;
  snd_una_ = iss_ + 1;
  snd_wnd_ = seg.window;
  snd_wl1_ = irs_;
  snd_wl2_ = ack_abs;
  retries_ = 0;
  rto_.on_ack();
  become_established();
  emit_ack();
  transmit_pending();
}

void TcpConnection::process_ack(const TcpSegment& seg) {
  if (!seg.flags.ack) return;
  const SeqAbs ack_abs = unwrap32(seg.ack, snd_nxt_);
  const SeqAbs seq_abs = unwrap32(seg.seq, rcv_nxt_);

  // Acceptance bound: a go-back-N rewind can leave snd_nxt_ below data the
  // peer already received from the original transmissions, so judge ACKs
  // against the high-water mark.
  SeqAbs sent_limit = std::max(snd_nxt_, highest_sent_);
  if (fin_seq_.has_value()) sent_limit = std::max(sent_limit, *fin_seq_ + 1);
  if (ack_abs > sent_limit) {
    // Acknowledges data we have never sent. On a replica this is the normal
    // case of the client acking the primary's transmissions ahead of our
    // own (suppressed) sends: remember and apply once we catch up. The
    // window update must still happen — a replica that never sees an
    // "acceptable" ACK (e.g. the handshake ACK was lost on its tap) would
    // otherwise keep snd_wnd_ == 0 and never be able to transmit at all.
    if (replica_) {
      deferred_ack_ = std::max(deferred_ack_, ack_abs);
      if (snd_wl1_ < seq_abs || (snd_wl1_ == seq_abs && snd_wl2_ <= ack_abs)) {
        snd_wnd_ = seg.window;
        snd_wl1_ = seq_abs;
        snd_wl2_ = ack_abs;
      }
      if (state_ == TcpState::kSynRcvd && ack_abs > iss_ + 1) {
        // A replica seeded from the tapped SYN whose handshake ACK was lost
        // on the tap: the client acking past ISS+1 proves the primary's
        // handshake completed, so establish now — otherwise every later ACK
        // lands here and the replica is stuck in SYN_RCVD for good.
        snd_una_ = iss_ + 1;
        retries_ = 0;
        retrans_timer_.cancel();
        become_established();
      }
      transmit_pending();
    } else {
      emit_ack();
    }
    return;
  }

  if (ack_abs > snd_una_) {
    // The ACK may overtake a rewound snd_nxt_: that range is delivered and
    // must not be resent.
    if (ack_abs > snd_nxt_) snd_nxt_ = ack_abs;
    // --- new data acknowledged ---
    const std::uint64_t payload_end =
        fin_seq_.has_value() ? std::min(ack_abs, *fin_seq_) : ack_abs;
    if (payload_end > iss_ + 1) {
      const std::uint64_t acked_po = payload_end - iss_ - 1;
      if (acked_po > payload_acked_) {
        cc_.on_ack(acked_po - payload_acked_);
        record_cwnd();
        payload_acked_ = acked_po;
        send_buf_.ack_to(acked_po);
      }
    }
    if (fin_seq_.has_value() && ack_abs >= *fin_seq_ + 1) fin_acked_ = true;
    snd_una_ = ack_abs;
    retries_ = 0;
    dup_acks_ = 0;
    rto_.on_ack();
    if (rtt_pending_ && ack_abs > rtt_seq_) {
      rto_.sample(stack_.world().now() - rtt_sent_at_);
      rtt_pending_ = false;
      if (m_srtt_us_ != nullptr) {
        m_srtt_us_->record(static_cast<std::uint64_t>(rto_.srtt().us()));
      }
      record_cwnd();
    }
    // Restart (or clear) the retransmission timer for remaining flight.
    retrans_timer_.cancel();
    if (flight_size() > 0) arm_retransmit();

    switch (state_) {
      case TcpState::kSynRcvd:
        if (snd_una_ >= iss_ + 1) become_established();
        break;
      case TcpState::kFinWait1:
        if (fin_acked_) {
          state_ = peer_fin_consumed_ ? TcpState::kTimeWait : TcpState::kFinWait2;
          if (state_ == TcpState::kTimeWait) enter_time_wait();
        }
        break;
      case TcpState::kClosing:
        if (fin_acked_) {
          state_ = TcpState::kTimeWait;
          enter_time_wait();
        }
        break;
      case TcpState::kLastAck:
        if (fin_acked_) {
          finish(CloseReason::kGraceful);
          return;
        }
        break;
      default:
        break;
    }
    notify_writable();
  } else if (ack_abs == snd_una_ && seg.payload.empty() && !seg.flags.fin &&
             flight_size() > 0) {
    ++dup_acks_;
    ++stats_.dup_acks_received;
    if (dup_acks_ == 3) {
      ++stats_.fast_retransmissions;
      if (m_fast_retransmissions_ != nullptr) m_fast_retransmissions_->inc();
      cc_.on_fast_retransmit(flight_size());
      record_cwnd();
      if (fin_seq_.has_value() && snd_una_ == *fin_seq_) {
        emit_control(TcpFlags{.ack = true, .fin = true}, wire(*fin_seq_));
      } else {
        emit_data_segment(snd_una_, cfg_.mss, /*retransmit=*/true);
      }
    }
  }

  // Window update (RFC 793 WL1/WL2 rule).
  if (snd_wl1_ < seq_abs || (snd_wl1_ == seq_abs && snd_wl2_ <= ack_abs)) {
    const std::uint64_t old_wnd = snd_wnd_;
    snd_wnd_ = seg.window;
    snd_wl1_ = seq_abs;
    snd_wl2_ = ack_abs;
    if (old_wnd == 0 && snd_wnd_ > 0) {
      // Window reopened: leave persist mode and resend stalled flight now.
      persist_shift_ = 0;
      persist_timer_.cancel();
      if (flight_size() > 0 && !fin_seq_.has_value()) {
        emit_data_segment(snd_una_, cfg_.mss, /*retransmit=*/true);
      }
    }
  }

  transmit_pending();
}

void TcpConnection::process_payload(const TcpSegment& seg) {
  const SeqAbs seq_abs = unwrap32(seg.seq, rcv_nxt_);
  // Clip anything at or before the SYN (retransmitted handshake overlap).
  std::uint64_t start = seq_abs;
  net::BytesView data(seg.payload);
  if (start < irs_ + 1) {
    const std::uint64_t skip = irs_ + 1 - start;
    if (skip >= data.size()) return;
    data = data.subspan(static_cast<std::size_t>(skip));
    start = irs_ + 1;
  }
  const bool receiving_state =
      state_ == TcpState::kEstablished || state_ == TcpState::kSynRcvd ||
      state_ == TcpState::kFinWait1 || state_ == TcpState::kFinWait2;
  if (!receiving_state) return;

  if (start > rcv_nxt_) {
    // Data above the expected position — record the lowest such start even
    // when it falls outside the window and is discarded (this is the only
    // evidence of an unfillable hole after a takeover; see rx_future_floor).
    const std::uint64_t po = start - irs_ - 1;
    if (!future_floor_.has_value() || po < *future_floor_) future_floor_ = po;
  }
  const std::size_t delivered = reasm_.insert(start - irs_ - 1, data);
  rcv_nxt_ = irs_ + 1 + reasm_.next_expected() + (peer_fin_consumed_ ? 1 : 0);
  if (future_floor_.has_value() && reasm_.next_expected() >= *future_floor_) {
    future_floor_.reset();
  }
  if (delivered > 0 && cb_.on_readable) cb_.on_readable();
}

std::size_t TcpConnection::inject_stream_bytes(std::uint64_t offset,
                                               net::BytesView data) {
  const std::size_t delivered = reasm_.insert(offset, data);
  rcv_nxt_ = irs_ + 1 + reasm_.next_expected() + (peer_fin_consumed_ ? 1 : 0);
  if (future_floor_.has_value() && reasm_.next_expected() >= *future_floor_) {
    future_floor_.reset();
  }
  maybe_consume_peer_fin();
  if (delivered > 0 && cb_.on_readable) cb_.on_readable();
  return delivered;
}

void TcpConnection::maybe_consume_peer_fin() {
  if (!peer_fin_offset_.has_value() || peer_fin_consumed_) return;
  if (reasm_.next_expected() < *peer_fin_offset_) return;  // data still missing
  peer_fin_consumed_ = true;
  rcv_nxt_ = irs_ + 1 + reasm_.next_expected() + 1;
  log_.debug("peer FIN consumed");
  switch (state_) {
    case TcpState::kSynRcvd:
    case TcpState::kEstablished:
      state_ = TcpState::kCloseWait;
      break;
    case TcpState::kFinWait1:
      state_ = fin_acked_ ? TcpState::kTimeWait : TcpState::kClosing;
      if (state_ == TcpState::kTimeWait) enter_time_wait();
      break;
    case TcpState::kFinWait2:
      state_ = TcpState::kTimeWait;
      enter_time_wait();
      break;
    default:
      break;
  }
  if (cb_.on_peer_closed) cb_.on_peer_closed();
}

void TcpConnection::apply_deferred_ack() {
  if (deferred_ack_ <= snd_una_) return;
  const SeqAbs target = std::min(deferred_ack_, snd_nxt_);
  if (target <= snd_una_) return;
  const std::uint64_t payload_end =
      fin_seq_.has_value() ? std::min(target, *fin_seq_) : target;
  if (payload_end > iss_ + 1) {
    const std::uint64_t acked_po = payload_end - iss_ - 1;
    if (acked_po > payload_acked_) {
      cc_.on_ack(acked_po - payload_acked_);
      payload_acked_ = acked_po;
      send_buf_.ack_to(acked_po);
    }
  }
  if (fin_seq_.has_value() && target >= *fin_seq_ + 1) fin_acked_ = true;
  snd_una_ = target;
  retries_ = 0;
  rto_.on_ack();
  retrans_timer_.cancel();
  if (flight_size() > 0) arm_retransmit();
  notify_writable();
}

void TcpConnection::notify_writable() {
  if (writable_notify_timer_.armed()) return;
  if (app_closed_ || send_buf_.free_space() == 0) return;
  writable_notify_timer_.arm(sim::Duration::zero(), [this] {
    if (state_ == TcpState::kClosed || app_closed_) return;
    if (cb_.on_writable && send_buf_.free_space() > 0) cb_.on_writable();
  });
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

void TcpConnection::arm_retransmit() {
  retrans_timer_.arm(rto_.rto(), [this] { on_retransmit_timeout(); });
}

void TcpConnection::on_retransmit_timeout() {
  if (!stack_.alive() || state_ == TcpState::kClosed) return;
  if (flight_size() == 0) return;
  if (m_rto_expiries_ != nullptr) m_rto_expiries_->inc();

  const bool handshake =
      state_ == TcpState::kSynSent || state_ == TcpState::kSynRcvd;
  const int limit = handshake ? cfg_.syn_retries : cfg_.max_retries;
  // Zero-window probing must not kill the connection: the peer is alive,
  // just full (this is exactly the application-hang scenario ST-TCP detects
  // at a higher layer).
  const bool counts = !(snd_wnd_ == 0 && !handshake);
  if (counts) ++retries_;
  if (retries_ > limit) {
    log_.debug("retransmission limit reached");
    finish(CloseReason::kTimeout);
    return;
  }

  rtt_pending_ = false;  // Karn
  rto_.on_timeout();
  if (state_ == TcpState::kSynSent) {
    emit_control(TcpFlags{.syn = true}, wire(iss_));
    ++stats_.retransmissions;
    if (m_retransmissions_ != nullptr) m_retransmissions_->inc();
  } else if (state_ == TcpState::kSynRcvd) {
    emit_control(TcpFlags{.syn = true, .ack = true}, wire(iss_));
    ++stats_.retransmissions;
    if (m_retransmissions_ != nullptr) m_retransmissions_->inc();
  } else if (fin_seq_.has_value() && snd_una_ == *fin_seq_) {
    emit_control(TcpFlags{.ack = true, .fin = true}, wire(*fin_seq_));
    ++stats_.retransmissions;
    if (m_retransmissions_ != nullptr) m_retransmissions_->inc();
  } else {
    cc_.on_rto(flight_size());
    record_cwnd();
    // Go-back-N: everything beyond snd_una_ is presumed lost. Rewind
    // snd_nxt_ so the normal output engine resends the whole range under
    // the post-loss congestion window (one segment now, ramping with the
    // returning ACKs). Without this, recovery after a long outage would
    // crawl at one segment per timeout.
    ++stats_.retransmissions;
    if (m_retransmissions_ != nullptr) m_retransmissions_->inc();
    if (fin_seq_.has_value() && !fin_acked_) {
      // The FIN (never acknowledged) rides behind the resent data again;
      // undo its emission bookkeeping and the close-progress transition.
      fin_seq_.reset();
      if (state_ == TcpState::kFinWait1) {
        state_ = TcpState::kEstablished;
      } else if (state_ == TcpState::kClosing || state_ == TcpState::kLastAck) {
        state_ = TcpState::kCloseWait;
      }
    }
    snd_nxt_ = snd_una_;
    transmit_pending();
  }
  arm_retransmit();
}

void TcpConnection::arm_persist_if_needed() {
  if (persist_timer_.armed()) return;
  if (snd_wnd_ != 0 || flight_size() != 0) return;
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait) return;
  if (snd_nxt_ < iss_ + 1) return;
  if (send_payload_offset(snd_nxt_) >= send_buf_.end_offset()) return;  // no data
  sim::Duration d = cfg_.persist_base;
  for (int i = 0; i < persist_shift_ && d < cfg_.persist_max; ++i) d = d * 2;
  if (d > cfg_.persist_max) d = cfg_.persist_max;
  persist_timer_.arm(d, [this] { on_persist_timeout(); });
}

void TcpConnection::on_persist_timeout() {
  if (!stack_.alive() || state_ == TcpState::kClosed) return;
  if (snd_wnd_ != 0) {
    transmit_pending();
    return;
  }
  if (snd_nxt_ < iss_ + 1 ||
      send_payload_offset(snd_nxt_) >= send_buf_.end_offset()) {
    return;
  }
  // Send one byte beyond the window as a probe; the receiver will discard
  // it while full and re-advertise its window in the ACK.
  ++stats_.probes_sent;
  ++persist_shift_;
  emit_data_segment(snd_nxt_, 1, /*retransmit=*/false);
  snd_nxt_ += 1;
  arm_retransmit();
}

void TcpConnection::arm_keepalive() {
  if (!cfg_.keepalive) return;
  keepalive_timer_.arm(cfg_.keepalive_idle, [this] { on_keepalive_timeout(); });
}

void TcpConnection::on_keepalive_timeout() {
  if (!stack_.alive() || !is_open()) return;
  const sim::Duration idle = stack_.world().now() - last_rx_at_;
  if (idle < cfg_.keepalive_idle) {
    // Traffic happened since arming; wait out the remainder.
    keepalive_timer_.arm(cfg_.keepalive_idle - idle, [this] { on_keepalive_timeout(); });
    return;
  }
  if (keepalive_unanswered_ >= cfg_.keepalive_probes) {
    log_.debug("keepalive probes exhausted");
    finish(CloseReason::kTimeout);
    return;
  }
  // Classic probe: an empty segment one sequence number below snd_nxt
  // provokes an ACK from a live peer.
  ++keepalive_unanswered_;
  ++stats_.keepalives_sent;
  log_.debug("keepalive probe #", keepalive_unanswered_);
  emit_control(TcpFlags{.ack = true}, wire(snd_nxt_ - 1));
  keepalive_timer_.arm(cfg_.keepalive_interval, [this] { on_keepalive_timeout(); });
}

void TcpConnection::enter_time_wait() {
  retrans_timer_.cancel();
  persist_timer_.cancel();
  keepalive_timer_.cancel();
  time_wait_timer_.arm(cfg_.msl * 2, [this] { finish(CloseReason::kGraceful); });
}

// ---------------------------------------------------------------------------
// Transitions
// ---------------------------------------------------------------------------

void TcpConnection::become_established() {
  state_ = TcpState::kEstablished;
  last_rx_at_ = stack_.world().now();
  arm_keepalive();
  log_.debug("established");
  if (cb_.on_established) cb_.on_established();
}

void TcpConnection::finish(CloseReason reason) {
  if (state_ == TcpState::kClosed) return;
  state_ = TcpState::kClosed;
  retrans_timer_.cancel();
  persist_timer_.cancel();
  time_wait_timer_.cancel();
  keepalive_timer_.cancel();
  log_.debug("closed (", to_string(reason), ")");
  if (cb_.on_closed) cb_.on_closed(reason);
  stack_.on_connection_finished(*this, reason);
}

void TcpConnection::on_takeover(bool immediate_retransmit) {
  suppressed_ = false;
  if (state_ == TcpState::kTimeWait) {
    // Not gated on immediate_retransmit — this is masking, not an
    // optimization. The peer's FIN may have been consumed silently while we
    // were a suppressed replica: the dying primary never ACKed it, and the
    // peer is still retransmitting its FIN from LAST_ACK. Complete the
    // close handshake now, and restart the 2*MSL clock so that if this ACK
    // is lost the retransmitted FIN still finds a connection to re-answer
    // it (expiring on the pre-takeover schedule would greet it with a RST).
    emit_ack();
    enter_time_wait();
    return;
  }
  if (!immediate_retransmit) return;
  // Optimization beyond the paper's prototype: do not wait for the next
  // retransmission timer — resync the client immediately.
  rto_.on_ack();
  retries_ = 0;
  if (flight_size() > 0) {
    if (fin_seq_.has_value() && snd_una_ == *fin_seq_) {
      emit_control(TcpFlags{.ack = true, .fin = true}, wire(*fin_seq_));
    } else {
      emit_data_segment(snd_una_, cfg_.mss, /*retransmit=*/true);
    }
    arm_retransmit();
  }
  if (is_open() && state_ != TcpState::kSynSent && state_ != TcpState::kSynRcvd) {
    emit_ack();
  }
  transmit_pending();
}

}  // namespace sttcp::tcp
