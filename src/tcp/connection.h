// TCP connection state machine.
//
// Implements the RFC 793 state machine with RFC 6298 retransmission timing,
// RFC 5681-style congestion control, zero-window persist probing, and
// out-of-order reassembly, over the simulated network substrate.
//
// ST-TCP seams (all inert unless configured — the stack is a complete plain
// TCP implementation without them):
//  * suppression        — segments are fully built and accounted for, then
//                         dropped at the stack->NIC boundary (the backup's
//                         "network stack does not send them to the client");
//  * replica creation   — a connection can be instantiated from the
//                         primary's announced (ISS, IRS) instead of a local
//                         handshake, and applies client ACKs that arrive
//                         ahead of its own (suppressed) transmissions;
//  * close gate         — FIN/RST emission asks a gate first, so ST-TCP can
//                         delay a FIN by MaxDelayFIN or discard it;
//  * rx tap             — in-order client payload is mirrored to a tap (the
//                         primary's hold buffer feeds from this);
//  * stream injection   — missed-byte recovery inserts payload as if it had
//                         arrived from the wire;
//  * takeover           — drop suppression and (optionally) retransmit
//                         immediately instead of waiting for the timer.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "net/addr.h"
#include "obs/metrics.h"
#include "sim/world.h"
#include "tcp/config.h"
#include "tcp/congestion.h"
#include "tcp/reassembly.h"
#include "tcp/rto.h"
#include "tcp/segment.h"
#include "tcp/send_buffer.h"

namespace sttcp::tcp {

class TcpStack;

/// Connection identity: local and remote transport endpoints.
struct FourTuple {
  net::SocketAddr local;
  net::SocketAddr remote;
  auto operator<=>(const FourTuple&) const = default;
  std::string str() const { return local.str() + "<->" + remote.str(); }
};

enum class TcpState {
  kClosed,
  kSynSent,
  kSynRcvd,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kCloseWait,
  kClosing,
  kLastAck,
  kTimeWait,
};

const char* to_string(TcpState s);

enum class CloseReason {
  kGraceful,   // normal FIN/FIN close completed
  kReset,      // peer sent RST
  kTimeout,    // retransmissions exhausted / handshake timed out
  kAborted,    // local abort()
};

const char* to_string(CloseReason r);

class TcpConnection {
 public:
  struct Callbacks {
    std::function<void()> on_established;
    std::function<void()> on_readable;            // new in-order data
    std::function<void()> on_writable;            // send space available
    std::function<void()> on_peer_closed;         // peer FIN consumed (EOF)
    std::function<void(CloseReason)> on_closed;   // connection fully gone
  };

  struct Stats {
    std::uint64_t segments_sent = 0;
    std::uint64_t segments_suppressed = 0;
    std::uint64_t segments_received = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t fast_retransmissions = 0;
    std::uint64_t dup_acks_received = 0;
    std::uint64_t bytes_sent = 0;        // payload bytes, incl. retransmits
    std::uint64_t probes_sent = 0;       // zero-window probes
    std::uint64_t keepalives_sent = 0;
  };

  /// How a replica connection is seeded from the primary's announcement.
  struct ReplicaInit {
    SeqWire iss = 0;  // primary's initial send sequence
    SeqWire irs = 0;  // client's initial sequence
    /// True when the connection is known established (announce arrived after
    /// the handshake); false when seeded from a tapped client SYN.
    bool established = false;

    /// Mid-stream adoption (ST-TCP reintegration): a rejoining backup warm-
    /// starts the replica from the survivor's snapshot instead of from the
    /// connection's beginning. All offsets are absolute payload offsets.
    bool midstream = false;
    std::uint64_t acked = 0;   // payload bytes the client has acknowledged
    std::uint64_t read = 0;    // payload bytes the application has read
    net::Bytes tx_data;        // sent-but-unacked bytes [acked, written)
    net::Bytes rx_data;        // received-but-unread bytes [read, received)
    bool peer_fin = false;     // client FIN already received by the survivor
    std::uint64_t peer_fin_offset = 0;  // its payload offset when peer_fin
  };

  TcpConnection(TcpStack& stack, FourTuple tuple, const TcpConfig& cfg,
                sim::Logger log);
  ~TcpConnection();
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  // --- application API ------------------------------------------------------
  /// Write bytes; returns how many were accepted (send-buffer space).
  std::size_t send(net::BytesView data);
  /// Read up to `max` in-order received bytes in place: `fn(net::BytesView)`
  /// sees them as at most two spans of the receive ring (two when it
  /// wraps), in stream order, and they are consumed when it returns. Returns
  /// the bytes consumed. The spans are valid only during the call, and `fn`
  /// must not call back into this connection: act on the data (reply,
  /// close) after consume() returns, so the window-update ACK below leaves
  /// first, as it would after a copying read.
  template <class Fn>
  std::size_t consume(std::size_t max, Fn&& fn) {
    const std::size_t window_before = reasm_.window();
    const std::size_t n = reasm_.consume(max, fn);
    if (n > 0) on_consumed(n, window_before);
    return n;
  }
  std::size_t readable() const { return reasm_.readable(); }
  std::size_t send_space() const;
  /// Graceful close: flush pending data, then FIN (subject to the close gate).
  void close();
  /// Hard abort: RST (subject to the close gate).
  void abort();
  bool peer_half_closed() const { return peer_fin_consumed_; }

  void set_callbacks(Callbacks cb) { cb_ = std::move(cb); }

  // --- identity & state -----------------------------------------------------
  const FourTuple& tuple() const { return tuple_; }
  TcpState state() const { return state_; }
  bool is_open() const {
    return state_ != TcpState::kClosed && state_ != TcpState::kTimeWait;
  }
  SeqWire iss() const { return wire(iss_); }
  SeqWire irs() const { return wire(irs_); }

  // --- replication counters (the four fields ST-TCP's heartbeat carries) ----
  /// LastByteReceived: contiguous client payload bytes received by TCP.
  std::uint64_t bytes_received() const { return reasm_.next_expected(); }
  /// LastAckReceived: payload bytes the client has acknowledged.
  std::uint64_t bytes_acked_by_peer() const { return payload_acked_; }
  /// LastAppByteWritten: payload bytes the application wrote to the socket.
  std::uint64_t app_bytes_written() const { return app_written_; }
  /// LastAppByteRead: payload bytes the application read from the socket.
  std::uint64_t app_bytes_read() const { return app_read_; }

  /// FIN/RST generation notices for the heartbeat (set when the local side
  /// produced one, whether or not it has been released to the wire).
  bool fin_generated() const { return fin_generated_; }
  bool rst_generated() const { return rst_generated_; }

  const Stats& stats() const { return stats_; }

  // --- ST-TCP seams ----------------------------------------------------------
  void set_suppressed(bool on) { suppressed_ = on; }
  bool suppressed() const { return suppressed_; }

  /// Gate consulted before emitting a FIN (is_rst=false) or RST (is_rst=true).
  /// Returning false withholds the segment until release_fin() / the gate
  /// later returns true. Data queued before the FIN still flows.
  using CloseGate = std::function<bool(bool is_rst)>;
  void set_close_gate(CloseGate gate) { close_gate_ = std::move(gate); }
  /// Stop gating and emit the withheld FIN/RST (MaxDelayFIN expired).
  void release_fin();

  /// Observe every in-order payload byte as it is accepted from the wire
  /// (absolute payload offset of the first byte + data).
  using RxTap = std::function<void(std::uint64_t offset, net::BytesView data)>;
  void set_rx_tap(RxTap tap) { rx_tap_ = std::move(tap); }

  /// Missed-byte recovery: insert client payload as if received in sequence.
  /// Returns newly contiguous bytes.
  std::size_t inject_stream_bytes(std::uint64_t offset, net::BytesView data);

  /// Backup takes over the client connection: stop suppressing; when
  /// `immediate_retransmit`, reset backoff and retransmit/ACK right away
  /// instead of waiting for the next timer (paper behaviour is waiting).
  void on_takeover(bool immediate_retransmit);

  /// Initialize as a replica (see ReplicaInit). Called by the stack instead
  /// of a handshake.
  void start_replica(const ReplicaInit& init);

  // --- reintegration snapshot accessors --------------------------------------
  /// Sent-but-unacknowledged payload bytes [acked, written); the survivor
  /// ships these so a later takeover by the rejoiner can retransmit them.
  net::Bytes unacked_send_data() const {
    return send_buf_.slice(send_buf_.una_offset(), send_buf_.size());
  }
  /// Received-but-unread payload bytes [read, received); the rejoiner's
  /// application resumes reading exactly where the survivor's stands.
  net::Bytes unread_recv_data() const { return reasm_.peek(); }
  /// Payload offset of the client's FIN, if one has been received.
  std::optional<std::uint64_t> peer_fin_payload_offset() const {
    return peer_fin_offset_;
  }

  /// Receive-side gap introspection (ST-TCP recovery): true when
  /// out-of-order data is buffered beyond a hole; rx_gap_end() is the
  /// payload offset where that buffered data begins.
  bool has_rx_gap() const { return reasm_.has_gap(); }
  std::uint64_t rx_gap_end() const { return reasm_.gap_end(); }
  /// Lowest payload offset of data the peer has sent strictly above
  /// rcv_nxt (even if it fell outside our window). After a takeover this
  /// reveals the sender's snd_una: everything below it was acknowledged by
  /// the dead primary and will never be retransmitted — the logger target.
  std::optional<std::uint64_t> rx_future_floor() const { return future_floor_; }

  /// Peer's current advertised window (diagnostics / tests).
  std::uint64_t peer_window() const { return snd_wnd_; }
  /// Bytes in flight (sent, unacknowledged).
  std::uint64_t flight_size() const { return snd_nxt_ - snd_una_; }
  /// Approximate heap footprint: the object plus buffered payload in both
  /// directions. The capacity bench audits the sum across thousands of
  /// churning connections to catch per-connection memory creep.
  std::size_t memory_bytes() const {
    return sizeof(TcpConnection) + send_buf_.size() + reasm_.buffered_bytes();
  }

  // --- driven by the stack ----------------------------------------------------
  void start_connect();                      // active open (client)
  void start_accept(SeqWire client_isn);     // passive open: got SYN, send SYN-ACK
  void on_segment(const TcpSegment& seg);

 private:
  friend class TcpStack;

  // Output engine.
  void transmit_pending();
  bool try_emit_fin_or_rst();
  void emit_data_segment(std::uint64_t seq_abs, std::size_t len, bool retransmit);
  void emit_control(TcpFlags flags, SeqWire seq_wire);
  void emit_ack();
  /// Defer a cumulative ACK to the end of the current event-loop tick: every
  /// in-order segment processed in the same tick is covered by one ACK, and
  /// any ACK-bearing segment sent meanwhile (a piggybacked data segment, an
  /// immediate ACK) cancels the pending pure ACK outright. Out-of-order and
  /// probe segments never take this path — their duplicate ACKs stay
  /// per-segment so the sender's fast-retransmit counting (RFC 5681) is
  /// unaffected. The flush runs at the same simulated instant the segments
  /// arrived, so no delayed-ACK timer semantics are introduced.
  void schedule_ack();
  /// Stamp ports/window and transmit `seg` carrying `payload` (spans into
  /// the send buffer; empty for control segments).
  void send_segment(TcpSegment& seg, std::pair<net::BytesView, net::BytesView> payload);

  // Input processing.
  void on_segment_synsent(const TcpSegment& seg);
  void process_ack(const TcpSegment& seg);
  void process_payload(const TcpSegment& seg);
  void maybe_consume_peer_fin();
  void apply_deferred_ack();

  void notify_writable();
  /// Account `n` bytes the application consumed and, if that reopened a
  /// closed window, tell the sender so it does not sit in persist.
  void on_consumed(std::size_t n, std::size_t window_before);

  // Timers.
  void arm_keepalive();
  void on_keepalive_timeout();
  void arm_retransmit();
  void on_retransmit_timeout();
  void arm_persist_if_needed();
  void on_persist_timeout();
  void enter_time_wait();

  // Transitions.
  void become_established();
  void finish(CloseReason reason);

  std::uint64_t send_payload_offset(std::uint64_t seq_abs) const {
    return seq_abs - iss_ - 1;
  }
  std::uint64_t recv_payload_offset(std::uint64_t seq_abs) const {
    return seq_abs - irs_ - 1;
  }
  std::uint16_t advertised_window() const;

  TcpStack& stack_;
  FourTuple tuple_;
  const TcpConfig& cfg_;
  sim::Logger log_;
  Callbacks cb_;

  TcpState state_ = TcpState::kClosed;

  // Send side (absolute 64-bit sequence space).
  SeqAbs iss_ = 0;
  SeqAbs snd_una_ = 0;
  SeqAbs snd_nxt_ = 0;
  SeqAbs highest_sent_ = 0;  // high-water mark (Karn: no samples below it)
  std::uint64_t snd_wnd_ = 0;
  SeqAbs snd_wl1_ = 0;  // seq of last window update
  SeqAbs snd_wl2_ = 0;  // ack of last window update
  SendBuffer send_buf_;
  std::optional<SeqAbs> fin_seq_;  // sequence our FIN occupies, once queued
  bool fin_acked_ = false;

  // Receive side.
  SeqAbs irs_ = 0;
  SeqAbs rcv_nxt_ = 0;  // mirrors irs_ + 1 + reasm_.next_expected() (+1 w/ FIN)
  ReassemblyBuffer reasm_;
  std::optional<std::uint64_t> future_floor_;     // see rx_future_floor()
  std::optional<std::uint64_t> peer_fin_offset_;  // payload offset of peer FIN
  bool peer_fin_consumed_ = false;

  // Application counters.
  std::uint64_t app_written_ = 0;
  std::uint64_t app_read_ = 0;
  std::uint64_t payload_acked_ = 0;

  // Close bookkeeping.
  bool app_closed_ = false;      // close() called
  bool fin_generated_ = false;   // TCP produced a FIN (HB notice)
  bool rst_generated_ = false;
  bool fin_released_ = false;    // gate passed / release_fin() called
  bool rst_pending_ = false;

  // Replica / ST-TCP.
  bool replica_ = false;
  bool suppressed_ = false;
  SeqAbs deferred_ack_ = 0;  // highest client ACK seen beyond snd_nxt_
  CloseGate close_gate_;
  RxTap rx_tap_;

  // Loss recovery.
  RtoEstimator rto_;
  CongestionControl cc_;
  sim::OneShotTimer retrans_timer_;
  sim::OneShotTimer persist_timer_;
  sim::OneShotTimer time_wait_timer_;
  int retries_ = 0;
  int persist_shift_ = 0;
  int dup_acks_ = 0;

  // Deferred, coalesced on_writable delivery: notifying synchronously from
  // inside the application's own send() (via the replica deferred-ACK path)
  // would re-enter the app's write loop.
  sim::OneShotTimer writable_notify_timer_;

  // Keepalive.
  sim::OneShotTimer keepalive_timer_;
  sim::SimTime last_rx_at_;
  int keepalive_unanswered_ = 0;

  // ACK coalescing (see schedule_ack).
  sim::OneShotTimer ack_flush_timer_;
  bool ack_pending_ = false;

  // RTT sampling (one in-flight sample, Karn's rule).
  bool rtt_pending_ = false;
  SeqAbs rtt_seq_ = 0;
  sim::SimTime rtt_sent_at_;

  Stats stats_;

  // Telemetry (bound per host in the constructor when the World carries a
  // registry; all null otherwise — a single branch per event when off).
  void record_cwnd();
  obs::Counter* m_retransmissions_ = nullptr;
  obs::Counter* m_rto_expiries_ = nullptr;
  obs::Counter* m_fast_retransmissions_ = nullptr;
  obs::Histogram* m_srtt_us_ = nullptr;
  obs::Histogram* m_cwnd_bytes_ = nullptr;
};

}  // namespace sttcp::tcp

/// Hash for unordered demux tables. The stack's per-segment lookup is the
/// hottest map operation at thousands of concurrent connections.
template <>
struct std::hash<sttcp::tcp::FourTuple> {
  std::size_t operator()(const sttcp::tcp::FourTuple& t) const noexcept {
    const std::uint64_t a =
        (static_cast<std::uint64_t>(t.local.ip.value()) << 16) | t.local.port;
    const std::uint64_t b =
        (static_cast<std::uint64_t>(t.remote.ip.value()) << 16) | t.remote.port;
    return std::hash<std::uint64_t>{}(a * 0x9e3779b97f4a7c15ULL ^ b);
  }
};
