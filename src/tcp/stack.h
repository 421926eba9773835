// TCP stack: demultiplexes segments to connections (one hash-map lookup per
// segment), owns listeners and connection lifetimes, and exposes the
// socket-style API plus the ST-TCP seams (replica mode, replica creation,
// connection observer).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/host.h"
#include "tcp/config.h"
#include "tcp/connection.h"

namespace sttcp::tcp {

class TcpStack {
 public:
  /// Invoked when a passively-opened connection (including a replica on the
  /// backup) reaches ESTABLISHED. The handler installs the application's
  /// callbacks on the connection.
  using AcceptHandler = std::function<void(TcpConnection&)>;

  /// ST-TCP's view of connection lifecycle on this stack.
  class ConnectionObserver {
   public:
    virtual ~ConnectionObserver() = default;
    /// A passively-accepted connection became ESTABLISHED (primary uses this
    /// to announce the connection to the backup).
    virtual void on_accepted(TcpConnection& conn) = 0;
    /// A connection fully finished and is about to be destroyed.
    virtual void on_finished(TcpConnection& conn, CloseReason reason) = 0;
  };

  struct Stats {
    std::uint64_t segments_in = 0;
    std::uint64_t segments_demuxed = 0;
    std::uint64_t segments_buffered = 0;   // replica mode, pre-announce
    std::uint64_t bad_checksum = 0;
    std::uint64_t rst_sent = 0;            // RSTs for unknown connections
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_initiated = 0;
    std::uint64_t replicas_created = 0;
    // Never incremented: demux is one map lookup and has no cache. Kept
    // only because stbench/ (frozen) still reads it for tcp.demux_hit_ratio;
    // delete it when stbench/ next changes.
    std::uint64_t demux_cache_hits = 0;
  };

  TcpStack(net::Host& host, TcpConfig config);
  ~TcpStack();
  TcpStack(const TcpStack&) = delete;
  TcpStack& operator=(const TcpStack&) = delete;

  // --- socket API -----------------------------------------------------------
  void listen(std::uint16_t port, AcceptHandler handler);
  /// Active open. `local_ip` must be one of the host's addresses. Returns the
  /// connection (owned by the stack; valid until on_closed fires and the
  /// event loop turns over). Throws std::runtime_error when every ephemeral
  /// port to `remote` is in use.
  TcpConnection& connect(net::Ipv4Addr local_ip, net::SocketAddr remote,
                         TcpConnection::Callbacks callbacks);

  // --- ST-TCP seams -----------------------------------------------------------
  /// In replica mode the stack never answers SYNs or unknown segments; it
  /// buffers them per 4-tuple until ST-TCP announces the connection. Leaving
  /// replica mode (takeover) discards segments buffered for never-announced
  /// tuples — new SYNs take the normal listener path from then on.
  void set_replica_mode(bool on);
  bool replica_mode() const { return replica_mode_; }

  /// Create a replica connection from the primary's announcement. Buffered
  /// segments for the tuple are replayed into it. If a tapped client SYN was
  /// buffered, the replica completes the handshake passively.
  TcpConnection& create_replica(const FourTuple& tuple,
                                TcpConnection::ReplicaInit init);

  /// Replica-mode ISN inference (paper §2: "during TCP connection
  /// initialization, the backup changes its initial sequence number to match
  /// that of the primary"). When the tap has seen both the client's SYN
  /// (yielding IRS) and its handshake ACK (whose ack field is ISS+1), the
  /// stack can reconstruct the primary's ISN without any announcement —
  /// which also covers a primary that dies before its announce arrives.
  /// `established` is true when inference came from the handshake ACK (the
  /// primary's connection is established by then) and false when it came
  /// from the SYN alone via the deterministic accept-ISN function (the
  /// replica completes the handshake passively, like the primary does).
  using ReplicaInference = std::function<void(
      const FourTuple& tuple, SeqWire iss, SeqWire irs, bool established)>;
  void set_replica_inference(ReplicaInference fn) { inference_ = std::move(fn); }

  /// Deterministic accept-side ISN (RFC 6528 shape: a keyed function of the
  /// 4-tuple). When primary and backup share this function, a replica can
  /// reconstruct the primary's ISS from the tapped client SYN alone — no
  /// announcement, no handshake-ACK race — which closes the masking hole for
  /// connections the primary accepts in its last moments under load, when
  /// both the announce heartbeat and the SYN-ACK can die in a backlogged
  /// egress queue. isn_override still wins (tests pin exact ISNs with it).
  using AcceptIsnFn = std::function<SeqWire(const FourTuple&)>;
  void set_accept_isn_fn(AcceptIsnFn fn) { accept_isn_fn_ = std::move(fn); }

  void set_observer(ConnectionObserver* obs) { observer_ = obs; }

  /// Forget all connection state (a crashed host rebooted with blank RAM).
  /// Listeners survive — the boot re-runs the same software, so the same
  /// services are listening again. Registered as a Host boot hook.
  void reset_for_boot();

  // --- lookup ------------------------------------------------------------------
  TcpConnection* find(const FourTuple& tuple);
  /// Visit every connection in 4-tuple order. The order is part of the
  /// deterministic contract: reintegration's snapshot sweep derives replica
  /// id assignment from it.
  void for_each(const std::function<void(TcpConnection&)>& fn);
  std::size_t connection_count() const { return conns_.size(); }
  /// Total heap footprint of all connections plus replica-mode buffered
  /// segments, each counted with the whole frame it keeps alive (see
  /// TcpConnection::memory_bytes). Churn-scale memory audit.
  std::size_t memory_bytes() const;
  /// Replica-mode segments currently held awaiting an announce (per-tuple
  /// occupancy, capped at max_buffered_segments() each) — lets the chaos
  /// invariants assert replica memory stays bounded.
  std::size_t pending_segments() const {
    std::size_t n = 0;
    for (const auto& [t, p] : pending_) n += p.segments.size();
    return n;
  }
  static constexpr std::size_t max_buffered_segments() { return kMaxBufferedSegments; }

  // --- plumbing (used by TcpConnection) ----------------------------------------
  sim::World& world() { return host_.world(); }
  /// The owning host's CPU clock domain: every stack/connection timer is
  /// scheduled through it, so a grey CPU stall (sim/clock_domain.h) slides
  /// the whole TCP data path — RTOs, delayed ACKs, deferred accepts — while
  /// the world clock runs on. Healthy domains forward verbatim to the loop.
  sim::ClockDomain& domain() { return host_.cpu_domain(); }
  bool alive() const { return host_.alive(); }
  const TcpConfig& config() const { return cfg_; }
  SeqWire choose_isn() {
    if (cfg_.isn_override.has_value()) return *cfg_.isn_override;
    return static_cast<SeqWire>(isn_rng_.next_u64());
  }
  /// ISN for a passively-opened (accepted) connection: the deterministic
  /// accept function when installed, the random draw otherwise.
  SeqWire choose_accept_isn(const FourTuple& t) {
    if (cfg_.isn_override.has_value()) return *cfg_.isn_override;
    if (accept_isn_fn_) return accept_isn_fn_(t);
    return static_cast<SeqWire>(isn_rng_.next_u64());
  }
  /// Build the segment's frame in place in one block -- Ethernet/IPv4
  /// header room, TCP header, then `payload` copied straight from the send
  /// queue -- and hand it to the host's IP layer.
  bool emit(const FourTuple& tuple, const TcpSegment& seg,
            std::pair<net::BytesView, net::BytesView> payload);
  void on_connection_finished(TcpConnection& conn, CloseReason reason);

  const Stats& stats() const { return stats_; }
  net::Host& host() { return host_; }

 private:
  void on_packet(const net::Ipv4Header& ip, net::BytesView l4, const net::Frame& frame);
  TcpConnection& create_connection(const FourTuple& tuple);
  void dispatch_accept(TcpConnection& conn);
  void send_rst_for(const net::Ipv4Header& ip, const TcpSegment& seg);
  void schedule_gc(const FourTuple& tuple);

  net::Host& host_;
  TcpConfig cfg_;
  sim::Logger log_;
  sim::Rng isn_rng_;
  // Unordered: demux is one hash lookup per segment regardless of the
  // connection count (a red-black tree walk costs ~15 tuple comparisons at
  // 2,000+ churning connections). All ordered iteration goes via for_each.
  std::unordered_map<FourTuple, std::unique_ptr<TcpConnection>> conns_;
  std::map<std::uint16_t, AcceptHandler> listeners_;
  ConnectionObserver* observer_ = nullptr;

  // Replica mode: segments seen before the primary's announcement, per
  // tuple. Each keeps the frame its payload views into (a refcount, not a
  // copy). `syn_time` is when the client's SYN was tapped, until ISN
  // inference uses it or its window expires.
  struct PendingSegment {
    TcpSegment seg;
    net::Frame frame;
  };
  struct Pending {
    std::vector<PendingSegment> segments;
    std::optional<sim::SimTime> syn_time;
  };
  static constexpr std::size_t kMaxBufferedSegments = 256;
  std::unordered_map<FourTuple, Pending> pending_;

  ReplicaInference inference_;
  AcceptIsnFn accept_isn_fn_;
  bool replica_mode_ = false;
  std::uint16_t next_ephemeral_ = 49152;
  Stats stats_;
};

}  // namespace sttcp::tcp
