// Deterministic server applications.
//
// ST-TCP requires the primary application and its replica to be
// deterministic: fed the same input TCP stream, they make the same writes
// in the same order (§2). These servers derive every output byte from the
// connection's stream positions only — no clocks, no randomness — so a
// primary and backup instance stay byte-identical.
//
// Each server supports the paper's application-failure injections (§4.2):
//   hang()        — the process stops reading/writing but the socket stays
//                   open (crash WITHOUT cleanup: no FIN);
//   crash_clean() — the OS reaps the process and closes sockets (FIN);
//   crash_abort() — sockets are reset (RST).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "app/pattern.h"
#include "tcp/stack.h"

namespace sttcp::app {

/// Base: owns per-connection state, wires callbacks, applies crash modes.
class ServerApp {
 public:
  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t bytes_written = 0;
    std::uint64_t bytes_read = 0;
    std::uint64_t connections_closed = 0;
  };

  ServerApp(tcp::TcpStack& stack, std::uint16_t port, std::string name);
  virtual ~ServerApp() = default;

  /// Application crash without cleanup: stop all activity, keep sockets.
  void hang();
  /// Application crash with OS cleanup: close all sockets (FIN).
  void crash_clean();
  /// Application crash with reset semantics: abort all sockets (RST).
  void crash_abort();

  bool hung() const { return hung_; }
  bool crashed() const { return crashed_; }
  const Stats& stats() const { return stats_; }

  /// Optional watchdog integration: invoked on every unit of application
  /// work while healthy.
  void set_heartbeat_hook(std::function<void()> hook) { hb_hook_ = std::move(hook); }

  // --- reintegration checkpoint ---------------------------------------------
  /// Serialize application state for the ST-TCP rejoin snapshot (carried
  /// opaquely). Base: per-connection serve/echo progress keyed by 4-tuple.
  /// Stateful servers (BlockStoreServer) override with their full state.
  virtual net::Bytes checkpoint() const;
  /// Stage a checkpoint received from the survivor. Applied per connection
  /// as the corresponding replica is adopted (its accept callback fires);
  /// adopted connections resume mid-stream instead of starting over.
  virtual void stage_restore(net::BytesView data);
  /// Fresh process after a host reboot: no connections, not hung/crashed.
  /// Registered as a Host boot hook.
  virtual void reset_for_boot();

 protected:
  struct Conn {
    static constexpr std::uint32_t kNoSlot = 0xFFFFFFFF;

    tcp::TcpConnection* tcp = nullptr;
    std::uint64_t to_serve = 0;   // bytes remaining (FileServer)
    std::uint64_t served = 0;     // stream offset of the next byte to write
    net::Bytes echo_pending;      // EchoServer: bytes read but not yet echoed
    bool request_seen = false;
    /// Where a subclass keeps this connection's own state (BlockStoreServer:
    /// its Side's index); kNoSlot until the subclass assigns one.
    std::uint32_t app_slot = kNoSlot;
  };

  virtual void on_accept(Conn& c) = 0;
  virtual void on_data(Conn& c) = 0;
  virtual void on_writable(Conn& c) = 0;
  virtual void on_peer_closed(Conn& c);
  /// The TCP connection finished (any reason) and is about to be forgotten.
  /// Subclasses holding per-connection side state keyed on &c drop (or
  /// ghost) it here.
  virtual void on_conn_gone(Conn&) {}
  /// A connection adopted mid-stream from a staged checkpoint (reintegration)
  /// instead of freshly accepted. Default: resume writing where the
  /// checkpoint left off — correct for every pattern-serving server here.
  virtual void on_adopted(Conn& c) { on_writable(c); }

  /// Write pattern bytes [c.served, c.served+n) as buffer space allows.
  void serve_pattern(Conn& c, std::uint64_t budget);
  bool active() const { return !hung_ && !crashed_; }
  void beat() {
    if (hb_hook_) hb_hook_();
  }

  tcp::TcpStack& stack_;
  std::uint16_t port_;
  std::string name_;
  std::map<tcp::TcpConnection*, std::unique_ptr<Conn>> conns_;
  /// Checkpoint state awaiting its replica, keyed by 4-tuple (stage_restore).
  std::map<tcp::FourTuple, Conn> staged_;
  bool hung_ = false;
  bool crashed_ = false;
  std::function<void()> hb_hook_;
  Stats stats_;
};

/// Streams a fixed-size "file" of pattern bytes to every client as soon as
/// it connects, then closes. The Demo 1/2/3 workload.
class FileServer : public ServerApp {
 public:
  FileServer(tcp::TcpStack& stack, std::uint16_t port, std::uint64_t file_size);

 protected:
  void on_accept(Conn& c) override;
  void on_data(Conn& c) override;
  void on_writable(Conn& c) override;

 private:
  std::uint64_t file_size_;
};

/// Request/response record stream: the client sends 1-byte requests, the
/// server answers each with a fixed-size record of pattern bytes (offsets
/// continue across requests). Exercises the client->server direction too.
class StreamServer : public ServerApp {
 public:
  StreamServer(tcp::TcpStack& stack, std::uint16_t port, std::size_t record_size);

 protected:
  void on_accept(Conn& c) override;
  void on_data(Conn& c) override;
  void on_writable(Conn& c) override;

 private:
  std::size_t record_size_;
};

/// Reads and discards everything (an upload endpoint). With `verify` set it
/// checks the incoming bytes against the shared pattern, so integrity can be
/// asserted on the receiving application across a failover.
class SinkServer : public ServerApp {
 public:
  SinkServer(tcp::TcpStack& stack, std::uint16_t port, bool verify = false);

  bool corrupt() const { return corrupt_; }

 protected:
  void on_accept(Conn& c) override;
  void on_data(Conn& c) override;
  void on_writable(Conn& c) override;

 private:
  bool verify_;
  bool corrupt_ = false;
};

/// Serves exactly the byte count named in the client's fixed 8-byte
/// big-endian request, then closes. The churn workload's server: per-flow
/// heavy-tailed sizes need a per-connection length the replica derives from
/// the replicated input stream alone (keeping primary and backup instances
/// byte-identical), unlike FileServer's constructor-fixed size.
class SizedServer : public ServerApp {
 public:
  SizedServer(tcp::TcpStack& stack, std::uint16_t port);

  /// Wire size of the client's size request.
  static constexpr std::size_t kRequestBytes = 8;

 protected:
  void on_accept(Conn&) override {}
  void on_data(Conn& c) override;
  void on_writable(Conn& c) override;
};

/// Echoes everything it reads. The simplest deterministic app.
class EchoServer : public ServerApp {
 public:
  EchoServer(tcp::TcpStack& stack, std::uint16_t port);

 protected:
  void on_accept(Conn& c) override;
  void on_data(Conn& c) override;
  void on_writable(Conn& c) override;

 private:
  void pump(Conn& c);
};

}  // namespace sttcp::app
