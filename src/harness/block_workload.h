// Closed-loop block-store clients speaking the envelope protocol — the
// request/response counterpart of the byte-stream Workload.
//
// A fixed population of clients each loops:
//
//   connect -> OPEN(token) -> N ops (GET/PUT/DELETE, one outstanding)
//           -> CLOSE -> close -> think -> reconnect
//
// Every client owns a disjoint block range, so the per-workload ORACLE —
// the client-side model of what each block must contain — is race-free:
// after a PUT-OK the oracle expects those bytes, after a DELETE-OK it
// expects NotFound, and every GET response is checked byte-exact against
// it. The oracle persists across sessions and across failovers, which is
// exactly the point: a GET served by the promoted backup must return the
// bytes a PUT acknowledged by the dead primary wrote.
//
// Response-exactness under ST-TCP's output-commit gate makes the oracle
// sound: a mutation's response is released only once the backup holds its
// decisions, so an acknowledged write is never lost. The one ambiguity a
// client can face — a connection dying with a mutation outstanding — is
// handled the way a real client must: the block's content becomes UNKNOWN
// until the next successful GET re-learns it. In a masked (survivable)
// scenario that path should never trigger; `mismatches` must be zero in
// any scenario.
//
// Deterministic like everything in the harness: one forked Rng drives ops,
// payloads and think times, so (seed, config) -> bit-identical run.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>

#include "app/envelope.h"
#include "obs/metrics.h"
#include "sim/event_loop.h"
#include "sim/random.h"
#include "tcp/stack.h"

namespace sttcp::harness {

struct BlockWorkloadConfig {
  /// Closed-loop population; client i owns blocks
  /// [i * blocks_per_client, (i+1) * blocks_per_client).
  std::size_t clients = 8;
  std::uint32_t blocks_per_client = 16;
  std::uint32_t block_size = 512;  // must match the server's geometry
  /// Ops per session between OPEN and CLOSE.
  std::uint32_t ops_per_session = 16;
  sim::Duration think_mean = sim::Duration::millis(20);
  sim::Duration duration = sim::Duration::seconds(5);
  /// Op mix: PUT with put_prob, DELETE with delete_prob, GET otherwise.
  double put_prob = 0.35;
  double delete_prob = 0.05;
  std::uint64_t auth_token = 0x5354544350415050ULL;  // BlockStoreConfig default
};

class BlockWorkload {
 public:
  struct Stats {
    std::uint64_t requests = 0;       // sent
    std::uint64_t responses = 0;      // received and parsed
    std::uint64_t ok = 0;             // Status::kOk
    std::uint64_t expected_misses = 0;  // kNotFound the oracle predicted
    std::uint64_t bad_status = 0;     // any status the oracle did not predict
    std::uint64_t mismatches = 0;     // GET data != oracle (NEVER allowed)
    std::uint64_t protocol_errors = 0;  // response framing violations
    std::uint64_t sessions_started = 0;
    std::uint64_t sessions_completed = 0;  // full op count + CLOSE-OK + FIN
    std::uint64_t failed = 0;         // sessions ended any other way
    std::uint64_t resets = 0;         // sessions closed by RST
    std::uint64_t unknown_marks = 0;  // mutations orphaned by a dead conn
  };

  BlockWorkload(sim::World& world, tcp::TcpStack& stack,
                net::Ipv4Addr client_ip, net::SocketAddr server,
                BlockWorkloadConfig cfg);
  ~BlockWorkload();
  BlockWorkload(const BlockWorkload&) = delete;
  BlockWorkload& operator=(const BlockWorkload&) = delete;

  void start();

  bool generation_done() const;
  /// Generation finished AND every client's connection has closed.
  bool drained() const { return generation_done() && open_conns_ == 0; }

  const Stats& stats() const { return stats_; }
  const BlockWorkloadConfig& config() const { return cfg_; }

  /// Client-visible request latency (send -> response parsed), microseconds.
  /// The cold-cache failover scenario reads its tail from here.
  const obs::Histogram& request_us() const { return request_us_; }
  /// Order-sensitive fold of every response outcome plus final counters.
  std::uint64_t digest() const;

 private:
  struct Outstanding {
    app::MsgType type = app::MsgType::kOpen;
    std::uint32_t block = 0;
    net::Bytes put_data;  // kPut: bytes the oracle learns on OK
    sim::SimTime sent_at;
  };
  /// One closed-loop client (population slot). The slot survives across its
  /// successive sessions; the connection and session state do not.
  struct Client {
    Client(sim::EventLoop& loop) : think(loop) {}
    sim::OneShotTimer think;
    tcp::TcpConnection* conn = nullptr;
    std::uint64_t incarnation = 0;  // guards stale callbacks after respawn
    app::Decoder decoder;
    std::uint32_t session = 0;
    std::uint32_t req_id = 0;
    std::uint32_t ops_done = 0;
    bool open_sent = false;
    bool close_sent = false;
    bool has_outstanding = false;
    Outstanding out;
    net::Bytes tx;  // unsent request bytes (send-buffer backpressure)
  };

  sim::SimTime now() const { return loop_.now(); }
  sim::Duration draw_exp(sim::Duration mean);
  void spawn(std::size_t i);
  void arm_respawn(std::size_t i);
  void send_next(std::size_t i);
  void send_frame(Client& c, const app::Envelope& e);
  void flush_tx(Client& c);
  void on_readable(std::size_t i);
  void on_response(std::size_t i, const app::Envelope& resp);
  void on_closed(std::size_t i, tcp::CloseReason reason);
  void fold(std::uint64_t v) { digest_ = (digest_ ^ v) * 0x100000001b3ULL; }
  void fold_bytes(net::BytesView b) {
    for (const std::uint8_t x : b) fold(x);
  }

  BlockWorkloadConfig cfg_;
  tcp::TcpStack& stack_;
  sim::EventLoop& loop_;
  net::Ipv4Addr client_ip_;
  net::SocketAddr server_;
  sim::Rng rng_;

  std::vector<std::unique_ptr<Client>> clients_;
  std::size_t open_conns_ = 0;
  sim::SimTime gen_end_;
  bool started_ = false;

  /// The oracle: expected device content per block. Absent = NotFound.
  std::map<std::uint32_t, net::Bytes> expected_;
  /// Blocks orphaned by a connection that died with a mutation outstanding:
  /// any response is accepted once, and the oracle re-learns from it.
  std::set<std::uint32_t> unknown_;

  Stats stats_;
  obs::Histogram request_us_;
  std::uint64_t digest_ = 0xcbf29ce484222325ULL;
};

}  // namespace sttcp::harness
