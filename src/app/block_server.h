// app::BlockStoreServer — the real replicated application (ROADMAP item 3,
// docs/APPLICATION.md).
//
// A request/response block service over the length-prefixed envelope
// protocol (envelope.h): OPEN authenticates a session, GET/PUT/DELETE run
// against a block device fronted by an LRU cache with dirty-page writeback
// (block_store.h), CLOSE retires the session. The same class runs on the
// primary (DecisionLog::Mode::kRecord) and the backup (kReplay):
//
//  * The primary executes requests in arrival order. Every nondeterministic
//    choice — cross-connection execution ORDER, session-id draw, response
//    TIMESTAMP, cache EVICTION victim, writeback FLUSH batches — is routed
//    through the decision log (sttcp/decision.h), which the StTcpEndpoint
//    piggybacks on heartbeats.
//  * The backup parses the identical replicated input stream into per-
//    connection queues and executes strictly in decision order: a kOrder
//    record names which connection's next request runs. Before mutating, it
//    pre-computes the request's full decision demand from current state and
//    stalls until every record is present — execution is atomic, so a
//    heartbeat boundary can never split one request's choices.
//  * Output commit: the primary holds each encoded response until the
//    backup's cumulative ack covers the response's last decision (plus a
//    modeled device-read latency per cache miss). A response the client has
//    seen is therefore always reproducible by the survivor.
//  * Takeover: the log promotes; the backlog of replayed-but-unconsumed
//    decisions drains first (the dead primary may have released responses
//    built on them), then fresh requests record fresh decisions. With
//    cfg.drop_cache_on_takeover the promoted cache flushes its dirty pages
//    and drops the rest — the cold-cache failover ablation.
//  * Reintegration: checkpoint()/stage_restore() carry the session table,
//    device, cache (dirty pages included), per-address order counters,
//    decision-log cursor and per-connection parse/response-backlog state —
//    the PR-3 snapshot's first real payload.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "app/block_store.h"
#include "app/digest.h"
#include "app/envelope.h"
#include "app/server.h"
#include "sim/event_loop.h"
#include "sim/random.h"
#include "sttcp/decision.h"

namespace sttcp::app {

struct BlockStoreConfig {
  std::uint32_t blocks = 256;        // device geometry
  std::uint32_t block_size = 512;
  std::size_t cache_capacity = 16;   // pages
  /// Eviction draws the victim at random from this many LRU-tail candidates
  /// (sampled-LRU, the modeled nondeterminism the decision log pins down).
  std::size_t evict_candidates = 4;
  sim::Duration writeback_period = sim::Duration::millis(50);
  std::size_t writeback_batch = 4;   // max pages per flush pass
  /// Modeled device read latency, charged per cache miss to the response's
  /// earliest release time (client-visible on a cold cache).
  sim::Duration device_read_latency = sim::Duration::micros(500);
  std::uint64_t auth_token = 0x5354544350415050ULL;  // "STTCPAPP"
  /// Cold-cache ablation: a promoted backup flushes dirty pages and drops
  /// the rest, so post-failover GETs pay device latency.
  bool drop_cache_on_takeover = false;
  /// How long a promoted primary waits for the bytes of replayed-but-
  /// unexecuted requests (client retransmission) before dropping the
  /// decision backlog.
  sim::Duration promote_drain_grace = sim::Duration::seconds(1);
};

class BlockStoreServer : public ServerApp {
 public:
  struct StoreStats {
    std::uint64_t requests = 0;    // executed (both modes)
    std::uint64_t responses = 0;   // computed (both modes)
    std::uint64_t opens = 0, gets = 0, puts = 0, deletes = 0, closes = 0;
    std::uint64_t bad_status = 0;  // non-OK responses
    std::uint64_t cache_hits = 0, cache_misses = 0;
    std::uint64_t evictions = 0, writebacks = 0;
    std::uint64_t protocol_errors = 0;  // poisoned request streams
    std::uint64_t replay_executed = 0;  // requests run off the decision log
    std::uint64_t replay_mismatch = 0;  // demand/log disagreement (must be 0)
    std::uint64_t ghost_executed = 0;   // replayed for already-closed conns
    std::uint64_t drain_dropped = 0;    // backlog dropped at promote grace
  };

  BlockStoreServer(tcp::TcpStack& stack, std::uint16_t port,
                   BlockStoreConfig cfg, sttcp::DecisionLog::Mode mode);

  /// Wire to the endpoint: ep->set_decision_log(&app.decisions()).
  sttcp::DecisionLog& decisions() { return log_; }
  const BlockStoreConfig& store_config() const { return cfg_; }
  const StoreStats& store_stats() const { return sstats_; }

  /// FNV fold of every response frame this instance COMPUTED (sent or not):
  /// primary and backup must agree at quiesce — the byte-determinism probe.
  std::uint64_t tx_digest() const { return tx_digest_; }
  /// Device + cache + sessions + order counters: equal digests mean the two
  /// instances would serve every future request identically.
  std::uint64_t state_digest() const;
  std::uint64_t store_digest() const { return device_.digest(); }
  std::uint64_t cache_digest() const { return cache_.digest(); }
  std::size_t open_sessions() const { return sessions_.size(); }

  /// Quiesce helper (primary): flush every dirty page through the decision
  /// log so a replaying backup converges to the same device state.
  void flush_all_dirty();

  // --- reintegration ---------------------------------------------------------
  net::Bytes checkpoint() const override;
  void stage_restore(net::BytesView data) override;
  void reset_for_boot() override;

 protected:
  void on_accept(Conn& c) override;
  void on_data(Conn& c) override;
  void on_writable(Conn& c) override;
  void on_peer_closed(Conn& c) override;
  void on_conn_gone(Conn& c) override;

 private:
  /// Encoded-response awaiting emission (primary: commit-gated).
  struct Pending {
    net::Bytes wire;
    std::uint64_t commit_seq = 0;  // last decision seq the response encodes
    sim::SimTime ready_at;         // modeled device latency gate
  };
  /// Per-connection protocol state (ghosted on close while replay work
  /// remains).
  struct Side {
    Decoder decoder;
    std::uint64_t addr_key = 0;   // client ip<<32 | port<<16
    std::uint32_t session = 0;    // session OPENed on this connection
    bool peer_closed = false;
    std::deque<Pending> tx;       // responses not yet fully written
    std::size_t tx_off = 0;       // bytes of tx.front() already written
    std::deque<Envelope> queue;   // replay mode: parsed, awaiting kOrder
    bool protocol_error_counted = false;
  };
  /// A live connection by client address; by_addr_ is sorted by key.
  struct AddrConn {
    std::uint64_t key = 0;
    Conn* conn = nullptr;
  };
  struct Session {
    std::uint64_t addr_key = 0;
    std::uint64_t ops = 0;
  };
  /// A closed connection's unexecuted replay queue: pending kOrder decisions
  /// must still execute (store-state convergence) even though the responses
  /// have nowhere to go.
  struct Ghost {
    std::deque<Envelope> queue;
    std::uint32_t session = 0;
  };
  /// What a request produced. `data` views the cache page, the device or
  /// sid_bytes_, and is valid until the store next changes.
  struct Reply {
    Status status = Status::kOk;
    std::uint64_t timestamp_us = 0;
    net::BytesView data;
  };
  /// The decision kinds a request consumes after its kOrder record.
  struct Demand {
    std::array<sttcp::DecisionKind, 3> kinds{};
    std::size_t size = 0;
  };

  static std::uint64_t addr_key_of(const tcp::FourTuple& t);
  Side& side_of(const Conn& c) const { return *sides_[c.app_slot]; }
  /// The live connection of a client address, or nullptr.
  Conn* conn_at(std::uint64_t key) const;
  /// Run `f` on every live connection in address order.
  template <class F>
  void for_each_conn(F&& f);
  sim::SimTime now() const;
  std::uint64_t now_us() const;

  // Record path: parse + execute in arrival order.
  void pump_record(Conn& c, Side& s);
  void execute_one_record(Conn& c, Side& s, const Envelope& e);
  // Replay path: execute in decision order across all queues/ghosts. Also
  // drives the post-promotion backlog drain (record mode, queue nonempty).
  void pump_exec();
  /// The decision demand (kinds after kOrder) request `e` will consume,
  /// computed from CURRENT state — identical on primary and backup by
  /// induction, which is what makes atomic pre-checked replay sound.
  Demand compute_demand(const Envelope& e, std::uint32_t bound_session) const;
  /// Mirrors of execute()'s control flow, used by compute_demand — any edit
  /// to one must keep the other reachable-condition-identical.
  bool session_ok(const Envelope& e, std::uint32_t bound_session) const;
  bool wants_session(const Envelope& e) const;
  bool wants_evict(const Envelope& e, std::uint32_t bound_session) const;
  /// Execute one request against the store. Every choice comes from
  /// `choose(kind, gen)`, which logs `gen()` or replays a record; `misses`
  /// counts device reads incurred.
  template <class Chooser>
  Reply execute(const Envelope& req, std::uint64_t addr_key,
                std::uint32_t* bound_session, const Chooser& choose,
                std::size_t* misses);
  template <class Chooser>
  void do_evict(const Chooser& choose);
  /// Encode the response to `req` once, fold it into tx_digest_ and queue it
  /// on `s` (none for a ghost).
  void finish_response(Side* s, Conn* c, const Envelope& req, const Reply& reply,
                       std::uint64_t commit_seq, std::size_t misses);

  // Emission (commit + device-latency gated on the primary).
  void pump_send(Conn& c, Side& s);
  void pump_all_send();
  void arm_emit_timer(sim::SimTime when);

  // Primary-side machinery.
  void writeback_tick();
  void on_promoted();
  void finish_promote_drain();
  void apply_cold_cache();

  void fold_tx(net::BytesView wire);
  /// An empty buffer from spare_ (a new one when none is left).
  net::Bytes take_spare();

  BlockStoreConfig cfg_;
  sttcp::DecisionLog log_;
  sim::Rng rng_;
  BlockDevice device_;
  LruBlockCache cache_;
  std::map<std::uint32_t, Session> sessions_;
  /// Per-client-address cumulative executed-request counter — the kOrder
  /// identity. Persists across that address's successive connections (a
  /// recycled ephemeral port continues its count on both replicas).
  std::map<std::uint64_t, std::uint64_t> addr_seq_;

  /// Every live connection's Side, at its Conn::app_slot; freed slots are
  /// null and listed in free_sides_.
  std::vector<std::unique_ptr<Side>> sides_;
  std::vector<std::uint32_t> free_sides_;
  std::vector<AddrConn> by_addr_;
  std::map<std::uint64_t, Ghost> ghosts_;
  /// Checkpointed per-connection state awaiting replica adoption.
  struct StagedSide {
    std::uint32_t session = 0;
    bool peer_closed = false;
    net::Bytes rx_buffered;  // decoder backlog
    net::Bytes tx_backlog;   // flattened unsent response bytes
  };
  std::map<tcp::FourTuple, StagedSide> staged_sides_;

  sim::PeriodicTimer writeback_timer_;
  sim::OneShotTimer emit_timer_;
  sim::OneShotTimer drain_timer_;
  bool cold_cache_pending_ = false;
  /// Promoted but still consuming the replayed-decision backlog: incoming
  /// bytes keep routing through the replay queues until it empties.
  bool promote_draining_ = false;

  Envelope rx_;                           // on_data's decode target
  std::array<std::uint8_t, 4> sid_bytes_{};  // an OPEN reply's data
  /// Buffers of written responses and executed requests, reused for the
  /// next ones.
  std::vector<net::Bytes> spare_;

  std::uint64_t tx_digest_ = kFnvBasis;
  StoreStats sstats_;
};

}  // namespace sttcp::app
