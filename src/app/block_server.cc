#include "app/block_server.h"

#include <algorithm>

#include "app/digest.h"
#include "net/host.h"
#include "sim/world.h"

namespace sttcp::app {

using sttcp::DecisionKind;
using sttcp::DecisionRecord;

namespace {
std::uint64_t be64(net::BytesView b) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) v = (v << 8) | b[i];
  return v;
}
std::uint32_t be32(net::BytesView b) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) v = (v << 8) | b[i];
  return v;
}

/// The low 16 bits of a kOrder value carry the per-address request index;
/// the rest is the address key.
constexpr std::uint64_t kOrderAddrMask = ~std::uint64_t{0xFFFF};

/// The first entry of a key-sorted table whose key is not below `key`.
template <class Table>
auto at_or_after(Table& table, std::uint64_t key) {
  return std::lower_bound(table.begin(), table.end(), key,
                          [](const auto& e, std::uint64_t k) { return e.key < k; });
}
}  // namespace

BlockStoreServer::BlockStoreServer(tcp::TcpStack& stack, std::uint16_t port,
                                   BlockStoreConfig cfg,
                                   sttcp::DecisionLog::Mode mode)
    : ServerApp(stack, port, "block_store"),
      cfg_(cfg),
      log_(mode),
      rng_(stack.host().world().rng().fork()),
      device_(cfg.blocks, cfg.block_size),
      cache_(cfg.cache_capacity, cfg.block_size),
      writeback_timer_(stack.host().cpu_domain()),
      emit_timer_(stack.host().cpu_domain()),
      drain_timer_(stack.host().cpu_domain()) {
  log_.set_commit_hook([this] { pump_all_send(); });
  log_.set_ingest_hook([this] { pump_exec(); });
  log_.set_promote_hook([this] { on_promoted(); });
  if (log_.recording()) {
    writeback_timer_.start(cfg_.writeback_period, [this] { writeback_tick(); });
  }
}

std::uint64_t BlockStoreServer::addr_key_of(const tcp::FourTuple& t) {
  return (static_cast<std::uint64_t>(t.remote.ip.value()) << 32) |
         (static_cast<std::uint64_t>(t.remote.port) << 16);
}

sim::SimTime BlockStoreServer::now() const {
  return const_cast<BlockStoreServer*>(this)->stack_.host().world().now();
}

std::uint64_t BlockStoreServer::now_us() const {
  return static_cast<std::uint64_t>(now().ns() / 1000);
}

ServerApp::Conn* BlockStoreServer::conn_at(std::uint64_t key) const {
  const auto it = at_or_after(by_addr_, key);
  return it != by_addr_.end() && it->key == key ? it->conn : nullptr;
}

template <class F>
void BlockStoreServer::for_each_conn(F&& f) {
  // Key order, not pointer order: deterministic. `f` may close its
  // connection, so the walk resumes past the last key, not at an index.
  for (auto it = by_addr_.begin(); it != by_addr_.end();) {
    const std::uint64_t key = it->key;
    f(*it->conn);
    it = at_or_after(by_addr_, key + 1);
  }
}

// --- connection lifecycle ----------------------------------------------------

void BlockStoreServer::on_accept(Conn& c) {
  if (free_sides_.empty()) {
    c.app_slot = static_cast<std::uint32_t>(sides_.size());
    sides_.emplace_back();
  } else {
    c.app_slot = free_sides_.back();
    free_sides_.pop_back();
  }
  sides_[c.app_slot] = std::make_unique<Side>();
  Side& s = side_of(c);
  s.addr_key = addr_key_of(c.tcp->tuple());
  const auto it = at_or_after(by_addr_, s.addr_key);
  if (it != by_addr_.end() && it->key == s.addr_key) {
    it->conn = &c;
  } else {
    by_addr_.insert(it, AddrConn{s.addr_key, &c});
  }
  // Reintegration adoption: the snapshot staged this 4-tuple's mid-stream
  // protocol state (ServerApp's base staging is bypassed — checkpoint() is
  // fully overridden here).
  if (auto it = staged_sides_.find(c.tcp->tuple()); it != staged_sides_.end()) {
    s.session = it->second.session;
    s.peer_closed = it->second.peer_closed;
    if (!it->second.rx_buffered.empty()) s.decoder.feed(it->second.rx_buffered);
    if (!it->second.tx_backlog.empty()) {
      // Already-committed response bytes the survivor had not finished
      // writing: nothing to gate, emit as soon as the buffer drains.
      Pending p;
      p.wire = std::move(it->second.tx_backlog);
      p.commit_seq = 0;
      p.ready_at = now();
      s.tx.push_back(std::move(p));
    }
    staged_sides_.erase(it);
    pump_send(c, s);
  }
}

void BlockStoreServer::on_data(Conn& c) {
  Side& s = side_of(c);
  // A poisoned decoder buffers nothing further; the bytes are drained anyway.
  stats_.bytes_read += c.tcp->consume(1 << 20, [&s](net::BytesView in) { s.decoder.feed(in); });
  if (s.decoder.poisoned()) return;
  if (log_.recording() && !promote_draining_) {
    pump_record(c, s);
    return;
  }
  // Replay (or post-promotion drain): park parsed requests until their
  // kOrder decision schedules them.
  while (true) {
    if (rx_.payload.capacity() == 0) rx_.payload = take_spare();
    const Decoder::Result res = s.decoder.next(&rx_);
    if (res == Decoder::Result::kOk) {
      s.queue.push_back(std::move(rx_));
      continue;
    }
    if (res == Decoder::Result::kBad && !s.protocol_error_counted) {
      s.protocol_error_counted = true;
      ++sstats_.protocol_errors;
    }
    break;
  }
  pump_exec();
}

void BlockStoreServer::on_writable(Conn& c) { pump_send(c, side_of(c)); }

void BlockStoreServer::on_peer_closed(Conn& c) {
  Side& s = side_of(c);
  s.peer_closed = true;
  pump_send(c, s);  // closes once tx and queue drain
}

void BlockStoreServer::on_conn_gone(Conn& c) {
  if (c.app_slot == Conn::kNoSlot) return;  // never accepted (app hung)
  Side& s = side_of(c);
  if (!s.queue.empty()) {
    // Unexecuted replicated requests: their kOrder decisions are (or will
    // be) in the log and MUST still run for store convergence. Ghost them.
    Ghost& g = ghosts_[s.addr_key];
    while (!s.queue.empty()) {
      g.queue.push_back(std::move(s.queue.front()));
      s.queue.pop_front();
    }
    g.session = s.session;
  }
  const auto ba = at_or_after(by_addr_, s.addr_key);
  if (ba != by_addr_.end() && ba->key == s.addr_key && ba->conn == &c) {
    by_addr_.erase(ba);
  }
  sides_[c.app_slot].reset();
  free_sides_.push_back(c.app_slot);
}

// --- record path -------------------------------------------------------------

void BlockStoreServer::pump_record(Conn& c, Side& s) {
  bool any = false;
  while (true) {
    const Decoder::Result res = s.decoder.next(&rx_);
    if (res == Decoder::Result::kOk) {
      execute_one_record(c, s, rx_);
      any = true;
      continue;
    }
    if (res == Decoder::Result::kBad) {
      if (!s.protocol_error_counted) {
        s.protocol_error_counted = true;
        ++sstats_.protocol_errors;
      }
      // Fail closed: a desynced framing stream can alias garbage into valid
      // frames. The close replicates to the backup through the tap.
      c.tcp->close();
    }
    break;
  }
  if (any) log_.request_flush();
}

void BlockStoreServer::execute_one_record(Conn& c, Side& s, const Envelope& e) {
  const std::uint64_t key = s.addr_key;
  std::uint64_t& seq = addr_seq_[key];
  log_.choose(DecisionKind::kOrder, [&] { return key | (seq & 0xFFFF); });
  ++seq;
  std::size_t misses = 0;
  std::uint32_t bound = s.session;
  const Reply reply = execute(
      e, key, &bound,
      [this](DecisionKind k, const auto& gen) { return log_.choose(k, gen); },
      &misses);
  s.session = bound;
  finish_response(&s, &c, e, reply, log_.last_seq(), misses);
}

// --- replay / drain path -----------------------------------------------------

void BlockStoreServer::pump_exec() {
  const bool draining = log_.recording();
  if (draining && !promote_draining_) return;
  while (true) {
    const DecisionRecord* r = log_.peek();
    if (r == nullptr) break;
    const auto kind = static_cast<DecisionKind>(r->kind);
    if (kind == DecisionKind::kFlush) {
      // Standalone at the queue head: a writeback pass between requests.
      std::uint64_t n = 0;
      log_.try_take(DecisionKind::kFlush, &n);
      const auto& batch = cache_.oldest_dirty(static_cast<std::size_t>(n));
      for (const std::uint32_t b : batch) cache_.flush(b, device_);
      sstats_.writebacks += batch.size();
      continue;
    }
    if (kind != DecisionKind::kOrder) {
      // The head of a healthy log is always kOrder or kFlush (every other
      // kind is consumed mid-request). Consume to avoid livelock.
      ++sstats_.replay_mismatch;
      std::uint64_t v = 0;
      log_.try_take(kind, &v);
      continue;
    }
    const std::uint64_t key = r->value & kOrderAddrMask;
    const std::uint16_t idx = static_cast<std::uint16_t>(r->value & 0xFFFF);
    // Requests from an address's dead connection precede its live one.
    Ghost* g = nullptr;
    Conn* conn = nullptr;
    Side* s = nullptr;
    std::deque<Envelope>* q = nullptr;
    if (auto git = ghosts_.find(key);
        git != ghosts_.end() && !git->second.queue.empty()) {
      g = &git->second;
      q = &g->queue;
    } else if ((conn = conn_at(key)) != nullptr) {
      s = &side_of(*conn);
      q = &s->queue;
    }
    if (q == nullptr || q->empty()) {
      // Replay: the request bytes are still in flight on the replicated
      // stream. Drain: the client's TCP will retransmit them to us (the
      // promoted stack), or drain_timer_ gives up.
      break;
    }
    std::uint64_t& seq = addr_seq_[key];
    if ((seq & 0xFFFF) != idx) ++sstats_.replay_mismatch;
    std::uint32_t bound = (s != nullptr) ? s->session : g->session;
    if (!draining) {
      // Atomic execution: every decision this request will consume must be
      // queued before we mutate anything. (Post-promotion the backlog is a
      // complete contiguous prefix, and the chooser generates past its end.)
      const Demand demand = compute_demand(q->front(), bound);
      bool stall = false;
      for (std::size_t i = 0; i < demand.size; ++i) {
        const DecisionRecord* a = log_.peek_ahead(i + 1);
        if (a == nullptr) {
          stall = true;
          break;
        }
        if (a->kind != static_cast<std::uint8_t>(demand.kinds[i])) {
          ++sstats_.replay_mismatch;
        }
      }
      if (stall) break;
    }
    std::uint64_t v = 0;
    log_.try_take(DecisionKind::kOrder, &v);
    Envelope e = std::move(q->front());
    q->pop_front();
    ++seq;
    std::size_t misses = 0;
    const auto replay = [this](DecisionKind k, const auto& gen) {
      std::uint64_t val = 0;
      if (log_.try_take(k, &val)) return val;
      ++sstats_.replay_mismatch;
      return gen();
    };
    const auto drain = [this](DecisionKind k, const auto& gen) {
      return log_.choose(k, gen);
    };
    const Reply reply = draining ? execute(e, key, &bound, drain, &misses)
                                 : execute(e, key, &bound, replay, &misses);
    ++sstats_.replay_executed;
    if (s != nullptr) {
      s->session = bound;
      finish_response(s, conn, e, reply, log_.last_seq(), misses);
    } else {
      g->session = bound;
      ++sstats_.ghost_executed;
      finish_response(nullptr, nullptr, e, reply, log_.last_seq(), misses);
      if (g->queue.empty()) ghosts_.erase(key);
    }
    spare_.push_back(std::move(e.payload));
  }
  if (promote_draining_ && log_.recording() && log_.pending_replay() == 0) {
    finish_promote_drain();
  }
}

BlockStoreServer::Demand BlockStoreServer::compute_demand(
    const Envelope& e, std::uint32_t bound_session) const {
  Demand d;
  d.kinds[d.size++] = DecisionKind::kTime;
  if (wants_session(e)) d.kinds[d.size++] = DecisionKind::kSession;
  if (wants_evict(e, bound_session)) d.kinds[d.size++] = DecisionKind::kEvict;
  return d;
}

bool BlockStoreServer::session_ok(const Envelope& e,
                                  std::uint32_t bound_session) const {
  return e.session != 0 && e.session == bound_session &&
         sessions_.count(e.session) != 0;
}

bool BlockStoreServer::wants_session(const Envelope& e) const {
  return e.request_type() == MsgType::kOpen && e.payload.size() == 8 &&
         be64(e.payload) == cfg_.auth_token;
}

bool BlockStoreServer::wants_evict(const Envelope& e,
                                   std::uint32_t bound_session) const {
  if (!session_ok(e, bound_session) || !cache_.full()) return false;
  switch (e.request_type()) {
    case MsgType::kGet: {
      if (e.payload.size() != 4) return false;
      const std::uint32_t b = be32(e.payload);
      return b < device_.blocks() && !cache_.contains(b) &&
             device_.allocated(b);
    }
    case MsgType::kPut: {
      if (e.payload.size() < 4 || e.payload.size() - 4 > device_.block_size())
        return false;
      const std::uint32_t b = be32(e.payload);
      return b < device_.blocks() && !cache_.contains(b);
    }
    default:
      return false;
  }
}

// --- request execution -------------------------------------------------------

template <class Chooser>
void BlockStoreServer::do_evict(const Chooser& choose) {
  const std::uint64_t victim = choose(DecisionKind::kEvict, [this] {
    const auto& cand = cache_.victim_candidates(cfg_.evict_candidates);
    return static_cast<std::uint64_t>(cand[rng_.below(cand.size())]);
  });
  cache_.evict(static_cast<std::uint32_t>(victim), device_);
  ++sstats_.evictions;
}

template <class Chooser>
BlockStoreServer::Reply BlockStoreServer::execute(const Envelope& req,
                                                  std::uint64_t addr_key,
                                                  std::uint32_t* bound_session,
                                                  const Chooser& choose,
                                                  std::size_t* misses) {
  ++sstats_.requests;
  Reply reply;
  reply.timestamp_us = choose(DecisionKind::kTime, [this] { return now_us(); });
  Status& st = reply.status;
  switch (req.request_type()) {
    case MsgType::kOpen: {
      ++sstats_.opens;
      if (req.payload.size() != 8) {
        st = Status::kBadRequest;
        break;
      }
      if (!wants_session(req)) {
        st = Status::kAuthFailed;
        break;
      }
      const std::uint32_t sid =
          static_cast<std::uint32_t>(choose(DecisionKind::kSession, [this] {
            std::uint64_t v = 0;
            do {
              v = rng_.next_u64() & 0xFFFFFFFFULL;
            } while (v == 0 || sessions_.count(static_cast<std::uint32_t>(v)));
            return v;
          }));
      sessions_[sid] = Session{addr_key, 0};
      *bound_session = sid;
      net::ByteWriter(sid_bytes_).u32(sid);
      reply.data = sid_bytes_;
      break;
    }
    case MsgType::kGet: {
      ++sstats_.gets;
      if (!session_ok(req, *bound_session)) {
        st = Status::kBadSession;
        break;
      }
      ++sessions_[req.session].ops;
      if (req.payload.size() != 4) {
        st = Status::kBadRequest;
        break;
      }
      const std::uint32_t b = be32(req.payload);
      if (b >= device_.blocks()) {
        st = Status::kBadRequest;
        break;
      }
      if (const net::BytesView page = cache_.get(b); !page.empty()) {
        ++sstats_.cache_hits;
        reply.data = page;
        break;
      }
      if (!device_.allocated(b)) {
        st = Status::kNotFound;
        break;
      }
      if (cache_.full()) do_evict(choose);
      reply.data = device_.read(b);
      cache_.insert_clean(b, reply.data);
      ++sstats_.cache_misses;
      ++*misses;
      break;
    }
    case MsgType::kPut: {
      ++sstats_.puts;
      if (!session_ok(req, *bound_session)) {
        st = Status::kBadSession;
        break;
      }
      ++sessions_[req.session].ops;
      if (req.payload.size() < 4 ||
          req.payload.size() - 4 > device_.block_size()) {
        st = Status::kBadRequest;
        break;
      }
      const std::uint32_t b = be32(req.payload);
      if (b >= device_.blocks()) {
        st = Status::kBadRequest;
        break;
      }
      if (cache_.contains(b)) {
        ++sstats_.cache_hits;
      } else {
        if (cache_.full()) do_evict(choose);
        ++sstats_.cache_misses;
      }
      // Write-back: the page dirties in cache; the device sees it at the
      // next writeback pass or eviction. No device read -> no miss latency.
      cache_.put(b, net::BytesView(req.payload).subspan(4));
      break;
    }
    case MsgType::kDelete: {
      ++sstats_.deletes;
      if (!session_ok(req, *bound_session)) {
        st = Status::kBadSession;
        break;
      }
      ++sessions_[req.session].ops;
      if (req.payload.size() != 4) {
        st = Status::kBadRequest;
        break;
      }
      const std::uint32_t b = be32(req.payload);
      if (b >= device_.blocks()) {
        st = Status::kBadRequest;
        break;
      }
      if (!cache_.contains(b) && !device_.allocated(b)) {
        st = Status::kNotFound;
        break;
      }
      cache_.drop(b);
      device_.deallocate(b);
      break;
    }
    case MsgType::kClose: {
      ++sstats_.closes;
      if (!session_ok(req, *bound_session)) {
        st = Status::kBadSession;
        break;
      }
      sessions_.erase(req.session);
      *bound_session = 0;
      break;
    }
    default:
      st = Status::kBadRequest;
      break;
  }
  if (st != Status::kOk) ++sstats_.bad_status;
  return reply;
}

void BlockStoreServer::finish_response(Side* s, Conn* c, const Envelope& req,
                                       const Reply& reply,
                                       std::uint64_t commit_seq,
                                       std::size_t misses) {
  net::Bytes wire = take_spare();
  write_response(wire, req, reply.status, reply.timestamp_us, reply.data);
  fold_tx(wire);
  ++sstats_.responses;
  if (s == nullptr || c == nullptr) {  // ghost: state converged, no peer
    spare_.push_back(std::move(wire));
    return;
  }
  s->tx.push_back(Pending{
      std::move(wire), commit_seq,
      now() + cfg_.device_read_latency * static_cast<std::int64_t>(misses)});
  pump_send(*c, *s);
}

// --- emission ----------------------------------------------------------------

void BlockStoreServer::pump_send(Conn& c, Side& s) {
  while (!s.tx.empty()) {
    Pending& p = s.tx.front();
    if (log_.recording()) {
      // Output commit: never release a response whose decisions the backup
      // has not acknowledged (standalone acks trivially), nor before the
      // modeled device reads complete.
      if (p.commit_seq > log_.commit_through()) break;
      if (now() < p.ready_at) {
        arm_emit_timer(p.ready_at);
        break;
      }
    }
    const net::BytesView rest = net::BytesView(p.wire).subspan(s.tx_off);
    const std::size_t n = c.tcp->send(rest);
    stats_.bytes_written += n;
    s.tx_off += n;
    if (s.tx_off < p.wire.size()) return;  // buffer full; resume on_writable
    spare_.push_back(std::move(p.wire));
    s.tx.pop_front();
    s.tx_off = 0;
  }
  if (s.peer_closed && s.tx.empty() && s.queue.empty()) c.tcp->close();
}

void BlockStoreServer::pump_all_send() {
  for_each_conn([this](Conn& c) { pump_send(c, side_of(c)); });
}

void BlockStoreServer::arm_emit_timer(sim::SimTime when) {
  if (emit_timer_.armed() && emit_timer_.deadline() <= when) return;
  emit_timer_.arm_at(when, [this] { pump_all_send(); });
}

// --- primary-side machinery --------------------------------------------------

void BlockStoreServer::writeback_tick() {
  if (!log_.recording() || promote_draining_) return;
  const auto& batch = cache_.oldest_dirty(cfg_.writeback_batch);
  if (batch.empty()) return;
  log_.choose(DecisionKind::kFlush,
              [&] { return static_cast<std::uint64_t>(batch.size()); });
  for (const std::uint32_t b : batch) cache_.flush(b, device_);
  sstats_.writebacks += batch.size();
  log_.request_flush();
}

void BlockStoreServer::flush_all_dirty() {
  if (!log_.recording() || promote_draining_) return;
  const std::size_t n = cache_.dirty_count();
  if (n == 0) return;
  log_.choose(DecisionKind::kFlush,
              [&] { return static_cast<std::uint64_t>(n); });
  sstats_.writebacks += cache_.flush_all(device_);
  log_.request_flush();
}

void BlockStoreServer::on_promoted() {
  promote_draining_ = true;
  cold_cache_pending_ = cfg_.drop_cache_on_takeover;
  if (!writeback_timer_.running()) {
    writeback_timer_.start(cfg_.writeback_period, [this] { writeback_tick(); });
  }
  pump_exec();  // may finish immediately if there is no backlog
  if (promote_draining_ && log_.pending_replay() > 0) {
    drain_timer_.arm(cfg_.promote_drain_grace, [this] {
      // Grace expired: the request bytes behind these decisions are never
      // coming (the client died with the primary). No dependent response
      // can have left the dead primary unacked responses aside — see the
      // promotion argument in sttcp/decision.h — so dropping is safe.
      while (const DecisionRecord* r = log_.peek()) {
        std::uint64_t v = 0;
        log_.try_take(static_cast<DecisionKind>(r->kind), &v);
        ++sstats_.drain_dropped;
      }
      pump_exec();
    });
  }
}

void BlockStoreServer::finish_promote_drain() {
  promote_draining_ = false;
  drain_timer_.cancel();
  for (const auto& [key, g] : ghosts_) sstats_.drain_dropped += g.queue.size();
  ghosts_.clear();
  if (cold_cache_pending_) {
    cold_cache_pending_ = false;
    apply_cold_cache();
  }
  // Requests parsed during the drain whose decisions were gap-dropped are
  // fresh primary work now; serve them in address order.
  bool any = false;
  for_each_conn([this, &any](Conn& c) {
    Side& s = side_of(c);
    while (!s.queue.empty()) {
      const Envelope e = std::move(s.queue.front());
      s.queue.pop_front();
      execute_one_record(c, s, e);
      any = true;
    }
  });
  if (any) log_.request_flush();
  pump_all_send();
}

void BlockStoreServer::apply_cold_cache() {
  sstats_.writebacks += cache_.flush_all(device_);
  cache_.drop_all_clean();
}

// --- digests -----------------------------------------------------------------

net::Bytes BlockStoreServer::take_spare() {
  if (spare_.empty()) return {};
  net::Bytes b = std::move(spare_.back());
  spare_.pop_back();
  b.clear();
  return b;
}

void BlockStoreServer::fold_tx(net::BytesView wire) {
  tx_digest_ = fold_bytes(tx_digest_, wire);
}

std::uint64_t BlockStoreServer::state_digest() const {
  std::uint64_t d = kFnvBasis;
  d = fold(d, device_.digest());
  d = fold(d, cache_.digest());
  for (const auto& [sid, se] : sessions_) {
    d = fold(d, sid);
    d = fold(d, se.addr_key);
    d = fold(d, se.ops);
  }
  for (const auto& [key, n] : addr_seq_) {
    d = fold(d, key);
    d = fold(d, n);
  }
  return d;
}

// --- reintegration -----------------------------------------------------------

net::Bytes BlockStoreServer::checkpoint() const {
  net::Bytes out;
  net::ByteWriter w(out);
  w.u8(1);  // payload version
  const net::Bytes lg = log_.serialize();
  w.u32(static_cast<std::uint32_t>(lg.size()));
  w.bytes(lg);
  device_.serialize(w);
  cache_.serialize(w);
  w.u32(static_cast<std::uint32_t>(sessions_.size()));
  for (const auto& [sid, se] : sessions_) {
    w.u32(sid);
    w.u64(se.addr_key);
    w.u64(se.ops);
  }
  w.u32(static_cast<std::uint32_t>(addr_seq_.size()));
  for (const auto& [key, n] : addr_seq_) {
    w.u64(key);
    w.u64(n);
  }
  // Per-connection protocol state, in address order (deterministic bytes).
  w.u16(static_cast<std::uint16_t>(by_addr_.size()));
  for (const auto& [key, conn] : by_addr_) {
    const Side& s = side_of(*conn);
    const tcp::FourTuple& t = conn->tcp->tuple();
    w.u32(t.remote.ip.value());
    w.u16(t.remote.port);
    w.u32(t.local.ip.value());
    w.u16(t.local.port);
    w.u32(s.session);
    w.u8(s.peer_closed ? 1 : 0);
    const net::BytesView rx = s.decoder.buffered_bytes();
    w.u32(static_cast<std::uint32_t>(rx.size()));
    w.bytes(rx);
    net::Bytes txb;
    if (!s.tx.empty()) {
      const Pending& front = s.tx.front();
      txb.insert(txb.end(), front.wire.begin() + s.tx_off, front.wire.end());
      for (std::size_t i = 1; i < s.tx.size(); ++i) {
        txb.insert(txb.end(), s.tx[i].wire.begin(), s.tx[i].wire.end());
      }
    }
    w.u32(static_cast<std::uint32_t>(txb.size()));
    w.bytes(txb);
  }
  return out;
}

void BlockStoreServer::stage_restore(net::BytesView data) {
  staged_sides_.clear();
  if (data.empty()) return;
  try {
    net::ByteReader r(data);
    if (r.u8() != 1) return;
    const std::uint32_t ln = r.u32();
    log_.restore(r.bytes(ln));
    if (!device_.restore(r)) return;
    if (!cache_.restore(r)) return;
    sessions_.clear();
    const std::uint32_t sn = r.u32();
    for (std::uint32_t i = 0; i < sn; ++i) {
      const std::uint32_t sid = r.u32();
      Session se;
      se.addr_key = r.u64();
      se.ops = r.u64();
      sessions_[sid] = se;
    }
    addr_seq_.clear();
    const std::uint32_t an = r.u32();
    for (std::uint32_t i = 0; i < an; ++i) {
      const std::uint64_t key = r.u64();
      addr_seq_[key] = r.u64();
    }
    const std::uint16_t cn = r.u16();
    for (std::uint16_t i = 0; i < cn; ++i) {
      tcp::FourTuple t;
      const net::Ipv4Addr client_ip(r.u32());
      const std::uint16_t client_port = r.u16();
      t.remote = net::SocketAddr{client_ip, client_port};
      const net::Ipv4Addr local_ip(r.u32());
      const std::uint16_t local_port = r.u16();
      t.local = net::SocketAddr{local_ip, local_port};
      StagedSide ss;
      ss.session = r.u32();
      ss.peer_closed = r.u8() != 0;
      const std::uint32_t rxn = r.u32();
      ss.rx_buffered = net::to_bytes(r.bytes(rxn));
      const std::uint32_t txn = r.u32();
      ss.tx_backlog = net::to_bytes(r.bytes(txn));
      staged_sides_[t] = std::move(ss);
    }
  } catch (const std::exception&) {
    staged_sides_.clear();  // malformed checkpoint: adopt conservatively
  }
}

void BlockStoreServer::reset_for_boot() {
  ServerApp::reset_for_boot();
  // A rebooted node has lost the store; whatever it becomes next, it must
  // resync via the reintegration snapshot — so it always restarts as a
  // replayer and is promoted explicitly if it is ever to record again.
  log_.reset(sttcp::DecisionLog::Mode::kReplay);
  device_ = BlockDevice(cfg_.blocks, cfg_.block_size);
  cache_ = LruBlockCache(cfg_.cache_capacity, cfg_.block_size);
  sessions_.clear();
  addr_seq_.clear();
  sides_.clear();
  free_sides_.clear();
  by_addr_.clear();
  ghosts_.clear();
  staged_sides_.clear();
  writeback_timer_.stop();
  emit_timer_.cancel();
  drain_timer_.cancel();
  cold_cache_pending_ = false;
  promote_draining_ = false;
  tx_digest_ = kFnvBasis;
}

}  // namespace sttcp::app
