#include "harness/block_workload.h"

#include <algorithm>

namespace sttcp::harness {

using app::Decoder;
using app::Envelope;
using app::MsgType;
using app::Status;

BlockWorkload::BlockWorkload(sim::World& world, tcp::TcpStack& stack,
                             net::Ipv4Addr client_ip, net::SocketAddr server,
                             BlockWorkloadConfig cfg)
    : cfg_(std::move(cfg)),
      stack_(stack),
      loop_(world.loop()),
      client_ip_(client_ip),
      server_(server),
      rng_(world.rng().fork()),
      known_(cfg_.clients * cfg_.blocks_per_client, Known::kAbsent),
      pages_(std::make_unique_for_overwrite<std::uint8_t[]>(known_.size() *
                                                            cfg_.block_size)) {}

BlockWorkload::~BlockWorkload() {
  for (auto& c : clients_) {
    if (c->conn != nullptr) c->conn->set_callbacks({});
  }
}

void BlockWorkload::start() {
  started_ = true;
  gen_end_ = now() + cfg_.duration;
  clients_.reserve(cfg_.clients);
  for (std::size_t i = 0; i < cfg_.clients; ++i) {
    clients_.push_back(std::make_unique<Client>(loop_));
    // Stagger first connects so the run does not open with a SYN burst.
    clients_[i]->think.arm(draw_exp(cfg_.think_mean), [this, i] { spawn(i); });
  }
}

bool BlockWorkload::generation_done() const {
  return started_ && now() >= gen_end_;
}

sim::Duration BlockWorkload::draw_exp(sim::Duration mean) {
  const double s = rng_.exponential(mean.to_seconds());
  const sim::Duration d = sim::Duration::from_seconds(s);
  return d < sim::Duration::nanos(1) ? sim::Duration::nanos(1) : d;
}

void BlockWorkload::spawn(std::size_t i) {
  Client& c = *clients_[i];
  const std::uint64_t inc = ++c.incarnation;
  c.decoder = Decoder();
  c.session = 0;
  c.ops_done = 0;
  c.open_sent = false;
  c.close_sent = false;
  c.has_outstanding = false;
  c.tx.clear();
  ++stats_.sessions_started;
  ++open_conns_;

  // Callbacks capture (slot, incarnation), never the connection: a respawned
  // slot must ignore stragglers from its previous connection.
  const auto live = [this, i, inc]() -> Client* {
    Client& cl = *clients_[i];
    return (cl.incarnation == inc && cl.conn != nullptr) ? &cl : nullptr;
  };
  tcp::TcpConnection::Callbacks cb;
  cb.on_established = [this, i, live] {
    Client* cl = live();
    if (cl == nullptr || cl->open_sent) return;
    cl->open_sent = true;
    send_request(*cl, MsgType::kOpen, 0);
  };
  cb.on_readable = [this, i, live] {
    if (live() != nullptr) on_readable(i);
  };
  cb.on_writable = [this, i, live] {
    Client* cl = live();
    if (cl != nullptr) flush_tx(*cl);
  };
  cb.on_peer_closed = [this, i, live] {
    Client* cl = live();
    if (cl == nullptr) return;
    on_readable(i);
    cl = live();
    if (cl != nullptr) cl->conn->close();
  };
  cb.on_closed = [this, i, inc](tcp::CloseReason r) {
    if (clients_[i]->incarnation == inc) on_closed(i, r);
  };
  c.conn = &stack_.connect(client_ip_, server_, std::move(cb));
}

void BlockWorkload::arm_respawn(std::size_t i) {
  if (generation_done()) return;
  clients_[i]->think.arm(draw_exp(cfg_.think_mean), [this, i] { spawn(i); });
}

void BlockWorkload::send_next(std::size_t i) {
  Client& c = *clients_[i];
  if (c.close_sent || c.has_outstanding || c.session == 0) return;
  if (c.ops_done >= cfg_.ops_per_session) {
    c.close_sent = true;
    send_request(c, MsgType::kClose, 0);
    return;
  }
  ++c.ops_done;
  const std::uint32_t block =
      static_cast<std::uint32_t>(i) * cfg_.blocks_per_client +
      static_cast<std::uint32_t>(rng_.below(cfg_.blocks_per_client));
  const double roll = rng_.uniform01();
  if (roll < cfg_.put_prob) {
    const std::size_t len = 1 + static_cast<std::size_t>(
                                    rng_.below(cfg_.block_size));
    c.out.put_data.resize(len);
    for (std::uint8_t& x : c.out.put_data) {
      x = static_cast<std::uint8_t>(rng_.next_u64());
    }
    send_request(c, MsgType::kPut, block);
  } else if (roll < cfg_.put_prob + cfg_.delete_prob) {
    send_request(c, MsgType::kDelete, block);
  } else {
    send_request(c, MsgType::kGet, block);
  }
}

void BlockWorkload::send_request(Client& c, MsgType type, std::uint32_t block) {
  c.has_outstanding = true;
  c.out.type = type;
  c.out.block = block;
  c.out.sent_at = now();
  ++stats_.requests;
  std::size_t len = 0;
  if (type == MsgType::kOpen) {
    len = 8;
  } else if (type != MsgType::kClose) {
    len = 4 + (type == MsgType::kPut ? c.out.put_data.size() : 0);
  }
  const std::size_t start = app::begin_frame(
      c.tx, static_cast<std::uint8_t>(type), c.session, ++c.req_id, len);
  net::ByteWriter w(c.tx);
  if (type == MsgType::kOpen) {
    w.u64(cfg_.auth_token);
  } else if (type != MsgType::kClose) {
    w.u32(block);
    if (type == MsgType::kPut) w.bytes(c.out.put_data);
  }
  app::seal_frame(c.tx, start);
  flush_tx(c);
}

void BlockWorkload::flush_tx(Client& c) {
  if (c.tx.empty() || c.conn == nullptr) return;
  const std::size_t n = c.conn->send(c.tx);
  c.tx.erase(c.tx.begin(), c.tx.begin() + static_cast<std::ptrdiff_t>(n));
}

void BlockWorkload::on_readable(std::size_t i) {
  Client& c = *clients_[i];
  c.conn->consume(1 << 20, [&c](net::BytesView in) { c.decoder.feed(in); });
  if (c.decoder.poisoned()) return;
  while (true) {
    const Decoder::Result res = c.decoder.next(&c.rx);
    if (res == Decoder::Result::kNeedMore) break;
    if (res == Decoder::Result::kBad) {
      ++stats_.protocol_errors;
      if (c.conn != nullptr) c.conn->close();
      break;
    }
    on_response(i, c.rx);
    if (clients_[i]->conn == nullptr) break;  // response handling closed us
  }
}

void BlockWorkload::on_response(std::size_t i, const Envelope& resp) {
  Client& c = *clients_[i];
  if (!c.has_outstanding || !resp.is_response() ||
      resp.request_type() != c.out.type || resp.req_id != c.req_id) {
    ++stats_.protocol_errors;
    if (c.conn != nullptr) c.conn->close();
    return;
  }
  const auto body = app::parse_response_body(resp);
  if (!body) {
    ++stats_.protocol_errors;
    if (c.conn != nullptr) c.conn->close();
    return;
  }
  ++stats_.responses;
  request_us_.record(static_cast<std::uint64_t>((now() - c.out.sent_at).us()));
  c.has_outstanding = false;
  const Status st = body->status;
  const std::uint32_t b = c.out.block;
  fold(resp.req_id);
  fold(static_cast<std::uint64_t>(st));
  digest_ = app::fold_bytes(digest_, body->data);

  // The oracle's page of this block, stored zero-padded the way the server
  // stores it.
  std::uint8_t* const page = pages_.get() + static_cast<std::size_t>(b) * cfg_.block_size;
  const auto learn = [&](net::BytesView d) {
    const std::size_t n = std::min<std::size_t>(d.size(), cfg_.block_size);
    std::copy_n(d.data(), n, page);
    std::fill(page + n, page + cfg_.block_size, 0);
    known_[b] = Known::kPresent;
  };

  switch (c.out.type) {
    case MsgType::kOpen:
      if (st == Status::kOk && body->data.size() == 4) {
        c.session = (static_cast<std::uint32_t>(body->data[0]) << 24) |
                    (static_cast<std::uint32_t>(body->data[1]) << 16) |
                    (static_cast<std::uint32_t>(body->data[2]) << 8) |
                    static_cast<std::uint32_t>(body->data[3]);
        ++stats_.ok;
      } else {
        ++stats_.bad_status;
        if (c.conn != nullptr) c.conn->close();
        return;
      }
      break;
    case MsgType::kGet:
      switch (known_[b]) {
        case Known::kUnknown:
          // Re-learn a block orphaned by a dead connection.
          if (st == Status::kOk) {
            learn(body->data);
            ++stats_.ok;
          } else if (st == Status::kNotFound) {
            known_[b] = Known::kAbsent;
            ++stats_.expected_misses;
          } else {
            known_[b] = Known::kAbsent;
            ++stats_.bad_status;
          }
          break;
        case Known::kPresent:
          if (st == Status::kOk &&
              std::ranges::equal(body->data, net::BytesView(page, cfg_.block_size))) {
            ++stats_.ok;
          } else {
            // Acknowledged bytes came back different (or vanished): the
            // failover lost or reordered committed state.
            ++stats_.mismatches;
          }
          break;
        case Known::kAbsent:
          if (st == Status::kNotFound) {
            ++stats_.expected_misses;
          } else if (st == Status::kOk) {
            ++stats_.mismatches;  // phantom data for a never-written block
          } else {
            ++stats_.bad_status;
          }
          break;
      }
      break;
    case MsgType::kPut:
      if (st == Status::kOk) {
        learn(c.out.put_data);
        ++stats_.ok;
      } else {
        ++stats_.bad_status;
      }
      break;
    case MsgType::kDelete:
      if (known_[b] == Known::kUnknown) {
        known_[b] = Known::kAbsent;
        if (st == Status::kOk || st == Status::kNotFound) {
          ++stats_.ok;
        } else {
          ++stats_.bad_status;
        }
      } else if (st == Status::kOk) {
        known_[b] = Known::kAbsent;
        ++stats_.ok;
      } else if (st == Status::kNotFound && known_[b] == Known::kAbsent) {
        ++stats_.expected_misses;
      } else {
        ++stats_.bad_status;
      }
      break;
    case MsgType::kClose:
      if (st == Status::kOk) {
        ++stats_.ok;
      } else {
        ++stats_.bad_status;
      }
      if (c.conn != nullptr) c.conn->close();
      return;
  }
  send_next(i);
}

void BlockWorkload::on_closed(std::size_t i, tcp::CloseReason reason) {
  Client& c = *clients_[i];
  c.conn = nullptr;
  --open_conns_;
  if (c.has_outstanding &&
      (c.out.type == MsgType::kPut || c.out.type == MsgType::kDelete)) {
    // The mutation may or may not have executed; only a future GET can say.
    known_[c.out.block] = Known::kUnknown;
    ++stats_.unknown_marks;
  }
  // Completed = every op answered, CLOSE acknowledged, graceful FIN.
  const bool completed = reason == tcp::CloseReason::kGraceful &&
                         c.close_sent && !c.has_outstanding;
  if (completed) {
    ++stats_.sessions_completed;
  } else {
    ++stats_.failed;
  }
  if (reason == tcp::CloseReason::kReset) ++stats_.resets;
  fold(c.incarnation);
  fold(static_cast<std::uint64_t>(reason) | (completed ? 0x100u : 0u));
  fold(static_cast<std::uint64_t>(now().ns()));
  arm_respawn(i);
}

std::uint64_t BlockWorkload::digest() const {
  std::uint64_t d = digest_;
  const auto mix = [&d](std::uint64_t v) { d = app::fold(d, v); };
  mix(stats_.requests);
  mix(stats_.responses);
  mix(stats_.ok);
  mix(stats_.expected_misses);
  mix(stats_.bad_status);
  mix(stats_.mismatches);
  mix(stats_.sessions_started);
  mix(stats_.sessions_completed);
  mix(stats_.failed);
  mix(stats_.resets);
  mix(request_us_.count());
  mix(request_us_.sum());
  return d;
}

}  // namespace sttcp::harness
