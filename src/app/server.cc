#include "app/server.h"

namespace sttcp::app {

ServerApp::ServerApp(tcp::TcpStack& stack, std::uint16_t port, std::string name)
    : stack_(stack), port_(port), name_(std::move(name)) {
  stack_.listen(port_, [this](tcp::TcpConnection& conn) {
    if (crashed_) return;  // a dead process accepts nothing
    auto c = std::make_unique<Conn>();
    c->tcp = &conn;
    Conn& ref = *c;
    conns_.emplace(&conn, std::move(c));
    ++stats_.connections_accepted;

    tcp::TcpConnection::Callbacks cb;
    cb.on_readable = [this, &ref] {
      if (active()) {
        beat();
        on_data(ref);
      }
    };
    cb.on_writable = [this, &ref] {
      if (active()) {
        beat();
        on_writable(ref);
      }
    };
    cb.on_peer_closed = [this, &ref] {
      if (active()) on_peer_closed(ref);
    };
    cb.on_closed = [this, &ref](tcp::CloseReason) {
      ++stats_.connections_closed;
      on_conn_gone(ref);
      conns_.erase(ref.tcp);
    };
    conn.set_callbacks(std::move(cb));

    // Reintegration: if a checkpoint is staged for this 4-tuple, this is a
    // mid-stream adoption, not a fresh client — resume where the survivor's
    // instance stands instead of serving from the beginning.
    if (auto it = staged_.find(conn.tuple()); it != staged_.end()) {
      ref.to_serve = it->second.to_serve;
      ref.served = it->second.served;
      ref.request_seen = it->second.request_seen;
      ref.echo_pending = std::move(it->second.echo_pending);
      staged_.erase(it);
      if (active()) {
        beat();
        on_adopted(ref);
      }
      return;
    }
    if (active()) {
      beat();
      on_accept(ref);
    }
  });
  stack_.host().add_boot_hook([this] { reset_for_boot(); });
}

void ServerApp::hang() { hung_ = true; }

void ServerApp::crash_clean() {
  if (crashed_) return;
  crashed_ = true;
  // The OS reaps the process: every socket is closed gracefully (FIN).
  for (auto& [tcp_conn, c] : conns_) tcp_conn->close();
}

void ServerApp::crash_abort() {
  if (crashed_) return;
  crashed_ = true;
  // Collect first: abort() can destroy entries under our feet.
  std::vector<tcp::TcpConnection*> victims;
  victims.reserve(conns_.size());
  for (auto& [tcp_conn, c] : conns_) victims.push_back(tcp_conn);
  for (auto* v : victims) v->abort();
}

net::Bytes ServerApp::checkpoint() const {
  net::Bytes out;
  net::ByteWriter w(out);
  w.u16(static_cast<std::uint16_t>(conns_.size()));
  for (const auto& [tcp_conn, c] : conns_) {
    const tcp::FourTuple& t = tcp_conn->tuple();
    w.u32(t.remote.ip.value());
    w.u16(t.remote.port);
    w.u32(t.local.ip.value());
    w.u16(t.local.port);
    w.u64(c->to_serve);
    w.u64(c->served);
    w.u8(c->request_seen ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(c->echo_pending.size()));
    w.bytes(c->echo_pending);
  }
  return out;
}

void ServerApp::stage_restore(net::BytesView data) {
  staged_.clear();
  if (data.empty()) return;
  try {
    net::ByteReader r(data);
    const std::uint16_t count = r.u16();
    for (std::uint16_t i = 0; i < count; ++i) {
      tcp::FourTuple t;
      const net::Ipv4Addr client_ip(r.u32());
      const std::uint16_t client_port = r.u16();
      t.remote = net::SocketAddr{client_ip, client_port};
      const net::Ipv4Addr local_ip(r.u32());
      const std::uint16_t local_port = r.u16();
      t.local = net::SocketAddr{local_ip, local_port};
      Conn c;
      c.to_serve = r.u64();
      c.served = r.u64();
      c.request_seen = r.u8() != 0;
      const std::uint32_t echo_len = r.u32();
      c.echo_pending = net::to_bytes(r.bytes(echo_len));
      staged_[t] = std::move(c);
    }
  } catch (const std::exception&) {
    staged_.clear();  // malformed checkpoint: adopt conservatively from zero
  }
}

void ServerApp::reset_for_boot() {
  conns_.clear();
  staged_.clear();
  hung_ = false;
  crashed_ = false;
}

void ServerApp::on_peer_closed(Conn& c) {
  // Default: when the client closes and we owe nothing more, close too.
  if (c.to_serve == 0) c.tcp->close();
}

void ServerApp::serve_pattern(Conn& c, std::uint64_t budget) {
  while (budget > 0) {
    // Offer only what the send buffer will accept, straight from the
    // pattern table: the buffer copies it, so nothing is allocated here.
    std::size_t chunk =
        static_cast<std::size_t>(std::min<std::uint64_t>(budget, 16384));
    chunk = std::min(chunk, c.tcp->send_space());
    if (chunk == 0) return;  // send buffer full; resume on_writable
    const std::size_t n = c.tcp->send(pattern_view(c.served, chunk));
    stats_.bytes_written += n;
    c.served += n;
    budget -= n;
    if (n < chunk) return;  // send buffer full; resume on_writable
  }
}

// --- FileServer --------------------------------------------------------------

FileServer::FileServer(tcp::TcpStack& stack, std::uint16_t port,
                       std::uint64_t file_size)
    : ServerApp(stack, port, "file_server"), file_size_(file_size) {}

void FileServer::on_accept(Conn& c) {
  c.to_serve = file_size_;
  on_writable(c);
}

void FileServer::on_data(Conn& c) {
  // A file server ignores (but drains) client chatter.
  stats_.bytes_read += c.tcp->consume(1 << 20, [](net::BytesView) {});
}

void FileServer::on_writable(Conn& c) {
  if (c.to_serve == 0) return;
  const std::uint64_t before = c.served;
  serve_pattern(c, c.to_serve);
  c.to_serve -= c.served - before;
  if (c.to_serve == 0) c.tcp->close();
}

// --- StreamServer ------------------------------------------------------------

StreamServer::StreamServer(tcp::TcpStack& stack, std::uint16_t port,
                           std::size_t record_size)
    : ServerApp(stack, port, "stream_server"), record_size_(record_size) {}

void StreamServer::on_accept(Conn&) {}

void StreamServer::on_data(Conn& c) {
  const std::size_t reqs = c.tcp->consume(1 << 20, [](net::BytesView) {});
  stats_.bytes_read += reqs;
  // Each request byte buys one record.
  c.to_serve += reqs * record_size_;
  on_writable(c);
}

void StreamServer::on_writable(Conn& c) {
  if (c.to_serve == 0) return;
  const std::uint64_t before = c.served;
  serve_pattern(c, c.to_serve);
  c.to_serve -= c.served - before;
}

// --- SinkServer --------------------------------------------------------------

SinkServer::SinkServer(tcp::TcpStack& stack, std::uint16_t port, bool verify)
    : ServerApp(stack, port, "sink_server"), verify_(verify) {}

void SinkServer::on_accept(Conn&) {}

void SinkServer::on_data(Conn& c) {
  stats_.bytes_read += c.tcp->consume(1 << 20, [this, &c](net::BytesView in) {
    if (verify_ && !pattern_verify(c.served, in)) corrupt_ = true;
    c.served += in.size();  // read offset (SinkServer writes nothing)
  });
}

void SinkServer::on_writable(Conn&) {}

// --- SizedServer -------------------------------------------------------------

SizedServer::SizedServer(tcp::TcpStack& stack, std::uint16_t port)
    : ServerApp(stack, port, "sized_server") {}

void SizedServer::on_data(Conn& c) {
  // Accumulate the 8-byte request; it may straddle segments. echo_pending is
  // reused as the accumulator so the reintegration checkpoint carries a
  // partial request across a snapshot without new fields. Trailing client
  // bytes after the request are drained and ignored.
  stats_.bytes_read += c.tcp->consume(1 << 20, [&c](net::BytesView in) {
    if (!c.request_seen) c.echo_pending.insert(c.echo_pending.end(), in.begin(), in.end());
  });
  if (c.request_seen || c.echo_pending.size() < kRequestBytes) return;
  std::uint64_t size = 0;
  for (std::size_t i = 0; i < kRequestBytes; ++i) {
    size = (size << 8) | c.echo_pending[i];
  }
  c.echo_pending.clear();
  c.request_seen = true;
  c.to_serve = size;
  on_writable(c);
}

void SizedServer::on_writable(Conn& c) {
  if (!c.request_seen) return;
  const std::uint64_t before = c.served;
  serve_pattern(c, c.to_serve);
  c.to_serve -= c.served - before;
  if (c.to_serve == 0) c.tcp->close();
}

// --- EchoServer --------------------------------------------------------------

EchoServer::EchoServer(tcp::TcpStack& stack, std::uint16_t port)
    : ServerApp(stack, port, "echo_server") {}

void EchoServer::on_accept(Conn&) {}

void EchoServer::on_data(Conn& c) {
  stats_.bytes_read += c.tcp->consume(1 << 20, [&c](net::BytesView in) {
    c.echo_pending.insert(c.echo_pending.end(), in.begin(), in.end());
  });
  pump(c);
}

void EchoServer::on_writable(Conn& c) { pump(c); }

void EchoServer::pump(Conn& c) {
  if (c.echo_pending.empty()) return;
  const std::size_t n = c.tcp->send(c.echo_pending);
  stats_.bytes_written += n;
  c.echo_pending.erase(c.echo_pending.begin(), c.echo_pending.begin() + n);
}

}  // namespace sttcp::app
