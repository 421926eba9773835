#include "app/client.h"

namespace sttcp::app {

DownloadClient::DownloadClient(tcp::TcpStack& stack, net::Ipv4Addr local_ip,
                               std::vector<net::SocketAddr> servers, Options opt)
    : stack_(stack), local_ip_(local_ip), servers_(std::move(servers)), opt_(opt) {
  if (!opt_.stall_timeout.is_zero()) {
    stall_timer_ = std::make_unique<sim::OneShotTimer>(stack_.world().loop());
  }
  if (auto* reg = stack_.world().metrics()) failover_timeline_ = &reg->timeline();
}

DownloadClient::~DownloadClient() = default;


void DownloadClient::start() {
  started_at_ = stack_.world().now();
  timeline_.push_back(Sample{started_at_, 0});
  connect();
}

void DownloadClient::connect() {
  const net::SocketAddr target = servers_[next_server_ % servers_.size()];
  ++connects_;
  conn_received_ = 0;
  if (stall_timer_ != nullptr) {
    stall_timer_->arm(opt_.stall_timeout, [this] {
      if (complete_ || conn_ == nullptr) return;
      stack_.world().trace().record("client", "stall_timeout");
      conn_->abort();
    });
  }
  tcp::TcpConnection::Callbacks cb;
  cb.on_readable = [this] { on_readable(); };
  cb.on_peer_closed = [this] {
    // Server finished the file and closed; close our side.
    if (conn_ != nullptr) conn_->close();
    if (received_ >= opt_.expected_bytes && !complete_) {
      complete_ = true;
      completed_at_ = stack_.world().now();
    }
  };
  cb.on_closed = [this](tcp::CloseReason reason) { on_closed(reason); };
  conn_ = &stack_.connect(local_ip_, target, std::move(cb));
}

void DownloadClient::on_readable() {
  const std::size_t n = conn_->consume(1 << 20, [this](net::BytesView chunk) {
    if (!pattern_verify(conn_received_, chunk)) corrupt_ = true;
    conn_received_ += chunk.size();
  });
  if (n == 0) return;
  if (stall_timer_ != nullptr && !complete_) {
    stall_timer_->arm(opt_.stall_timeout, [this] {
      if (complete_ || conn_ == nullptr) return;
      stack_.world().trace().record("client", "stall_timeout");
      conn_->abort();
    });
  }
  received_ += n;
  if (failover_timeline_ != nullptr) failover_timeline_->client_byte(stack_.world().now());
  timeline_.push_back(Sample{stack_.world().now(), received_});
  if (received_ >= opt_.expected_bytes && !complete_) {
    complete_ = true;
    completed_at_ = stack_.world().now();
  }
}

void DownloadClient::on_closed(tcp::CloseReason reason) {
  conn_ = nullptr;
  if (stall_timer_ != nullptr) stall_timer_->cancel();
  if (complete_) return;
  if (reason != tcp::CloseReason::kGraceful || received_ < opt_.expected_bytes) {
    ++connection_failures_;
    stack_.world().trace().record("client", "connection_failed",
                                  tcp::to_string(reason));
    if (opt_.reconnect) {
      // The baseline behaviour without ST-TCP: start over against the next
      // server. Progress restarts from zero (the FileServer is stateless).
      ++next_server_;
      received_ = 0;
      stack_.world().loop().schedule_after(opt_.reconnect_delay,
                                           [this] { connect(); });
    }
  }
}

sim::Duration DownloadClient::max_stall() const {
  sim::Duration worst = sim::Duration::zero();
  for (std::size_t i = 1; i < timeline_.size(); ++i) {
    const sim::Duration gap = timeline_[i].at - timeline_[i - 1].at;
    if (gap > worst) worst = gap;
  }
  return worst;
}

sim::SimTime DownloadClient::max_stall_start() const {
  sim::Duration worst = sim::Duration::zero();
  sim::SimTime start = started_at_;
  for (std::size_t i = 1; i < timeline_.size(); ++i) {
    const sim::Duration gap = timeline_[i].at - timeline_[i - 1].at;
    if (gap > worst) {
      worst = gap;
      start = timeline_[i - 1].at;
    }
  }
  return start;
}

// --- StreamClient ------------------------------------------------------------

StreamClient::StreamClient(tcp::TcpStack& stack, net::Ipv4Addr local_ip,
                           net::SocketAddr server, std::size_t record_size,
                           int pipeline)
    : stack_(stack),
      local_ip_(local_ip),
      server_(server),
      record_size_(record_size),
      pipeline_(static_cast<std::uint64_t>(pipeline)) {
  if (auto* reg = stack_.world().metrics()) failover_timeline_ = &reg->timeline();
}

void StreamClient::start() {
  tcp::TcpConnection::Callbacks cb;
  cb.on_established = [this] { maybe_request(); };
  cb.on_readable = [this] { on_readable(); };
  cb.on_closed = [this](tcp::CloseReason) {
    closed_ = true;
    conn_ = nullptr;
  };
  conn_ = &stack_.connect(local_ip_, server_, std::move(cb));
}

void StreamClient::stop() {
  stopping_ = true;
  if (conn_ != nullptr) conn_->close();
}

void StreamClient::maybe_request() {
  if (conn_ == nullptr || stopping_) return;
  while (requested_ - received_ / record_size_ < pipeline_) {
    const net::Bytes one(1, 0x52);  // 'R'
    if (conn_->send(one) == 0) break;
    ++requested_;
  }
}

void StreamClient::on_readable() {
  const std::size_t n = conn_->consume(1 << 20, [this](net::BytesView chunk) {
    if (!pattern_verify(received_, chunk)) corrupt_ = true;
    received_ += chunk.size();
  });
  if (n == 0) return;
  if (failover_timeline_ != nullptr) failover_timeline_->client_byte(stack_.world().now());
  rx_times_.push_back(stack_.world().now());
  maybe_request();
}

sim::Duration StreamClient::max_stall() const {
  sim::Duration worst = sim::Duration::zero();
  for (std::size_t i = 1; i < rx_times_.size(); ++i) {
    const sim::Duration gap = rx_times_[i] - rx_times_[i - 1];
    if (gap > worst) worst = gap;
  }
  return worst;
}

}  // namespace sttcp::app
