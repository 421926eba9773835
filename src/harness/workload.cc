#include "harness/workload.h"

#include <algorithm>
#include <cmath>

#include "app/pattern.h"
#include "app/server.h"

namespace sttcp::harness {

Workload::Workload(sim::World& world, tcp::TcpStack& stack, net::Ipv4Addr client_ip,
                   net::SocketAddr server, WorkloadConfig cfg)
    : cfg_(std::move(cfg)),
      stack_(stack),
      loop_(world.loop()),
      client_ip_(client_ip),
      server_(server),
      rng_(world.rng().fork()),
      arrival_timer_(loop_),
      phase_timer_(loop_) {}

Workload::~Workload() {
  // Detach callbacks from still-open connections: they outlive us in the
  // stack and must not call into a destroyed generator.
  for (auto& [id, f] : active_) {
    if (f->conn != nullptr) f->conn->set_callbacks({});
  }
}

void Workload::start() {
  started_ = true;
  gen_end_ = now() + cfg_.duration;
  switch (cfg_.arrivals) {
    case WorkloadConfig::Arrivals::kPoisson:
      schedule_next_arrival();
      break;
    case WorkloadConfig::Arrivals::kOnOff:
      enter_phase(true);
      break;
    case WorkloadConfig::Arrivals::kClosedLoop:
      slots_.reserve(cfg_.closed_clients);
      for (std::size_t i = 0; i < cfg_.closed_clients; ++i) {
        slots_.push_back(std::make_unique<Slot>(loop_));
        // Stagger the population's first connects by one think time each so
        // the run does not open with a synchronized SYN burst.
        slots_[i]->timer.arm(draw_exp(cfg_.think_mean),
                             [this, i] { launch_flow(i); });
      }
      break;
  }
}

bool Workload::generation_done() const {
  if (!started_) return false;
  if (now() >= gen_end_) return true;
  return cfg_.max_flows != 0 && stats_.offered >= cfg_.max_flows;
}

std::uint64_t Workload::draw_size() {
  if (cfg_.flow_min_bytes >= cfg_.flow_max_bytes) return cfg_.flow_min_bytes;
  // Bounded-Pareto inverse CDF on [L, H] with shape a:
  //   x = (-(u·Hᵃ − u·Lᵃ − Hᵃ) / (Hᵃ·Lᵃ))^(−1/a)
  const double a = cfg_.pareto_alpha;
  const double la = std::pow(static_cast<double>(cfg_.flow_min_bytes), a);
  const double ha = std::pow(static_cast<double>(cfg_.flow_max_bytes), a);
  const double u = rng_.uniform01();
  const double x = std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / a);
  const auto sized = static_cast<std::uint64_t>(x);
  return std::clamp(sized, cfg_.flow_min_bytes, cfg_.flow_max_bytes);
}

sim::Duration Workload::draw_exp(sim::Duration mean) {
  const double s = rng_.exponential(mean.to_seconds());
  const sim::Duration d = sim::Duration::from_seconds(s);
  return d < sim::Duration::nanos(1) ? sim::Duration::nanos(1) : d;
}

void Workload::schedule_next_arrival() {
  if (generation_done()) return;
  if (cfg_.arrivals == WorkloadConfig::Arrivals::kOnOff && !on_) return;
  arrival_timer_.arm(
      draw_exp(sim::Duration::from_seconds(1.0 / cfg_.arrival_rate_cps)),
      [this] {
        if (generation_done()) return;
        launch_flow(0);
        schedule_next_arrival();
      });
}

void Workload::enter_phase(bool on) {
  on_ = on;
  phase_timer_.arm(draw_exp(on ? cfg_.on_mean : cfg_.off_mean),
                   [this] { enter_phase(!on_); });
  if (on_) {
    schedule_next_arrival();
  } else {
    arrival_timer_.cancel();
  }
}

void Workload::launch_flow(std::size_t slot) {
  ++stats_.offered;
  const std::uint64_t size = draw_size();
  if (active_.size() >= cfg_.max_concurrent) {
    ++stats_.shed;
    if (cfg_.arrivals == WorkloadConfig::Arrivals::kClosedLoop) arm_respawn(slot);
    return;
  }
  const std::uint64_t id = next_flow_id_++;
  auto fl = std::make_unique<Flow>();
  fl->id = id;
  fl->size = size;
  fl->slot = slot;
  fl->target = cfg_.target_for ? cfg_.target_for(id, slot) : server_;
  fl->started = now();
  Flow& f = *fl;
  active_.emplace(id, std::move(fl));
  ++stats_.started;
  ++per_target_[f.target].started;
  stats_.peak_concurrent = std::max(stats_.peak_concurrent, active_.size());

  // Callbacks capture the flow id, never the Flow pointer: on_closed erases
  // the flow from under every other callback.
  tcp::TcpConnection::Callbacks cb;
  cb.on_established = [this, id] { on_flow_established(id); };
  cb.on_readable = [this, id] { on_flow_readable(id); };
  cb.on_peer_closed = [this, id] {
    // Server finished and FINed: drain whatever is left, close our side.
    on_flow_readable(id);
    auto it = active_.find(id);
    if (it != active_.end() && it->second->conn != nullptr) {
      it->second->conn->close();
    }
  };
  cb.on_closed = [this, id](tcp::CloseReason r) { on_flow_closed(id, r); };
  f.conn = &stack_.connect(client_ip_, f.target, std::move(cb));
}

void Workload::arm_respawn(std::size_t slot) {
  if (generation_done()) return;
  slots_[slot]->timer.arm(draw_exp(cfg_.think_mean),
                          [this, slot] { launch_flow(slot); });
}

void Workload::on_flow_established(std::uint64_t id) {
  auto it = active_.find(id);
  if (it == active_.end() || it->second->conn == nullptr) return;
  Flow& f = *it->second;
  connect_us_.record(static_cast<std::uint64_t>((now() - f.started).us()));
  // SizedServer's fixed 8-byte big-endian size request. A fresh connection's
  // send buffer always accepts 8 bytes.
  net::Bytes req(app::SizedServer::kRequestBytes);
  for (std::size_t i = 0; i < req.size(); ++i) {
    req[i] = static_cast<std::uint8_t>(f.size >> (8 * (req.size() - 1 - i)));
  }
  f.conn->send(req);
}

void Workload::on_flow_readable(std::uint64_t id) {
  auto it = active_.find(id);
  if (it == active_.end() || it->second->conn == nullptr) return;
  Flow& f = *it->second;
  f.conn->consume(1 << 20, [&f](net::BytesView in) {
    if (!app::pattern_verify(f.received, in)) f.corrupt = true;
    f.received += in.size();
  });
  if (!f.fct_recorded && f.received >= f.size) {
    f.fct_recorded = true;
    const auto us = static_cast<std::uint64_t>((now() - f.started).us());
    fct_us_.record(us);
    per_target_[f.target].fct_us.record(us);
  }
}

void Workload::on_flow_closed(std::uint64_t id, tcp::CloseReason reason) {
  auto it = active_.find(id);
  if (it == active_.end()) return;
  Flow& f = *it->second;
  f.conn = nullptr;
  const bool ok = reason == tcp::CloseReason::kGraceful && !f.corrupt &&
                  f.received == f.size;
  TargetStats& ts = per_target_[f.target];
  if (ok) {
    ++stats_.completed;
    ++ts.completed;
  } else {
    ++stats_.failed;
    ++ts.failed;
  }
  if (f.corrupt) ++stats_.corrupt;
  if (reason == tcp::CloseReason::kReset) {
    ++stats_.resets;
    ++ts.resets;
  }
  stats_.bytes_received += f.received;
  ts.bytes_received += f.received;
  fold(f.id);
  fold(f.size);
  fold(f.received);
  fold(static_cast<std::uint64_t>(reason) | (f.corrupt ? 0x100u : 0u));
  fold(static_cast<std::uint64_t>(now().ns()));
  const std::size_t slot = f.slot;
  active_.erase(it);
  if (cfg_.arrivals == WorkloadConfig::Arrivals::kClosedLoop) arm_respawn(slot);
}

std::uint64_t Workload::digest() const {
  // Fold the final counters on top of the per-flow stream.
  std::uint64_t d = digest_;
  const auto mix = [&d](std::uint64_t v) { d = (d ^ v) * 0x100000001b3ULL; };
  mix(stats_.offered);
  mix(stats_.started);
  mix(stats_.shed);
  mix(stats_.completed);
  mix(stats_.failed);
  mix(stats_.corrupt);
  mix(stats_.resets);
  mix(stats_.bytes_received);
  mix(stats_.peak_concurrent);
  mix(fct_us_.count());
  mix(fct_us_.sum());
  return d;
}

}  // namespace sttcp::harness
