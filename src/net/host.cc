#include "net/host.h"

#include <algorithm>
#include <cstring>

#include "net/checksum.h"

namespace sttcp::net {

namespace {
/// Ethertype IPv4 + protocol TCP, straight off the wire bytes — cheap enough
/// to ask about every frame while a grey fault is active, never consulted
/// otherwise.
bool is_tcp_frame(const Frame& f) {
  return f.size() >= EthernetHeader::kSize + Ipv4Header::kSize &&
         f[12] == 0x08 && f[13] == 0x00 && f[EthernetHeader::kSize + 9] == 6;
}
}  // namespace

Host::Host(sim::World& world, std::string name)
    : world_(world), name_(std::move(name)), log_(world.logger(name_)),
      cpu_domain_(world.loop()) {}

Host::~Host() = default;

Nic& Host::add_nic(MacAddr mac) {
  auto n = std::make_unique<Nic>(world_, name_ + "/nic" + std::to_string(nics_.size()),
                                 mac);
  n->set_host_sink([this](Frame frame) { on_nic_frame(std::move(frame)); });
  nics_.push_back(std::move(n));
  return *nics_.back();
}

void Host::add_ip(Ipv4Addr ip) {
  if (!has_ip(ip)) local_ips_.push_back(ip);
}

bool Host::has_ip(Ipv4Addr ip) const {
  return std::find(local_ips_.begin(), local_ips_.end(), ip) != local_ips_.end();
}

void Host::arp_set(Ipv4Addr ip, MacAddr mac) { arp_[ip] = mac; }

void Host::crash(const std::string& reason) {
  if (!alive_) return;
  alive_ = false;
  log_.warn("crashed: ", reason);
  world_.trace().record(name_, "host_crash", reason);
  for (auto& n : nics_) n->fail();
  for (auto& [id, p] : pending_pings_) world_.loop().cancel(p.timeout_timer);
  pending_pings_.clear();
  cpu_domain_.clear();  // stalled queued work dies with the machine
  for (auto& hook : crash_hooks_) hook();
}

void Host::power_on() {
  if (alive_) return;
  alive_ = true;
  cpu_busy_until_ = sim::SimTime();
  cpu_domain_.clear();  // a fresh boot is healthy: no lag profile survives
  pending_pings_.clear();
  log_.info("powered on");
  world_.trace().record(name_, "host_boot");
  for (auto& n : nics_) n->heal();
  for (auto& hook : boot_hooks_) hook();
}

bool Host::send_ip_frame(Ipv4Addr src, Ipv4Addr dst, std::uint8_t protocol,
                         Frame frame) {
  if (!alive_ || nics_.empty()) return false;
  const MacAddr* dst_mac = next_hop(dst);
  if (dst_mac == nullptr) {
    log_.warn("no ARP entry for ", dst.str());
    return false;
  }
  Nic& out = *nics_.front();
  write_ip_headers(frame.writable(), *dst_mac, out.mac(), src, dst, protocol);
  ++stats_.packets_out;
  return out.send(std::move(frame));
}

bool Host::send_icmp(Ipv4Addr src, Ipv4Addr dst, const IcmpEcho& echo) {
  Frame frame = Frame::allocate(kIpFrameHeaderSize + IcmpEcho::kSize);
  echo.write(frame.writable().subspan(kIpFrameHeaderSize));
  return send_ip_frame(src, dst, kIpProtoIcmp, std::move(frame));
}

const MacAddr* Host::next_hop(Ipv4Addr dst) {
  auto a = arp_.find(dst);
  if (a != arp_.end()) return &a->second;
  if (has_gateway_) return &gateway_mac_;
  ++stats_.arp_misses;
  return nullptr;
}

void Host::udp_bind(std::uint16_t port, UdpHandler handler) {
  udp_handlers_[port] = std::move(handler);
}

void Host::udp_unbind(std::uint16_t port) { udp_handlers_.erase(port); }

bool Host::udp_send_frame(Ipv4Addr src, std::uint16_t src_port, Ipv4Addr dst,
                          std::uint16_t dst_port, Frame frame) {
  if (!alive_ || nics_.empty()) return false;
  const MacAddr* dst_mac = next_hop(dst);
  if (dst_mac == nullptr) return false;
  Nic& out = *nics_.front();
  const std::span<std::uint8_t> bytes = frame.writable();
  write_udp_header(bytes.subspan(kIpFrameHeaderSize), src, dst, src_port, dst_port);
  write_ip_headers(bytes, *dst_mac, out.mac(), src, dst, kIpProtoUdp);
  ++stats_.packets_out;
  return out.send(std::move(frame));
}

bool Host::udp_send(Ipv4Addr src, std::uint16_t src_port, Ipv4Addr dst,
                    std::uint16_t dst_port, BytesView payload) {
  Frame frame = Frame::allocate(kUdpFrameHeaderSize + payload.size());
  if (!payload.empty()) {
    std::memcpy(frame.writable().data() + kUdpFrameHeaderSize, payload.data(),
                payload.size());
  }
  return udp_send_frame(src, src_port, dst, dst_port, std::move(frame));
}

void Host::ping(Ipv4Addr src, Ipv4Addr dst, sim::Duration timeout, PingCallback cb) {
  if (!alive_) {
    return;  // a dead host issues nothing; callers are dead too
  }
  const std::uint16_t id = next_ping_id_++;
  const bool sent = send_icmp(src, dst, IcmpEcho{IcmpType::kEchoRequest, id, 1});
  PendingPing p;
  p.cb = std::move(cb);
  p.sent_at = world_.now();
  p.timeout_timer = world_.loop().schedule_after(timeout, [this, id] {
    auto it = pending_pings_.find(id);
    if (it == pending_pings_.end()) return;
    PingCallback cb = std::move(it->second.cb);
    pending_pings_.erase(it);
    cb(false, sim::Duration::zero());
  });
  pending_pings_.emplace(id, std::move(p));
  if (!sent) {
    // The request never left (NIC down); the timeout will report failure.
    log_.debug("ping to ", dst.str(), " could not be transmitted");
  }
}

void Host::set_l4_handler(std::uint8_t protocol, L4Handler handler) {
  l4_handlers_[protocol] = std::move(handler);
}

void Host::on_nic_frame(Frame frame) {
  if (!alive_) return;
  // Grey-failure CPU stall: while the domain is lagged, TCP frames wait for
  // the CPU like the rest of the data path (they surface, in arrival order,
  // when the stall window ends). UDP and ICMP stay inline: the heartbeat
  // daemon runs at real-time priority (paper §3), which is exactly what
  // makes a stalled host *grey* — it keeps heartbeating while the progress
  // counters carried in those heartbeats freeze.
  if (cpu_domain_.lagged() && is_tcp_frame(frame)) {
    cpu_domain_.schedule_at(world_.now(), [this, frame = std::move(frame)] {
      if (alive_) dispatch_frame(frame);
    });
    return;
  }
  dispatch_frame(std::move(frame));
}

void Host::dispatch_frame(Frame frame) {
  if (cpu_packet_time_.is_zero()) {
    process_frame(frame);
    return;
  }
  // Model a busy CPU: packets are processed serially, each costing
  // cpu_packet_time_ — a slower host falls behind under load. Queueing the
  // Frame keeps the shared buffer alive without copying it.
  sim::SimTime start = world_.now();
  if (cpu_busy_until_ > start) start = cpu_busy_until_;
  cpu_busy_until_ = start + cpu_packet_time_;
  world_.loop().schedule_at(cpu_busy_until_, [this, frame = std::move(frame)] {
    if (alive_) process_frame(frame);
  });
}

void Host::process_frame(const Frame& frame) {
  if (rx_tap_) rx_tap_(frame);
  ParsedFrame p;
  try {
    p = parse_frame(frame.view());
  } catch (const std::exception& e) {
    log_.warn("malformed frame: ", e.what());
    return;
  }
  if (!p.ip.has_value()) return;  // only IPv4 is modeled
  const Ipv4Header& ip = *p.ip;
  if (!has_ip(ip.dst)) {
    ++stats_.not_local;
    return;
  }
  ++stats_.packets_in;
  switch (ip.protocol) {
    case kIpProtoIcmp:
      handle_icmp(ip, p.l4);
      break;
    case kIpProtoUdp:
      handle_udp(ip, p.l4);
      break;
    default: {
      auto it = l4_handlers_.find(ip.protocol);
      if (it != l4_handlers_.end()) it->second(ip, p.l4, frame);
      break;
    }
  }
}

void Host::handle_icmp(const Ipv4Header& ip, BytesView l4) {
  auto echo = IcmpEcho::parse(l4);
  if (!echo.has_value()) return;
  if (echo->type == IcmpType::kEchoRequest) {
    send_icmp(ip.dst, ip.src, IcmpEcho{IcmpType::kEchoReply, echo->id, echo->seq});
    return;
  }
  // Echo reply: complete a pending ping.
  auto it = pending_pings_.find(echo->id);
  if (it == pending_pings_.end()) return;
  world_.loop().cancel(it->second.timeout_timer);
  PingCallback cb = std::move(it->second.cb);
  const sim::Duration rtt = world_.now() - it->second.sent_at;
  pending_pings_.erase(it);
  cb(true, rtt);
}

void Host::handle_udp(const Ipv4Header& ip, BytesView l4) {
  ByteReader r(l4);
  UdpHeader uh;
  try {
    uh = UdpHeader::read(r);
  } catch (const std::exception&) {
    return;
  }
  if (uh.checksum != 0) {
    if (transport_checksum(ip.src, ip.dst, kIpProtoUdp, l4) != 0) {
      ++stats_.udp_checksum_drops;
      log_.warn("bad UDP checksum from ", ip.src.str());
      return;
    }
  }
  auto it = udp_handlers_.find(uh.dst_port);
  if (it == udp_handlers_.end()) return;
  it->second(ip.src, uh.src_port, r.rest());
}

PowerController::PowerController(sim::World& world)
    : world_(world), log_(world.logger("power")) {}

void PowerController::register_host(Host& host) { hosts_[host.name()] = &host; }

bool PowerController::power_off(const std::string& name) {
  if (!functional_) {
    log_.warn("power controller not functional; cannot power off ", name);
    return false;
  }
  auto it = hosts_.find(name);
  if (it == hosts_.end()) return false;
  ++power_off_count_;
  world_.trace().record("power", "power_off", name);
  it->second->crash("powered off (STONITH)");
  return true;
}

}  // namespace sttcp::net
