#include "net/router.h"

#include <algorithm>

#include "net/headers.h"

namespace sttcp::net {

namespace {

/// Network mask for a prefix length (0 -> 0, 32 -> all ones).
constexpr std::uint32_t prefix_mask(int len) {
  return len == 0 ? 0u : ~std::uint32_t{0} << (32 - len);
}

}  // namespace

void RoutingTable::add(Route route) {
  // Keep descending by prefix length so lookup's first hit is the longest
  // match; equal lengths stay in insertion order (stable).
  const auto pos = std::find_if(routes_.begin(), routes_.end(), [&](const Route& r) {
    return r.prefix_len < route.prefix_len;
  });
  routes_.insert(pos, route);
}

const Route* RoutingTable::lookup(Ipv4Addr dst) const {
  for (const Route& r : routes_) {
    const std::uint32_t mask = prefix_mask(r.prefix_len);
    if ((dst.value() & mask) == (r.prefix.value() & mask)) return &r;
  }
  return nullptr;
}

Router::Router(sim::World& world, std::string name)
    : world_(world), name_(std::move(name)), log_(world.logger(name_)) {}

int Router::add_port(Link::Port& link_port, MacAddr mac, Ipv4Addr ip) {
  auto p = std::make_unique<RouterPort>();
  p->router = this;
  p->index = static_cast<int>(ports_.size());
  p->mac = mac;
  p->ip = ip;
  p->out = &link_port;
  link_port.set_sink(p.get());
  ports_.push_back(std::move(p));
  return ports_.back()->index;
}

void Router::add_route(Route route) { table_.add(route); }

void Router::add_connected(Ipv4Addr prefix, int prefix_len, int port) {
  table_.add({prefix, prefix_len, port, Ipv4Addr()});
}

void Router::arp_set(int port, Ipv4Addr ip, MacAddr mac) {
  ports_.at(static_cast<std::size_t>(port))->arp[ip] = mac;
}

void Router::crash() {
  if (!alive_) return;
  alive_ = false;
  log_.warn("router crashed");
  world_.trace().record(name_, "router_crash");
}

void Router::restore() {
  if (alive_) return;
  alive_ = true;
  log_.info("router restored");
  world_.trace().record(name_, "router_restore");
}

bool Router::has_ip(Ipv4Addr ip) const {
  for (const auto& p : ports_) {
    if (p->ip == ip) return true;
  }
  return false;
}

void Router::on_frame(int ingress, Frame frame) {
  if (!alive_) {
    ++stats_.dropped_down;
    return;
  }
  ParsedFrame p;
  try {
    p = parse_frame(frame.view());
  } catch (const std::exception& e) {
    log_.warn("malformed frame: ", e.what());
    return;
  }
  const RouterPort& in = *ports_[static_cast<std::size_t>(ingress)];
  // Routers only process frames addressed to them; a switch may still flood
  // unknown unicast (or multicast) our way.
  if (p.eth.dst != in.mac && !p.eth.dst.is_broadcast()) return;
  if (!p.ip.has_value()) {
    ++stats_.not_ip;
    return;
  }
  const Ipv4Header& ip = *p.ip;

  if (has_ip(ip.dst)) {
    deliver_local(ingress, frame);
    return;
  }

  // TTL check happens before the route lookup, as in a real forwarding path.
  // No ICMP time-exceeded is generated; the drop is accounted instead.
  if (ip.ttl <= 1) {
    ++stats_.ttl_expired;
    world_.trace().record(name_, "ttl_expired", ip.dst.str());
    return;
  }
  const Route* route = table_.lookup(ip.dst);
  if (route == nullptr) {
    ++stats_.no_route;
    log_.debug("no route to ", ip.dst.str());
    return;
  }

  Ipv4Header fwd = ip;
  --fwd.ttl;
  const RouterPort& egress = *ports_[static_cast<std::size_t>(route->port)];
  const Ipv4Addr arp_for = route->next_hop.is_zero() ? ip.dst : route->next_hop;
  const auto a = egress.arp.find(arp_for);
  if (a == egress.arp.end()) {
    ++stats_.arp_miss;
    log_.warn("no ARP entry for ", arp_for.str(), " on port ", route->port);
    return;
  }
  Frame out = Frame::allocate(kIpFrameHeaderSize + p.l4.size());
  ByteWriter w(out.writable());
  EthernetHeader{a->second, egress.mac, kEtherTypeIpv4}.write(w);
  fwd.write(w, p.l4.size());
  w.bytes(p.l4);
  ++stats_.forwarded;
  egress.out->send(std::move(out));
}

void Router::deliver_local(int ingress, const Frame& frame) {
  ++stats_.delivered_local;
  ParsedFrame p = parse_frame(frame.view());
  const Ipv4Header& ip = *p.ip;
  if (ip.protocol != kIpProtoIcmp) return;  // only ICMP echo is terminated here
  const auto echo = IcmpEcho::parse(p.l4);
  if (!echo.has_value() || echo->type != IcmpType::kEchoRequest) return;

  // Answer from the pinged interface IP, routed back toward the source. The
  // common case (ST-TCP gateway arbitration) is a same-subnet ping, where
  // the route resolves to the ingress port.
  const Route* route = table_.lookup(ip.src);
  if (route == nullptr) {
    ++stats_.no_route;
    return;
  }
  const RouterPort& egress = *ports_[static_cast<std::size_t>(route->port)];
  const Ipv4Addr arp_for = route->next_hop.is_zero() ? ip.src : route->next_hop;
  const auto a = egress.arp.find(arp_for);
  if (a == egress.arp.end()) {
    ++stats_.arp_miss;
    return;
  }
  Frame out = Frame::allocate(kIpFrameHeaderSize + IcmpEcho::kSize);
  IcmpEcho{IcmpType::kEchoReply, echo->id, echo->seq}.write(
      out.writable().subspan(kIpFrameHeaderSize));
  write_ip_headers(out.writable(), a->second, egress.mac, ip.dst, ip.src, kIpProtoIcmp);
  egress.out->send(std::move(out));
  (void)ingress;
}

}  // namespace sttcp::net
