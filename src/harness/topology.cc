#include "harness/topology.h"

#include <algorithm>
#include <stdexcept>

#include "harness/fnv.h"

namespace sttcp::harness {

// --- Topology ---------------------------------------------------------------

Topology::Topology(TopologyConfig cfg) : cfg_(std::move(cfg)) {
  worlds_.push_back(
      std::make_unique<sim::World>(cfg_.seed, cfg_.log_out, cfg_.log_level));
  if (cfg_.enable_metrics) {
    metrics_ = std::make_unique<obs::MetricsRegistry>();
    worlds_[0]->set_metrics(metrics_.get());  // components bind as they construct
  }
  power_.push_back(std::make_unique<net::PowerController>(*worlds_[0]));
  power_shards_.push_back(0);
}

Topology::~Topology() = default;

void Topology::run_for(sim::Duration d) {
  if (worlds_.size() == 1) {
    worlds_[0]->loop().run_for(d);
    return;
  }
  ensure_executor();
  executor_->run_until(worlds_[0]->loop().now() + d);
}

void Topology::set_threads(int n) {
  threads_ = n < 1 ? 1 : n;
  executor_.reset();  // rebuilt with the new pool on the next run_for
}

sim::Duration Topology::lookahead() const {
  sim::Duration la = sim::Duration::zero();
  for (const TrunkEntry& t : trunks_) {
    if (la == sim::Duration::zero() || t.latency < la) la = t.latency;
  }
  // Trunkless multi-shard fabrics never exchange messages; any positive
  // window works, so reuse the default link latency.
  return la == sim::Duration::zero() ? cfg_.link_latency : la;
}

void Topology::ensure_executor() {
  if (executor_ != nullptr) return;
  std::vector<sim::ParallelExecutor::Shard> shards;
  shards.reserve(worlds_.size());
  for (std::size_t k = 0; k < worlds_.size(); ++k) {
    sim::ParallelExecutor::Shard s;
    s.loop = &worlds_[k]->loop();
    // Drain every trunk ending in shard k, in trunk creation order — a fixed
    // injection order is part of the determinism contract.
    s.drain = [this, k](sim::SimTime horizon) {
      for (TrunkEntry& t : trunks_) {
        if (t.shard_a == static_cast<int>(k)) t.channel->drain_into_a(horizon);
        if (t.shard_b == static_cast<int>(k)) t.channel->drain_into_b(horizon);
      }
    };
    shards.push_back(std::move(s));
  }
  executor_ = std::make_unique<sim::ParallelExecutor>(std::move(shards),
                                                      lookahead(), threads_);
}

Topology::HostEntry* Topology::host_by_name(const std::string& name) {
  for (HostEntry& h : hosts_) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

net::Link* Topology::make_link(const std::string& name, std::uint64_t bandwidth_bps) {
  auto link = std::make_unique<net::Link>(build_world(), cfg_.link_latency, bandwidth_bps);
  // The registry is single-threaded; only shard 0's components bind live
  // instruments (export_metrics still reads every shard's stats at rest).
  if (metrics_ != nullptr && build_shard_ == 0) {
    link->bind_metrics(*metrics_, "net.link." + name);
  }
  links_.push_back(std::move(link));
  link_names_.push_back(name);
  link_shards_.push_back(build_shard_);
  return links_.back().get();
}

void Topology::export_metrics() {
  if (metrics_ == nullptr) return;
  obs::MetricsRegistry& reg = *metrics_;

  for (std::size_t i = 0; i < links_.size(); ++i) {
    const net::Link::Stats& s = links_[i]->stats();
    const std::string p = "net.link." + link_names_[i];
    reg.counter(p + ".frames_sent").set(s.frames_sent);
    reg.counter(p + ".frames_delivered").set(s.frames_delivered);
    reg.counter(p + ".frames_dropped").set(s.frames_dropped);
    reg.counter(p + ".bytes_delivered").set(s.bytes_delivered);
    // Impairment engines exist only on links a fault (or checker) touched.
    if (const net::Impairment* imp = links_[i]->impairment_ptr()) {
      const net::Impairment::Stats& is = imp->stats();
      reg.counter(p + ".impair.burst_dropped").set(is.burst_dropped);
      reg.counter(p + ".impair.corrupted").set(is.corrupted);
      reg.counter(p + ".impair.duplicated").set(is.duplicated);
      reg.counter(p + ".impair.reordered").set(is.reordered);
    }
  }

  for (std::size_t i = 0; i < switches_.size(); ++i) {
    // Switch 0 keeps the classic un-qualified names.
    const std::string p =
        i == 0 ? "net.switch." : "net.switch." + switch_names_[i] + ".";
    const net::EthernetSwitch::Stats& sw = switches_[i]->stats();
    reg.counter(p + "forwarded").set(sw.forwarded);
    reg.counter(p + "flooded").set(sw.flooded);
    reg.counter(p + "multicast").set(sw.multicast);
  }

  for (const auto& r : routers_) {
    const std::string p = "net.router." + r->name() + ".";
    const net::Router::Stats& s = r->stats();
    reg.counter(p + "forwarded").set(s.forwarded);
    reg.counter(p + "delivered_local").set(s.delivered_local);
    reg.counter(p + "no_route").set(s.no_route);
    reg.counter(p + "ttl_expired").set(s.ttl_expired);
    reg.counter(p + "arp_miss").set(s.arp_miss);
    reg.counter(p + "dropped_down").set(s.dropped_down);
  }

  for (const auto& c : cells_) {
    const std::string p =
        c->name().empty() ? "net.serial." : "net.serial." + c->name() + ".";
    const net::SerialLink::Stats& se = c->serial().stats();
    reg.counter(p + "messages_sent").set(se.messages_sent);
    reg.counter(p + "messages_delivered").set(se.messages_delivered);
    reg.counter(p + "messages_dropped").set(se.messages_dropped);
    reg.counter(p + "bytes_delivered").set(se.bytes_delivered);
    reg.counter(p + "messages_corrupted").set(se.messages_corrupted);
    reg.counter(p + "messages_truncated").set(se.messages_truncated);
  }

  const auto export_stack = [&reg](const tcp::TcpStack& stack, const std::string& host) {
    const tcp::TcpStack::Stats& s = stack.stats();
    const std::string p = "tcp." + host;
    reg.counter(p + ".segments_in").set(s.segments_in);
    reg.counter(p + ".segments_demuxed").set(s.segments_demuxed);
    reg.counter(p + ".segments_buffered").set(s.segments_buffered);
    reg.counter(p + ".bad_checksum").set(s.bad_checksum);
    reg.counter(p + ".rst_sent").set(s.rst_sent);
    reg.counter(p + ".connections_accepted").set(s.connections_accepted);
    reg.counter(p + ".replicas_created").set(s.replicas_created);
  };
  for (HostEntry& h : hosts_) {
    if (h.stack != nullptr) export_stack(*h.stack, h.name);
  }
  for (const auto& c : cells_) {
    export_stack(c->primary_stack(), c->primary().name());
    for (int b = 0; b < c->backup_count(); ++b) {
      export_stack(c->backup_stack(b), c->backup_host(b).name());
    }
  }

  const auto export_ep = [&reg](const sttcp::StTcpEndpoint* ep, const std::string& host) {
    if (ep == nullptr) return;
    const sttcp::StTcpEndpoint::Stats& s = ep->stats();
    const std::string p = "sttcp." + host;
    reg.counter(p + ".hb_sent").set(s.hb_sent);
    reg.counter(p + ".hb_received_ip").set(s.hb_received_ip);
    reg.counter(p + ".hb_received_serial").set(s.hb_received_serial);
    reg.counter(p + ".replicas_created").set(s.replicas_created);
    reg.counter(p + ".missed_bytes_injected").set(s.missed_bytes_injected);
    reg.counter(p + ".logger_bytes_injected").set(s.logger_bytes_injected);
    reg.counter(p + ".takeovers").set(s.takeovers);
    reg.counter(p + ".reintegrations").set(s.reintegrations);
    reg.counter(p + ".rejoins").set(s.rejoins);
    reg.counter(p + ".snapshot_conns_adopted").set(s.snapshot_conns_adopted);
    reg.counter(p + ".hb_malformed").set(s.hb_malformed);
    reg.counter(p + ".hb_stale").set(s.hb_stale);
    reg.counter(p + ".control_malformed").set(s.control_malformed);
    reg.counter(p + ".hold_peak_bytes").set(ep->hold_peak_bytes());
    if (ep->group_mode()) {
      reg.counter(p + ".promotions").set(s.promotions);
      reg.counter(p + ".votes_granted").set(s.votes_granted);
      reg.counter(p + ".votes_denied").set(s.votes_denied);
      reg.counter(p + ".view_changes").set(s.view_changes);
    }
  };
  for (auto& c : cells_) {
    export_ep(c->primary_endpoint(), c->primary().name());
    for (int b = 0; b < c->backup_count(); ++b) {
      export_ep(c->backup_endpoint(b), c->backup_host(b).name());
    }
  }

  if (pcap_ != nullptr) {
    reg.counter("obs.pcap.frames_written").set(pcap_->frames_written());
  }
}

std::string Topology::metrics_json() {
  if (metrics_ == nullptr) return "{}";
  export_metrics();
  return metrics_->json();
}

// --- TopologyBuilder --------------------------------------------------------

TopologyBuilder::TopologyBuilder(TopologyConfig cfg)
    : topo_(new Topology(std::move(cfg))) {}

int TopologyBuilder::add_switch(std::string name) {
  const int id = static_cast<int>(topo_->switches_.size());
  topo_->switches_.push_back(
      std::make_unique<net::EthernetSwitch>(topo_->build_world(), name));
  topo_->switch_names_.push_back(std::move(name));
  topo_->switch_shards_.push_back(topo_->build_shard_);
  if (id == 0 && !topo_->cfg_.pcap_path.empty()) {
    topo_->pcap_ = std::make_unique<obs::PcapWriter>(topo_->cfg_.pcap_path);
    topo_->switches_[0]->set_frame_tap(
        [topo = topo_.get()](sim::SimTime at, const net::Frame& frame) {
          topo->pcap_->record(at, frame.view());
        });
  }
  return id;
}

int TopologyBuilder::add_host(std::string name, net::Ipv4Addr ip, int switch_id,
                              HostOptions opt) {
  Topology::HostEntry e;
  e.name = std::move(name);
  e.ip = ip;
  e.switch_id = switch_id;
  e.with_stack = opt.with_stack;
  e.shard = topo_->build_shard_;
  if (opt.mac == net::MacAddr()) {
    opt.mac = net::MacAddr::from_u64(0x02000000a001ull +
                                     static_cast<std::uint64_t>(auto_host_macs_++));
  }
  e.host = std::make_unique<net::Host>(topo_->build_world(), e.name);
  net::Nic& nic = e.host->add_nic(opt.mac);
  e.host->add_ip(ip);
  const std::uint64_t bw = opt.link_bandwidth_bps != 0 ? opt.link_bandwidth_bps
                                                       : topo_->cfg_.link_bandwidth_bps;
  e.link = topo_->make_link(e.name, bw);
  nic.attach(e.link->port(0));
  e.port = topo_->switches_.at(static_cast<std::size_t>(switch_id))
               ->add_port(e.link->port(1));
  topo_->power_.at(static_cast<std::size_t>(opt.power_controller))
      ->register_host(*e.host);
  topo_->hosts_.push_back(std::move(e));
  return static_cast<int>(topo_->hosts_.size() - 1);
}

int TopologyBuilder::add_cell(int switch_id, CellConfig cfg) {
  const int index = static_cast<int>(topo_->cells_.size());
  topo_->cells_.push_back(
      std::make_unique<Cell>(*topo_, index, switch_id, std::move(cfg)));
  return index;
}

int TopologyBuilder::add_power_controller() {
  topo_->power_.push_back(
      std::make_unique<net::PowerController>(topo_->build_world()));
  topo_->power_shards_.push_back(topo_->build_shard_);
  return static_cast<int>(topo_->power_.size() - 1);
}

int TopologyBuilder::add_router(std::string name) {
  topo_->routers_.push_back(
      std::make_unique<net::Router>(topo_->build_world(), std::move(name)));
  topo_->router_shards_.push_back(topo_->build_shard_);
  return static_cast<int>(topo_->routers_.size() - 1);
}

int TopologyBuilder::begin_shard() {
  const int k = static_cast<int>(topo_->worlds_.size());
  // Golden-ratio spread keeps derived seeds distinct for any base seed while
  // staying a pure function of (seed, shard) — reruns are reproducible.
  const std::uint64_t seed =
      topo_->cfg_.seed ^ (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(k));
  topo_->worlds_.push_back(std::make_unique<sim::World>(
      seed, topo_->cfg_.log_out, topo_->cfg_.log_level));
  topo_->build_shard_ = k;
  return k;
}

std::pair<int, int> TopologyBuilder::add_trunk(int router_a, int router_b,
                                               net::Ipv4Addr ip_a,
                                               net::Ipv4Addr ip_b,
                                               TrunkOptions opt) {
  Topology& t = *topo_;
  const int shard_a = t.router_shards_.at(static_cast<std::size_t>(router_a));
  const int shard_b = t.router_shards_.at(static_cast<std::size_t>(router_b));
  if (shard_a == shard_b) {
    throw std::logic_error("add_trunk: routers are in the same shard");
  }
  net::Router& ra = *t.routers_.at(static_cast<std::size_t>(router_a));
  net::Router& rb = *t.routers_.at(static_cast<std::size_t>(router_b));
  const std::uint64_t bw =
      opt.bandwidth_bps != 0 ? opt.bandwidth_bps : t.cfg_.link_bandwidth_bps;

  // One real Link per side, each owned by its own world (the ShardChannel
  // claims port 1 of both; the routers attach to port 0). The side links
  // carry bandwidth serialization only; the propagation latency lives in
  // the channel itself so frames are queued a full lookahead ahead of their
  // arrival timestamps (see net/shard_link.h).
  const auto side_link = [&](net::Router& r, int shard) {
    auto link = std::make_unique<net::Link>(*t.worlds_[static_cast<std::size_t>(shard)],
                                            sim::Duration::zero(), bw);
    const std::string name = r.name() + ".t" + std::to_string(r.port_count());
    if (t.metrics_ != nullptr && shard == 0) {
      link->bind_metrics(*t.metrics_, "net.link." + name);
    }
    t.links_.push_back(std::move(link));
    t.link_names_.push_back(name);
    t.link_shards_.push_back(shard);
    return t.links_.back().get();
  };
  net::Link* la = side_link(ra, shard_a);
  net::Link* lb = side_link(rb, shard_b);

  auto channel = std::make_unique<net::ShardChannel>(
      *t.worlds_[static_cast<std::size_t>(shard_a)],
      *t.worlds_[static_cast<std::size_t>(shard_b)], la, lb, opt.latency);

  const auto trunk_mac = [](net::Router& r, int router_id) {
    return net::MacAddr::from_u64(0x0200000f0001ull +
                                  (static_cast<std::uint64_t>(router_id) << 8) +
                                  static_cast<std::uint64_t>(r.port_count()));
  };
  const net::MacAddr mac_a = trunk_mac(ra, router_a);
  const int rport_a = ra.add_port(channel->port_a(), mac_a, ip_a);
  const net::MacAddr mac_b = trunk_mac(rb, router_b);
  const int rport_b = rb.add_port(channel->port_b(), mac_b, ip_b);
  ra.add_connected(ip_a, opt.prefix_len, rport_a);
  rb.add_connected(ip_b, opt.prefix_len, rport_b);
  ra.arp_set(rport_a, ip_b, mac_b);
  rb.arp_set(rport_b, ip_a, mac_a);

  t.trunks_.push_back({shard_a, shard_b, std::move(channel), opt.latency});
  return {rport_a, rport_b};
}

int TopologyBuilder::connect_router(int router_id, int switch_id,
                                    net::Ipv4Addr port_ip, int prefix_len,
                                    net::MacAddr mac) {
  net::Router& r = *topo_->routers_.at(static_cast<std::size_t>(router_id));
  if (mac == net::MacAddr()) {
    mac = net::MacAddr::from_u64(0x0200000f0001ull +
                                 (static_cast<std::uint64_t>(router_id) << 8) +
                                 static_cast<std::uint64_t>(r.port_count()));
  }
  net::Link* link =
      topo_->make_link(r.name() + ".p" + std::to_string(r.port_count()),
                       topo_->cfg_.link_bandwidth_bps);
  const int sw_port = topo_->switches_.at(static_cast<std::size_t>(switch_id))
                          ->add_port(link->port(1));
  (void)sw_port;
  const int rport = r.add_port(link->port(0), mac, port_ip);
  r.add_connected(port_ip, prefix_len, rport);
  topo_->router_ports_.push_back({router_id, rport, switch_id, prefix_len});
  return rport;
}

std::unique_ptr<Topology> TopologyBuilder::build() {
  if (built_) throw std::logic_error("TopologyBuilder::build() called twice");
  built_ = true;
  Topology& t = *topo_;

  // One L2 "member" per host/NIC on a subnet, for the static ARP mesh.
  struct Member {
    net::Ipv4Addr ip;
    net::MacAddr mac;
    net::Host* host;
    const Cell* cell;  // null for plain hosts
  };
  for (std::size_t s = 0; s < t.switches_.size(); ++s) {
    const int sid = static_cast<int>(s);
    std::vector<Member> members;
    for (Topology::HostEntry& h : t.hosts_) {
      if (h.switch_id == sid) {
        members.push_back({h.ip, h.host->nic().mac(), h.host.get(), nullptr});
      }
    }
    for (const auto& c : t.cells_) {
      if (c->switch_id() != sid) continue;
      members.push_back({c->primary_ip(), c->config().primary_mac,
                         &c->primary(), c.get()});
      for (int b = 0; b < c->backup_count(); ++b) {
        members.push_back({c->backup_ip(b), c->backup_mac(b),
                           &c->backup_host(b), c.get()});
      }
    }

    // Full static ARP mesh between the subnet's real addresses.
    for (const Member& a : members) {
      for (const Member& b : members) {
        if (a.host != b.host) a.host->arp_set(b.ip, b.mac);
      }
    }
    // Service IPs resolve to the multicast group for every non-member on the
    // subnet (the classic client/gateway serviceIP -> multiEA entries).
    for (const auto& c : t.cells_) {
      if (c->switch_id() != sid) continue;
      for (const Member& m : members) {
        if (m.cell != c.get()) m.host->arp_set(c->service_ip(), c->multicast_mac());
      }
    }

    // Router wiring: router-side ARP for everything on the subnet, and the
    // first router port becomes every member's default gateway.
    bool gateway_set = false;
    for (const Topology::RouterPortEntry& rp : t.router_ports_) {
      if (rp.switch_id != sid) continue;
      net::Router& r = *t.routers_[static_cast<std::size_t>(rp.router)];
      for (const Member& m : members) {
        r.arp_set(rp.port, m.ip, m.mac);
        if (!gateway_set) m.host->set_default_gateway(r.port_mac(rp.port));
      }
      for (const auto& c : t.cells_) {
        if (c->switch_id() == sid) {
          r.arp_set(rp.port, c->service_ip(), c->multicast_mac());
        }
      }
      // Routers sharing a subnet can reach each other (multi-hop paths).
      for (const Topology::RouterPortEntry& other : t.router_ports_) {
        if (other.switch_id != sid || &other == &rp) continue;
        net::Router& o = *t.routers_[static_cast<std::size_t>(other.router)];
        r.arp_set(rp.port, o.port_ip(other.port), o.port_mac(other.port));
      }
      gateway_set = true;
    }
  }

  // Stacks, then cells, in creation order — this is the classic Figure-2
  // RNG fork order for a 1-cell topology (client stack, then serial +
  // primary/backup stacks + endpoints).
  for (Topology::HostEntry& h : t.hosts_) {
    if (h.with_stack) h.stack = std::make_unique<tcp::TcpStack>(*h.host, t.cfg_.tcp);
  }
  for (auto& c : t.cells_) c->start();

  return std::move(topo_);
}

// --- Figure 2 ---------------------------------------------------------------

TopologyConfig TopologyConfig::Paper2005() {
  TopologyConfig cfg;
  cfg.link_latency = sim::Duration::micros(50);
  cfg.link_bandwidth_bps = 100'000'000;  // Fast Ethernet
  cfg.serial_baud = 115200;
  cfg.sttcp.hb_period = sim::Duration::millis(200);
  cfg.sttcp.hb_miss_threshold = 3;
  return cfg;
}

TopologyConfig TopologyConfig::FastNet() {
  TopologyConfig cfg;
  cfg.link_latency = sim::Duration::micros(5);
  cfg.link_bandwidth_bps = 1'000'000'000;  // gigabit
  cfg.serial_baud = 1'000'000;
  cfg.sttcp.hb_period = sim::Duration::millis(50);
  cfg.sttcp.hb_miss_threshold = 3;
  return cfg;
}

std::unique_ptr<Topology> make_figure2(TopologyConfig cfg, CellConfig cell,
                                       bool with_logger) {
  const net::Ipv4Addr logger_ip{10, 0, 0, 9};
  if (with_logger) cfg.logger_ip = logger_ip;
  TopologyBuilder b(std::move(cfg));
  const int lan = b.add_switch("switch");

  HostOptions client_opt;
  client_opt.mac = net::MacAddr::from_u64(0x020000000001ull);
  client_opt.with_stack = true;
  b.add_host("client", {10, 0, 0, 1}, lan, client_opt);

  // Cell 0 derives the classic member MACs 02:00:00:00:00:02/03 and
  // multicast group 0x57; CellConfig's default addressing is Figure 2's.
  b.add_cell(lan, std::move(cell));

  HostOptions gw_opt;
  gw_opt.mac = net::MacAddr::from_u64(0x0200000000feull);
  b.add_host("gateway", {10, 0, 0, 254}, lan, gw_opt);

  // Optional stream logger host (§4.3 output-commit extension): joins the
  // multicast group so it taps the same client traffic as the servers.
  if (with_logger) {
    HostOptions lg_opt;
    lg_opt.mac = net::MacAddr::from_u64(0x020000000009ull);
    const int idx = b.add_host("logger", logger_ip, lan, lg_opt);
    Topology::HostEntry& lh = b.topology().host(static_cast<std::size_t>(idx));
    Cell& c = b.topology().cell(0);
    // The logger owns the service alias too, so tapped client->service
    // packets pass its host's IP filter (a real tap would capture
    // promiscuously; the alias is the simulator's equivalent).
    lh.host->add_ip(c.service_ip());
    lh.host->nic().subscribe_multicast(c.multicast_mac());
    std::vector<int> ports = {c.primary_port()};
    for (int i = 0; i < c.backup_count(); ++i) ports.push_back(c.backup_switch_port(i));
    ports.push_back(lh.port);
    b.topology().ethernet_switch().add_multicast_group(c.multicast_mac(), ports);
  }
  return b.build();
}

// --- ShardDirector ----------------------------------------------------------

ShardDirector::ShardDirector(Topology& topo, int vnodes) {
  targets_.reserve(topo.cell_count());
  for (std::size_t i = 0; i < topo.cell_count(); ++i) {
    targets_.push_back(topo.cell(i).connect_addr());
  }
  ring_.reserve(targets_.size() * static_cast<std::size_t>(vnodes));
  for (std::size_t shard = 0; shard < targets_.size(); ++shard) {
    for (int v = 0; v < vnodes; ++v) {
      // Hash (service ip, vnode) so ring layout depends only on the cell
      // set, not on iteration order or pointer values.
      const std::uint64_t key =
          (std::uint64_t{targets_[shard].ip.value()} << 16) |
          static_cast<std::uint64_t>(v);
      ring_.push_back({fnv_mix(kFnvBasis, key), shard});
    }
  }
  std::sort(ring_.begin(), ring_.end(), [](const Point& a, const Point& b) {
    return a.hash != b.hash ? a.hash < b.hash : a.shard < b.shard;
  });
}

std::size_t ShardDirector::shard_for(std::uint64_t flow_id) const {
  if (ring_.empty()) throw std::logic_error("ShardDirector: no cells");
  const std::uint64_t h = fnv_mix(kFnvBasis, flow_id);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const Point& p, std::uint64_t v) { return p.hash < v; });
  if (it == ring_.end()) it = ring_.begin();  // wrap around the ring
  return it->shard;
}

net::SocketAddr ShardDirector::target_for(std::uint64_t flow_id) const {
  return targets_.at(shard_for(flow_id));
}

}  // namespace sttcp::harness
