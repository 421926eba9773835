#include "harness/cell.h"

#include "harness/topology.h"

namespace sttcp::harness {

namespace {

/// Derived member MACs: cell 0 gets the classic 02:00:00:00:00:02/03, cell k
/// shifts the fourth octet so stamped cells never collide. Extra group
/// backups continue the sequence (member 2 = ...:04, member 3 = ...:05).
net::MacAddr derived_mac(int cell_index, int member) {
  return net::MacAddr::from_u64(0x020000000002ull +
                                (static_cast<std::uint64_t>(cell_index) << 16) +
                                static_cast<std::uint64_t>(member));
}

std::string member_name(const std::string& prefix, const std::string& role) {
  return prefix.empty() ? role : prefix + "." + role;
}

/// "backup", "backup2", "backup3", ... (i = backup index, 0-based).
std::string backup_role(int i) {
  return i == 0 ? "backup" : "backup" + std::to_string(i + 1);
}

}  // namespace

Cell::Cell(Topology& topo, int index, int switch_id, CellConfig cfg)
    : topo_(topo),
      world_(&topo.build_world()),
      cfg_(std::move(cfg)),
      index_(index),
      switch_id_(switch_id),
      shard_(topo.build_shard()),
      sttcp_enabled_(cfg_.enable_sttcp && topo.config().enable_sttcp) {
  const TopologyConfig& tc = topo_.config();
  if (cfg_.primary_mac == net::MacAddr()) cfg_.primary_mac = derived_mac(index_, 0);
  if (cfg_.backup_mac == net::MacAddr()) cfg_.backup_mac = derived_mac(index_, 1);
  if (cfg_.extra_backups < 0) cfg_.extra_backups = 0;
  multicast_mac_ = cfg_.multicast_group == net::MacAddr()
                       ? net::MacAddr::multicast_group(0x57 + static_cast<std::uint32_t>(index_))
                       : cfg_.multicast_group;

  sim::World& world = *world_;
  net::EthernetSwitch& sw = topo_.ethernet_switch(static_cast<std::size_t>(switch_id_));
  net::PowerController& power =
      topo_.power(static_cast<std::size_t>(cfg_.power_controller));

  const std::string pname = member_name(cfg_.name, "primary");
  const std::string bname = member_name(cfg_.name, "backup");
  const std::uint64_t pbw =
      cfg_.link_bandwidth_bps != 0 ? cfg_.link_bandwidth_bps : tc.link_bandwidth_bps;
  const std::uint64_t bbw =
      cfg_.backup_link_bandwidth_bps != 0 ? cfg_.backup_link_bandwidth_bps : pbw;

  primary_ = std::make_unique<net::Host>(world, pname);
  net::Nic& pnic = primary_->add_nic(cfg_.primary_mac);
  primary_->add_ip(cfg_.primary_ip);
  primary_link_ = topo_.make_link(pname, pbw);
  pnic.attach(primary_link_->port(0));
  primary_port_ = sw.add_port(primary_link_->port(1));
  power.register_host(*primary_);

  backup_ = std::make_unique<net::Host>(world, bname);
  net::Nic& bnic = backup_->add_nic(cfg_.backup_mac);
  backup_->add_ip(cfg_.backup_ip);
  backup_link_ = topo_.make_link(bname, bbw);
  bnic.attach(backup_link_->port(0));
  backup_port_ = sw.add_port(backup_link_->port(1));
  power.register_host(*backup_);

  // The ST-TCP service address: an alias on both servers, reached through
  // the multicast group so both taps see every client packet.
  primary_->add_ip(cfg_.service_ip);
  backup_->add_ip(cfg_.service_ip);
  pnic.subscribe_multicast(multicast_mac_);
  bnic.subscribe_multicast(multicast_mac_);

  // Extra group backups after the classic pair: a k=0 cell forks the world
  // RNG exactly twice (the two Link constructors above), bit-identically to
  // every build before replication groups existed.
  std::vector<int> tap_ports = {primary_port_, backup_port_};
  for (int i = 1; i < backup_count(); ++i) {
    const std::string name = member_name(cfg_.name, backup_role(i));
    const net::MacAddr mac = derived_mac(index_, 1 + i);
    auto host = std::make_unique<net::Host>(world, name);
    net::Nic& nic = host->add_nic(mac);
    host->add_ip(backup_ip(i));
    net::Link* link = topo_.make_link(name, bbw);
    nic.attach(link->port(0));
    const int port = sw.add_port(link->port(1));
    power.register_host(*host);
    host->add_ip(cfg_.service_ip);
    nic.subscribe_multicast(multicast_mac_);
    host->set_cpu_packet_time(cfg_.backup_cpu_packet_time);
    tap_ports.push_back(port);
    extra_hosts_.push_back(std::move(host));
    extra_links_.push_back(link);
    extra_ports_.push_back(port);
    extra_macs_.push_back(mac);
  }
  sw.add_multicast_group(multicast_mac_, tap_ports);

  primary_->set_cpu_packet_time(cfg_.primary_cpu_packet_time);
  backup_->set_cpu_packet_time(cfg_.backup_cpu_packet_time);
}

Cell::~Cell() = default;

void Cell::start() {
  const TopologyConfig& tc = topo_.config();
  // Serial null-modem cable between the servers (port 0 = primary). It stays
  // a point-to-point pair cable even in group mode: extra backups heartbeat
  // over IP only (docs/GROUPS.md).
  serial_ = std::make_unique<net::SerialLink>(*world_, tc.serial_baud);

  primary_stack_ = std::make_unique<tcp::TcpStack>(*primary_, tc.tcp);
  backup_stack_ = std::make_unique<tcp::TcpStack>(*backup_, tc.tcp);
  for (auto& h : extra_hosts_) {
    extra_stacks_.push_back(std::make_unique<tcp::TcpStack>(*h, tc.tcp));
  }

  if (!sttcp_enabled_) return;

  net::PowerController& power =
      topo_.power(static_cast<std::size_t>(cfg_.power_controller));
  sttcp::StTcpConfig pc = tc.sttcp;
  pc.service_ip = cfg_.service_ip;
  pc.my_ip = cfg_.primary_ip;
  pc.gateway_ip = cfg_.gateway_ip;
  if (!tc.logger_ip.is_zero()) pc.logger_ip = tc.logger_ip;
  // Every member carries the same roster; ranks start in roster order
  // (primary = rank 0). The pair shares the serial cable; extra backups are
  // IP-only. Two entries = the classic pair.
  pc.group.clear();
  pc.group.push_back({primary_->name(), cfg_.primary_ip, /*serial=*/true});
  pc.group.push_back({backup_->name(), cfg_.backup_ip, /*serial=*/true});
  for (int i = 1; i < backup_count(); ++i) {
    pc.group.push_back({extra_hosts_[static_cast<std::size_t>(i - 1)]->name(),
                        backup_ip(i), /*serial=*/false});
  }
  sttcp::StTcpConfig bc = pc;
  bc.my_ip = cfg_.backup_ip;

  primary_ep_ = std::make_unique<sttcp::StTcpEndpoint>(
      *primary_, *primary_stack_, power, &serial_->port(0), sttcp::Role::kPrimary, pc);
  backup_ep_ = std::make_unique<sttcp::StTcpEndpoint>(
      *backup_, *backup_stack_, power, &serial_->port(1), sttcp::Role::kBackup, bc);
  for (int i = 1; i < backup_count(); ++i) {
    sttcp::StTcpConfig xc = pc;
    xc.my_ip = backup_ip(i);
    extra_eps_.push_back(std::make_unique<sttcp::StTcpEndpoint>(
        *extra_hosts_[static_cast<std::size_t>(i - 1)],
        *extra_stacks_[static_cast<std::size_t>(i - 1)], power,
        /*serial=*/nullptr, sttcp::Role::kBackup, xc));
  }
  primary_ep_->start();
  backup_ep_->start();
  for (auto& ep : extra_eps_) ep->start();
}

net::Host& Cell::backup_host(int i) {
  return i == 0 ? *backup_ : *extra_hosts_.at(static_cast<std::size_t>(i - 1));
}

net::Link& Cell::backup_link(int i) {
  return i == 0 ? *backup_link_ : *extra_links_.at(static_cast<std::size_t>(i - 1));
}

int Cell::backup_switch_port(int i) const {
  return i == 0 ? backup_port_ : extra_ports_.at(static_cast<std::size_t>(i - 1));
}

tcp::TcpStack& Cell::backup_stack(int i) {
  return i == 0 ? *backup_stack_ : *extra_stacks_.at(static_cast<std::size_t>(i - 1));
}

sttcp::StTcpEndpoint* Cell::backup_endpoint(int i) {
  if (i == 0) return backup_ep_.get();
  const auto k = static_cast<std::size_t>(i - 1);
  return k < extra_eps_.size() ? extra_eps_[k].get() : nullptr;
}

net::MacAddr Cell::backup_mac(int i) const {
  return i == 0 ? cfg_.backup_mac : extra_macs_.at(static_cast<std::size_t>(i - 1));
}

std::uint16_t Cell::service_port() const { return topo_.config().sttcp.service_port; }

net::SocketAddr Cell::connect_addr() const {
  return sttcp_enabled_ ? net::SocketAddr{cfg_.service_ip, service_port()}
                        : net::SocketAddr{cfg_.primary_ip, service_port()};
}

net::SocketAddr Cell::backup_addr() const {
  return net::SocketAddr{cfg_.backup_ip, service_port()};
}

}  // namespace sttcp::harness
