// Host: the hardware + OS model a protocol stack runs on.
//
// A Host owns NICs, a static ARP table, a set of local IP addresses
// (including aliases — the serviceIP in ST-TCP's setup is an IP alias on
// both servers), an ICMP echo responder/client, UDP sockets, and a pluggable
// L4 handler slot that the TCP stack binds to.
//
// Failure model (paper §4): crash() stops the whole machine — nothing is
// sent or received again (HW/OS crash, or being powered down by the peer's
// STONITH action). Individual NICs can fail()/heal() while the host stays up
// (Table 1 row 4).
//
// An optional per-packet CPU cost models a slower machine: received frames
// queue behind a busy CPU, which is how a backup "starts lagging behind the
// primary" (paper §3).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/addr.h"
#include "net/headers.h"
#include "net/nic.h"
#include "sim/clock_domain.h"
#include "sim/world.h"

namespace sttcp::net {

class Host {
 public:
  using UdpHandler =
      std::function<void(Ipv4Addr src_ip, std::uint16_t src_port, BytesView payload)>;
  /// `l4` views into `frame`; a handler that keeps the view past the call
  /// keeps a copy of the frame with it.
  using L4Handler =
      std::function<void(const Ipv4Header& ip, BytesView l4, const Frame& frame)>;
  using PingCallback = std::function<void(bool success, sim::Duration rtt)>;
  using CrashHook = std::function<void()>;
  using RxTap = std::function<void(const Frame& frame)>;

  Host(sim::World& world, std::string name);
  ~Host();
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  const std::string& name() const { return name_; }
  sim::World& world() { return world_; }
  sim::Logger& logger() { return log_; }

  // --- hardware -----------------------------------------------------------
  /// Create and own a NIC. The first NIC added is the default route.
  Nic& add_nic(MacAddr mac);
  Nic& nic(std::size_t i = 0) { return *nics_.at(i); }
  std::size_t nic_count() const { return nics_.size(); }

  // --- configuration ------------------------------------------------------
  /// Register a local IP (primary address or alias such as serviceIP).
  void add_ip(Ipv4Addr ip);
  bool has_ip(Ipv4Addr ip) const;
  /// The host's own (first-registered) address.
  Ipv4Addr first_ip() const { return local_ips_.empty() ? Ipv4Addr() : local_ips_.front(); }
  /// Static ARP entry (the demo setup maps serviceIP to the multicast EA on
  /// the client/gateway).
  void arp_set(Ipv4Addr ip, MacAddr mac);
  /// Default route: destinations with no ARP entry are framed toward this
  /// MAC (the subnet's router port) instead of being dropped. Hosts keep no
  /// routing table — same-subnet peers get explicit ARP entries, everything
  /// else goes to the gateway. Unset keeps the strict single-subnet model.
  void set_default_gateway(MacAddr mac) {
    gateway_mac_ = mac;
    has_gateway_ = true;
  }
  /// Per-received-packet CPU time; zero (default) processes inline.
  void set_cpu_packet_time(sim::Duration d) { cpu_packet_time_ = d; }
  /// This host's CPU clock domain — the grey-failure stall hook. While a
  /// LagProfile is active, received TCP frames and every timer routed
  /// through the domain (the TCP stack's) slide out of the stall windows;
  /// UDP/ICMP receive and the ST-TCP daemon's own timers stay on schedule,
  /// modeling the paper's real-time-priority heartbeat daemon. Healthy
  /// domains are pure passthrough, so unfaulted runs are bit-identical.
  sim::ClockDomain& cpu_domain() { return cpu_domain_; }
  /// Observe every frame this host actually processes (after the NIC filter,
  /// the CPU queue, and the alive check — i.e. exactly the frames the
  /// protocol layers see). Diagnostics/invariant accounting; one null check
  /// when unset.
  void set_rx_tap(RxTap tap) { rx_tap_ = std::move(tap); }

  // --- lifecycle ----------------------------------------------------------
  bool alive() const { return alive_; }
  /// Hard stop: HW/OS crash or external power-off. All NICs go down, all
  /// pending received packets are lost, crash hooks fire.
  void crash(const std::string& reason);
  /// Bring a crashed host back up: NICs heal, the CPU queue is empty, and
  /// boot hooks fire in registration order so bound services can reinitialise
  /// (the simulated machine reboots with blank RAM but its software
  /// reinstalls itself). No-op on a live host.
  void power_on();
  /// Invoked on every crash (lets bound services cancel timers). Hooks are
  /// persistent: a host that crashes, reboots, and crashes again fires them
  /// each time.
  void add_crash_hook(CrashHook hook) { crash_hooks_.push_back(std::move(hook)); }
  /// Invoked on every power_on(), in registration order (services register at
  /// construction, so lower layers reset before the ones stacked on them).
  void add_boot_hook(CrashHook hook) { boot_hooks_.push_back(std::move(hook)); }

  // --- sending ------------------------------------------------------------
  /// Route + ARP + transmit an IP packet the caller built in place: `frame`
  /// (from Frame::allocate, not yet shared) holds the L4 segment behind
  /// kIpFrameHeaderSize bytes of header room, which this fills in. Returns
  /// false if the host is down, has no usable NIC, or lacks an ARP entry for
  /// dst.
  bool send_ip_frame(Ipv4Addr src, Ipv4Addr dst, std::uint8_t protocol, Frame frame);

  // --- UDP ----------------------------------------------------------------
  void udp_bind(std::uint16_t port, UdpHandler handler);
  void udp_unbind(std::uint16_t port);
  /// Send a UDP datagram the caller built in place: `frame` (from
  /// Frame::allocate, not yet shared) holds the payload behind
  /// kUdpFrameHeaderSize bytes of header room, which this fills in (UDP
  /// header and checksum, then the IP headers). Returns false like
  /// send_ip_frame; throws std::length_error past kMaxUdpPayload.
  bool udp_send_frame(Ipv4Addr src, std::uint16_t src_port, Ipv4Addr dst,
                      std::uint16_t dst_port, Frame frame);
  /// udp_send_frame with `payload` copied into a fresh frame.
  bool udp_send(Ipv4Addr src, std::uint16_t src_port, Ipv4Addr dst,
                std::uint16_t dst_port, BytesView payload);

  // --- ICMP ---------------------------------------------------------------
  /// Send an echo request; `cb` fires with success=true on the first reply
  /// or success=false after `timeout`.
  void ping(Ipv4Addr src, Ipv4Addr dst, sim::Duration timeout, PingCallback cb);

  // --- L4 hook (TCP) ------------------------------------------------------
  /// The TCP stack registers itself here for protocol 6 packets. The handler
  /// sees every TCP packet the NICs accept — including multicast-tapped
  /// frames whose destination IP is a local alias.
  void set_l4_handler(std::uint8_t protocol, L4Handler handler);

  struct Stats {
    std::uint64_t packets_in = 0;
    std::uint64_t packets_out = 0;
    std::uint64_t arp_misses = 0;
    std::uint64_t not_local = 0;  // IP packets for addresses we do not own
    std::uint64_t udp_checksum_drops = 0;  // incl. truncated oversize datagrams
  };
  const Stats& stats() const { return stats_; }

 private:
  void on_nic_frame(Frame frame);
  void dispatch_frame(Frame frame);
  void process_frame(const Frame& frame);
  void handle_icmp(const Ipv4Header& ip, BytesView l4);
  bool send_icmp(Ipv4Addr src, Ipv4Addr dst, const IcmpEcho& echo);
  void handle_udp(const Ipv4Header& ip, BytesView l4);
  /// Destination MAC for `dst` (ARP entry, else the gateway); nullptr, and
  /// one more ARP miss counted, when there is neither.
  const MacAddr* next_hop(Ipv4Addr dst);

  sim::World& world_;
  std::string name_;
  sim::Logger log_;
  std::vector<std::unique_ptr<Nic>> nics_;
  std::vector<Ipv4Addr> local_ips_;
  std::unordered_map<Ipv4Addr, MacAddr> arp_;
  MacAddr gateway_mac_;
  bool has_gateway_ = false;
  std::unordered_map<std::uint16_t, UdpHandler> udp_handlers_;
  std::unordered_map<std::uint8_t, L4Handler> l4_handlers_;
  std::vector<CrashHook> crash_hooks_;
  std::vector<CrashHook> boot_hooks_;
  RxTap rx_tap_;

  struct PendingPing {
    PingCallback cb;
    sim::SimTime sent_at;
    sim::TimerId timeout_timer = 0;
  };
  std::unordered_map<std::uint16_t, PendingPing> pending_pings_;
  std::uint16_t next_ping_id_ = 1;
  std::uint16_t next_ip_id_ = 1;

  sim::Duration cpu_packet_time_ = sim::Duration::zero();
  sim::SimTime cpu_busy_until_;
  sim::ClockDomain cpu_domain_;
  bool alive_ = true;
  Stats stats_;
};

/// Out-of-band power controller (the paper's remote power switch used for
/// STONITH: "the backup also powers the primary down to prevent any danger
/// of dual active servers"). Commands travel out-of-band, so they work even
/// when the victim's network is gone; they are no-ops on already-dead hosts.
class PowerController {
 public:
  explicit PowerController(sim::World& world);

  void register_host(Host& host);
  /// Force `name` off. Returns false if the controller is disabled or the
  /// host is unknown. Powering off a dead host succeeds trivially.
  bool power_off(const std::string& name);
  /// A disabled controller models a management-network fault (tests only).
  void set_functional(bool on) { functional_ = on; }

  std::uint64_t power_off_count() const { return power_off_count_; }

 private:
  sim::World& world_;
  sim::Logger log_;
  std::unordered_map<std::string, Host*> hosts_;
  bool functional_ = true;
  std::uint64_t power_off_count_ = 0;
};

}  // namespace sttcp::net
