// Network interface card model.
//
// A Nic sits between a Host and one side of a Link. It filters received
// frames by destination MAC (own unicast address, broadcast, or a subscribed
// multicast group — the mechanism ST-TCP uses to tap client traffic on the
// backup), and can fail/heal independently of its host, which is exactly the
// "NIC or cable failure" row of the paper's Table 1.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>

#include "net/addr.h"
#include "net/link.h"
#include "sim/world.h"

namespace sttcp::net {

class Nic final : public FrameSink {
 public:
  struct Stats {
    std::uint64_t tx_frames = 0;
    std::uint64_t tx_bytes = 0;
    std::uint64_t rx_frames = 0;     // accepted and handed to the host
    std::uint64_t rx_bytes = 0;
    std::uint64_t rx_filtered = 0;   // wrong destination MAC
    std::uint64_t dropped_down = 0;  // tx or rx attempted while failed
  };

  using HostSink = std::function<void(Frame frame)>;

  Nic(sim::World& world, std::string name, MacAddr mac);

  /// Bind this NIC to one side of a link.
  void attach(Link::Port& port);

  /// Where accepted frames go (the owning Host's input path).
  void set_host_sink(HostSink sink) { host_sink_ = std::move(sink); }

  MacAddr mac() const { return mac_; }
  const std::string& name() const { return name_; }

  /// Join an Ethernet multicast group (e.g. ST-TCP's multiEA).
  void subscribe_multicast(MacAddr group) { multicast_.insert(group); }
  void unsubscribe_multicast(MacAddr group) { multicast_.erase(group); }

  /// Accept every frame regardless of destination (diagnostic taps).
  void set_promiscuous(bool on) { promiscuous_ = on; }

  /// Transmit a frame. Returns false (and counts a drop) when failed or
  /// unattached. Every hop after this shares the frame's one block.
  bool send(Frame frame);

  void fail() { failed_ = true; }
  void heal() { failed_ = false; }
  bool failed() const { return failed_; }

  const Stats& stats() const { return stats_; }

  // FrameSink: frame arriving from the link.
  void deliver_frame(Frame frame) override;

 private:
  sim::World& world_;
  std::string name_;
  MacAddr mac_;
  Link::Port* port_ = nullptr;
  HostSink host_sink_;
  std::unordered_set<MacAddr> multicast_;
  bool promiscuous_ = false;
  bool failed_ = false;
  Stats stats_;
};

}  // namespace sttcp::net
