// StreamLogger: the paper's §4.3 output-commit extension.
//
// "If the primary crashes while the backup is retrieving missed bytes from
//  it, the backup has no way of obtaining these bytes, since primary has
//  already acked them. For critical applications, a logger can be added to
//  the system to address this output commit problem [2]; for other
//  applications, ST-TCP treats this failure as unrecoverable."
//
// The logger is a third machine on the switch that joins the multiEA
// multicast group and passively reassembles the client→service byte stream
// of every connection, exactly like the backup's tap but with no
// application on top. When the backup takes over with a receive gap whose
// bytes the dead primary had already acknowledged, it fetches them from the
// logger over a small UDP protocol.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>

#include "net/host.h"
#include "tcp/reassembly.h"
#include "tcp/segment.h"

namespace sttcp::sttcp {

/// Wire messages for the logger protocol (UDP). Requests address streams by
/// the client endpoint + service port (the logger knows nothing of
/// replication ids).
struct LoggerRequest {
  net::Ipv4Addr client_ip;
  std::uint16_t client_port = 0;
  std::uint16_t service_port = 0;
  std::uint64_t offset = 0;
  std::uint32_t length = 0;

  net::Bytes serialize() const;
  static std::optional<LoggerRequest> parse(net::BytesView data);
};

struct LoggerReply {
  net::Ipv4Addr client_ip;
  std::uint16_t client_port = 0;
  std::uint16_t service_port = 0;
  std::uint64_t offset = 0;
  net::Bytes data;

  net::Bytes serialize() const;
  static std::optional<LoggerReply> parse(net::BytesView data);
};

class StreamLogger {
 public:
  struct Config {
    net::Ipv4Addr service_ip;
    std::uint16_t udp_port = 7003;
    /// Retained bytes per connection (oldest released beyond this).
    std::size_t retention = 16 * 1024 * 1024;
    /// Reassembly window while capturing.
    std::size_t window = 1 * 1024 * 1024;
  };

  struct Stats {
    std::uint64_t segments_seen = 0;
    std::uint64_t bytes_logged = 0;
    std::uint64_t requests_served = 0;
    std::uint64_t bytes_served = 0;
    std::uint64_t streams = 0;
  };

  /// `host` must already be wired to the switch with its NIC subscribed to
  /// the multicast group (harness::make_figure2 does this when the logger
  /// is enabled). The logger claims the host's TCP L4 hook — a logger host
  /// runs no TCP stack of its own.
  StreamLogger(net::Host& host, Config config);

  const Stats& stats() const { return stats_; }

  /// Logged contiguous byte count for a stream (tests).
  std::uint64_t logged_bytes(net::Ipv4Addr client_ip, std::uint16_t client_port,
                             std::uint16_t service_port) const;

 private:
  struct Stream {
    explicit Stream(std::size_t window) : reasm(window) {}
    bool have_irs = false;
    tcp::SeqAbs irs = 0;
    tcp::ReassemblyBuffer reasm;
    // Contiguous log storage: bytes [log_start, log_start + log.size()).
    // A deque so retention trimming from the front stays O(dropped).
    std::uint64_t log_start = 0;
    std::deque<std::uint8_t> log;
  };

  struct StreamKey {
    std::uint32_t client_ip;
    std::uint16_t client_port;
    std::uint16_t service_port;
    auto operator<=>(const StreamKey&) const = default;
  };

  void on_tcp(const net::Ipv4Header& ip, net::BytesView l4);
  void on_request(net::Ipv4Addr src, std::uint16_t src_port, net::BytesView payload);

  net::Host& host_;
  Config cfg_;
  sim::Logger log_;
  std::map<StreamKey, std::unique_ptr<Stream>> streams_;
  Stats stats_;
};

}  // namespace sttcp::sttcp
