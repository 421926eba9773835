// Streaming dashboard: Demo 1's GUI pie-chart client, rendered in ASCII.
//
// The client continuously downloads; the progress bar is sampled every
// 250 ms of simulated time. The primary is crashed mid-transfer — watch the
// bar stall briefly and continue, with no reconnect. Then the same scenario
// runs WITHOUT ST-TCP: the bar freezes until the client gives up,
// reconnects to the hot backup, and starts over from zero.
//
//   $ ./examples/streaming_dashboard
#include <cstdio>
#include <string>

#include "app/client.h"
#include "app/server.h"
#include "harness/fault.h"
#include "harness/topology.h"

namespace app = sttcp::app;
namespace sim = sttcp::sim;
using sttcp::harness::Cell;
using sttcp::harness::Fault;
using sttcp::harness::Node;
using sttcp::harness::Topology;
using sttcp::harness::TopologyConfig;

namespace {

constexpr std::uint64_t kFileSize = 60'000'000;

void render(double t_sec, std::uint64_t bytes, const char* note) {
  const double frac =
      static_cast<double>(bytes) / static_cast<double>(kFileSize);
  const int filled = static_cast<int>(frac * 40);
  std::string bar(static_cast<size_t>(filled), '#');
  bar.resize(40, '.');
  std::printf("  t=%5.2fs [%s] %5.1f%% %s\n", t_sec, bar.c_str(), frac * 100, note);
}

void run(bool with_sttcp) {
  std::printf("\n--- %s ---\n", with_sttcp
                                    ? "WITH ST-TCP (client never reconnects)"
                                    : "WITHOUT ST-TCP (hot backup, but the "
                                      "connection dies)");
  TopologyConfig cfg;
  cfg.enable_sttcp = with_sttcp;
  cfg.enable_metrics = true;  // drive the dashboard footer off the registry
  const auto topo = sttcp::harness::make_figure2(std::move(cfg));
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  app::FileServer primary_app(cell.primary_stack(), cell.service_port(), kFileSize);
  app::FileServer backup_app(cell.backup_stack(), cell.service_port(), kFileSize);

  app::DownloadClient::Options opt;
  opt.expected_bytes = kFileSize;
  std::vector<sttcp::net::SocketAddr> servers{cell.connect_addr()};
  if (!with_sttcp) {
    opt.reconnect = true;
    opt.reconnect_delay = sim::Duration::millis(50);
    opt.stall_timeout = sim::Duration::seconds(3);  // the user's patience
    servers.push_back(cell.backup_addr());
  }
  app::DownloadClient client(*client_host.stack, client_host.ip, servers, opt);
  client.start();
  inject(*topo, Fault::Crash(Node::kPrimary).at(sim::Duration::millis(1500)));

  std::uint64_t last = 0;
  bool crash_reported = false;
  for (int tick = 1; tick <= 80 && !client.complete(); ++tick) {
    topo->run_for(sim::Duration::millis(250));
    const double t = topo->world().now().to_seconds();
    const char* note = "";
    if (!crash_reported && t >= 1.5) {
      note = "<- primary crashed here";
      crash_reported = true;
    } else if (client.received() < last) {
      note = "<- reconnected, starting over";
    } else if (client.received() == last && !client.complete()) {
      note = "(stalled)";
    }
    render(t, client.received(), note);
    last = client.received();
  }
  std::printf("  result: %s, %d connection failure(s), longest stall %s\n",
              client.complete() ? "complete" : "INCOMPLETE",
              client.connection_failures(), client.max_stall().str().c_str());

  // Telemetry footer, straight from the obs::MetricsRegistry.
  auto& reg = *topo->metrics();
  topo->export_metrics();
  std::printf("  telemetry: %llu frames on the client link, "
              "%llu client-side TCP retransmissions\n",
              static_cast<unsigned long long>(
                  reg.counter("net.link.client.frames_delivered").value()),
              static_cast<unsigned long long>(
                  reg.counter("tcp.client.retransmissions").value()));
  if (const auto seg = reg.timeline().segments()) {
    std::printf("  failover:  detection %.1f ms + takeover %.1f ms + "
                "retransmission wait %.1f ms = %.1f ms total\n",
                seg->detection_ms, seg->takeover_ms, seg->retransmission_ms,
                seg->total_ms);
  }
}

}  // namespace

int main() {
  std::printf("Demo 1: the pie-chart client (40-char progress bar, 250 ms frames)\n");
  run(/*with_sttcp=*/true);
  run(/*with_sttcp=*/false);
  return 0;
}
