// Multi-connection failover: 50 concurrent downloads through one ST-TCP
// pair, primary crashed mid-flight — every connection must survive on the
// backup. Also prints the serial heartbeat budget for the connection count
// (paper §3: ~100 connections fit on the 115.2 kbps serial link).
//
//   $ ./examples/multi_connection
#include <cstdio>
#include <memory>
#include <vector>

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

int main() {
  constexpr int kConnections = 50;
  constexpr std::uint64_t kFileSize = 2'000'000;

  const auto topo = sttcp::harness::make_figure2(TopologyConfig{});
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  app::FileServer primary_app(cell.primary_stack(), cell.service_port(), kFileSize);
  app::FileServer backup_app(cell.backup_stack(), cell.service_port(), kFileSize);

  std::vector<std::unique_ptr<app::DownloadClient>> clients;
  for (int i = 0; i < kConnections; ++i) {
    app::DownloadClient::Options opt;
    opt.expected_bytes = kFileSize;
    clients.push_back(std::make_unique<app::DownloadClient>(
        *client_host.stack, client_host.ip,
        std::vector<sttcp::net::SocketAddr>{cell.connect_addr()}, opt));
    clients.back()->start();
  }

  topo->run_for(sim::Duration::millis(600));
  std::printf("replicated connections on the backup: %zu / %d\n",
              cell.backup_endpoint()->replicated_connections(), kConnections);
  std::printf("serial heartbeat queue: %s (limit: one 200 ms period)\n",
              cell.serial().queue_delay(0).str().c_str());

  std::printf("\ncrashing the primary...\n");
  inject(*topo, Fault::Crash(Node::kPrimary).at(sim::Duration::zero()));
  topo->run_for(sim::Duration::seconds(60));

  int complete = 0;
  int intact = 0;
  int failures = 0;
  sim::Duration worst_stall = sim::Duration::zero();
  for (const auto& c : clients) {
    if (c->complete()) ++complete;
    if (!c->corrupt()) ++intact;
    failures += c->connection_failures();
    if (c->max_stall() > worst_stall) worst_stall = c->max_stall();
  }
  std::printf("after takeover:\n");
  std::printf("  downloads complete:   %d / %d\n", complete, kConnections);
  std::printf("  streams intact:       %d / %d\n", intact, kConnections);
  std::printf("  connection failures:  %d\n", failures);
  std::printf("  worst client stall:   %s\n", worst_stall.str().c_str());
  std::printf("  takeovers:            %zu\n",
              topo->world().trace().count("takeover"));
  return (complete == kConnections && failures == 0) ? 0 : 1;
}
