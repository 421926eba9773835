// The rig the Table-1 failure tests share: the Figure-2 topology, a
// replicated FileServer pair (or 1+N group) and one verifying DownloadClient.
#pragma once

#include <memory>
#include <vector>

#include "app/client.h"
#include "app/server.h"
#include "harness/topology.h"

namespace sttcp::harness {

struct DownloadRig {
  explicit DownloadRig(TopologyConfig cfg = {}, CellConfig cell_cfg = {})
      : topo(make_figure2(std::move(cfg), std::move(cell_cfg))),
        cell(topo->cell()),
        client_host(*topo->host_by_name("client")) {}

  void start_file_service(std::uint64_t file_size) {
    primary_app = std::make_unique<app::FileServer>(
        cell.primary_stack(), cell.service_port(), file_size);
    backup_app = std::make_unique<app::FileServer>(
        cell.backup_stack(), cell.service_port(), file_size);
    // A group's further backups ("backup2", ...) serve the same file.
    for (int i = 1; i < cell.backup_count(); ++i) {
      extra_apps.push_back(std::make_unique<app::FileServer>(
          cell.backup_stack(i), cell.service_port(), file_size));
    }
  }

  void start_download(std::uint64_t expected) {
    app::DownloadClient::Options opt;
    opt.expected_bytes = expected;
    client = std::make_unique<app::DownloadClient>(
        *client_host.stack, client_host.ip,
        std::vector<net::SocketAddr>{cell.connect_addr()}, opt);
    client->start();
  }

  std::unique_ptr<Topology> topo;
  Cell& cell;
  Topology::HostEntry& client_host;
  std::unique_ptr<app::FileServer> primary_app;
  std::unique_ptr<app::FileServer> backup_app;
  std::vector<std::unique_ptr<app::FileServer>> extra_apps;
  std::unique_ptr<app::DownloadClient> client;
};

}  // namespace sttcp::harness
