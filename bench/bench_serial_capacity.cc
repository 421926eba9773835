// §3 sizing: the serial heartbeat channel.
//
// "The HB is less than 20 bytes per TCP connection, and assuming a HB every
// 200ms, this translates to a bandwidth of 0.8 kbps per TCP connection.
// Thus, the serial link provides enough bandwidth for around 100
// simultaneous TCP connections."
//
// This bench sweeps the connection count and reports the serial channel's
// load and health, reproducing the ~100-connection ceiling.
#include "bench/bench_util.h"
#include "sttcp/messages.h"

namespace sttcp::bench {
namespace {

void run() {
  print_header("Serial heartbeat capacity",
               "paper §3 (115.2 kbps RS-232, <20 B/connection, ~100 conns)");

  // Analytic part: wire cost per heartbeat record.
  {
    ::sttcp::sttcp::HeartbeatMsg m;
    const std::size_t header = m.serialize().size();
    ::sttcp::sttcp::HbRecord r;
    r.repl_id = 1;
    m.records.push_back(r);
    const std::size_t per_conn = m.serialize().size() - header;
    std::cout << "heartbeat header: " << header << " B, per-connection record: "
              << per_conn << " B (paper claims < 20 B)\n";
    Table t({"connections", "HB size (B)", "serial load @200ms (kbps)",
             "fits 115.2 kbps"});
    for (const int n : {1, 10, 50, 100, 150, 200}) {
      const std::size_t hb = header + static_cast<std::size_t>(n) * per_conn;
      const double kbps =
          (hb + net::SerialLink::kFramingBytes) * net::SerialLink::kBitsPerByte *
          5.0 / 1000.0;
      t.row(n, hb, kbps, kbps < 115.2 ? "yes" : "NO");
    }
    t.print();
  }

  // Empirical part: run the scenario with N live connections and observe
  // the serial channel.
  std::cout << "\n-- empirical: N live record-stream connections --\n\n";
  {
    Table t({"connections", "serial queue (ms)", "serial HB alive",
             "false failover"});
    for (const int n : {10, 50, 100, 140}) {
      const auto topo = make_figure2(TopologyConfig{});
      Cell& cell = topo->cell();
      Topology::HostEntry& client_host = *topo->host_by_name("client");
      StreamServer p_app(cell.primary_stack(), cell.service_port(), 100);
      StreamServer b_app(cell.backup_stack(), cell.service_port(), 100);
      std::vector<std::unique_ptr<StreamClient>> clients;
      for (int i = 0; i < n; ++i) {
        clients.push_back(std::make_unique<StreamClient>(
            *client_host.stack, client_host.ip, cell.connect_addr(), 100, 1));
        clients.back()->start();
      }
      topo->run_for(sim::Duration::seconds(8));
      const bool failover = topo->world().trace().count("takeover") +
                                topo->world().trace().count("non_ft_mode") >
                            0;
      t.row(n, cell.serial().queue_delay(0).to_millis(),
            ok(cell.primary_endpoint()->serial_channel_alive()),
            failover ? "YES" : "no");
    }
    t.print();
  }

  // Why 1+N groups arbitrate over IP, not serial: keeping the paper's
  // dedicated second channel at N members means N(N-1)/2 point-to-point
  // cables, and every member splits one 115.2 kbps UART across N-1 peers --
  // the per-pair budget (and with it the connection ceiling) shrinks as N
  // grows, while the group heartbeat itself gets BIGGER (view epoch + rank
  // order ride along). The table prices both effects; the conclusion is the
  // design choice in docs/GROUPS.md: serial stays a pair-wise liveness wire,
  // quorum (PromoteRequest/Ack) and the gateway ping go over Ethernet.
  std::cout << "\n-- group arbitration: why quorum moves off the serial link --\n\n";
  {
    ::sttcp::sttcp::HeartbeatMsg pair;
    const std::size_t pair_hdr = pair.serialize().size();
    ::sttcp::sttcp::HbRecord r;
    r.repl_id = 1;
    pair.records.push_back(r);
    const std::size_t per_conn = pair.serialize().size() - pair_hdr;

    Table t({"members N", "serial cables (full mesh)", "HB header (B)",
             "per-peer budget (kbps)", "conn ceiling/peer"});
    for (const int n : {2, 3, 4, 8}) {
      ::sttcp::sttcp::HeartbeatMsg g;
      if (n > 2) {
        g.group_valid = true;
        g.view_epoch = 1;
        for (int m = 0; m < n; ++m) {
          g.view_order.push_back(static_cast<std::uint8_t>(m));
        }
      }
      const std::size_t hdr = g.serialize().size();
      const int cables = n * (n - 1) / 2;
      // One UART per host, time-sliced across its N-1 mesh neighbours.
      const double budget = 115.2 / (n - 1);
      const double hdr_kbps = (hdr + net::SerialLink::kFramingBytes) *
                              net::SerialLink::kBitsPerByte * 5.0 / 1000.0;
      const double per_conn_kbps =
          per_conn * net::SerialLink::kBitsPerByte * 5.0 / 1000.0;
      const int ceiling =
          static_cast<int>((budget - hdr_kbps) / per_conn_kbps);
      t.row(n, cables, hdr, budget, ceiling);
    }
    t.print();
    std::cout << "\nThe pair's ~100-connection ceiling collapses as the mesh\n"
                 "fans out; ST-TCP groups therefore carry view/epoch/rank in\n"
                 "the multicast Ethernet heartbeat and arbitrate promotion by\n"
                 "unanimous grant + gateway ping over IP, keeping the serial\n"
                 "wire pair-sized (it still backstops the classic pair).\n";
  }

  std::cout << "\nExpected shape (paper): comfortably under the 115.2 kbps\n"
               "ceiling up to ~100 connections; beyond that the serial\n"
               "channel saturates (growing queue) and an Ethernet crossover\n"
               "cable should replace it.\n";
}

}  // namespace
}  // namespace sttcp::bench

int main() {
  sttcp::bench::run();
  return 0;
}
