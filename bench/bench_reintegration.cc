// Reintegration bench: how fast does a failed-over pair get its fault
// tolerance back?
//
// A backup crashes under a live download, the primary carries on alone, and
// the backup is powered on again 2 s later. We measure time-to-FT-restored —
// power_on until the survivor's reintegration_complete (the pair is back in
// replicating mode) — swept against
//   * the live transfer rate (link bandwidth; the snapshot and the catch-up
//     tap compete with the client stream), and
//   * the application checkpoint size (padding added to the app state that
//     rides in the snapshot).
//
// Every sweep point is an independent single-threaded world, so the sweeps
// run through harness::SweepRunner (STTCP_SWEEP_THREADS controls the pool);
// results are ordered by sweep index regardless of thread count.
#include "bench/bench_util.h"

namespace sttcp::bench {
namespace {

struct ReintRun {
  double ft_restored_ms = -1;  // power_on -> reintegration_complete
  double snapshots_sent = 0;   // >1 means the loss-retry path fired
  bool complete = false;
  bool intact = false;
};

ReintRun one(std::uint64_t link_bps, std::size_t ckpt_pad,
             std::uint64_t seed = 1) {
  TopologyConfig cfg;
  cfg.seed = seed;
  cfg.link_bandwidth_bps = link_bps;
  const auto topo = make_figure2(std::move(cfg));
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  // Size the file for ~12 s at the link rate so the transfer is still in
  // flight through the crash, the revival and the reintegration.
  const std::uint64_t size = link_bps / 8 * 12;
  FileServer p_app(cell.primary_stack(), cell.service_port(), size);
  FileServer b_app(cell.backup_stack(), cell.service_port(), size);
  // The pad models real application state travelling in the snapshot; the
  // restorer parses only the leading connection records, so padding is a
  // pure wire-size cost, exactly like opaque app state would be.
  auto pad = [ckpt_pad](net::Bytes b) {
    b.resize(b.size() + ckpt_pad, 0xa5);
    return b;
  };
  cell.primary_endpoint()->set_checkpoint_provider(
      [&p_app, pad] { return pad(p_app.checkpoint()); });
  cell.primary_endpoint()->set_checkpoint_restorer(
      [&p_app](net::BytesView d) { p_app.stage_restore(d); });
  cell.backup_endpoint()->set_checkpoint_provider(
      [&b_app, pad] { return pad(b_app.checkpoint()); });
  cell.backup_endpoint()->set_checkpoint_restorer(
      [&b_app](net::BytesView d) { b_app.stage_restore(d); });
  DownloadClient::Options opt;
  opt.expected_bytes = size;
  DownloadClient client(*client_host.stack, client_host.ip, {cell.connect_addr()},
                        opt);
  client.start();

  inject(*topo, harness::Fault::Crash(harness::Node::kBackup)
                .at(sim::Duration::millis(800)));
  inject(*topo, harness::Fault::PowerOn(harness::Node::kBackup)
                .at(sim::Duration::millis(2800)));

  const auto& tr = topo->world().trace();
  const sim::SimTime limit = sim::SimTime() + sim::Duration::seconds(60);
  while (tr.count("reintegration_complete") == 0 && topo->world().now() < limit) {
    topo->run_for(sim::Duration::millis(50));
  }
  topo->run_for(sim::Duration::seconds(30));  // drain: let the download finish

  ReintRun out;
  out.complete = client.complete();
  out.intact = !client.corrupt() && client.connection_failures() == 0;
  out.snapshots_sent = static_cast<double>(tr.count("snapshot_sent"));
  const auto on = tr.first_time("power_on");
  const auto done = tr.first_time("reintegration_complete");
  if (on && done) out.ft_restored_ms = (*done - *on).to_millis();
  return out;
}

const std::uint64_t kRates[] = {10'000'000, 100'000'000, 1'000'000'000};
const char* kRateNames[] = {"10 Mbps", "100 Mbps (paper)", "1 Gbps"};
const std::size_t kPads[] = {0, 4096, 65536, 1 << 20};

void run(JsonSink& json) {
  print_header("Reintegration: time to restore fault tolerance",
               "backup crash at 0.8s, power-on at 2.8s, live download");
  const SweepRunner pool;

  std::cout << "-- sweep: transfer rate (empty app checkpoint) --\n\n";
  {
    const auto runs = pool.map(std::size(kRates),
                               [](std::size_t i) { return one(kRates[i], 0); });
    Table t({"link rate", "FT restored (ms)", "snapshots sent", "completed",
             "intact"});
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const ReintRun& r = runs[i];
      t.row(kRateNames[i], r.ft_restored_ms, r.snapshots_sent, ok(r.complete),
            ok(r.intact));
    }
    t.print();
    json.table(t, "transfer_rate");
  }

  std::cout << "\n-- sweep: app checkpoint size (Fast Ethernet) --\n\n";
  {
    const auto runs = pool.map(std::size(kPads), [](std::size_t i) {
      return one(100'000'000, kPads[i]);
    });
    Table t({"checkpoint pad (B)", "FT restored (ms)", "snapshots sent",
             "intact"});
    for (std::size_t i = 0; i < runs.size(); ++i) {
      t.row(kPads[i], runs[i].ft_restored_ms, runs[i].snapshots_sent,
            ok(runs[i].intact));
    }
    t.print();
    json.table(t, "checkpoint_size");
  }

  std::cout << "\nExpected shape: time-to-FT is dominated by the heartbeat\n"
               "round trip (rejoin request -> snapshot -> ready -> commit),\n"
               "so it sits near one heartbeat period and grows only mildly\n"
               "with checkpoint size (snapshot serialization on the wire)\n"
               "and with a busier link.\n";
}

}  // namespace
}  // namespace sttcp::bench

int main(int argc, char** argv) {
  sttcp::bench::JsonSink json(argc, argv);
  sttcp::bench::run(json);
  return 0;
}
