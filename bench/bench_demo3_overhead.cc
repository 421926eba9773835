// Demo 3: Insignificant Overhead during Normal Operation.
//
// A ~100 MB file is transferred with ST-TCP enabled and disabled; the paper
// compares the transfer times. The heartbeat consumes ~0.8 kbps per
// connection against a 100 Mbps data path, and the backup's work rides the
// multicast tap, so the overhead must be negligible.
#include "bench/bench_util.h"

namespace sttcp::bench {
namespace {

double transfer_secs(bool sttcp_enabled, std::uint64_t size,
                     sim::Duration hb_period = sim::Duration::millis(200)) {
  TopologyConfig cfg;
  cfg.enable_sttcp = sttcp_enabled;
  cfg.sttcp.hb_period = hb_period;
  DownloadSpec spec;
  spec.file_size = size;
  spec.run_limit = sim::Duration::seconds(600);
  const DownloadRun r = run_download(std::move(cfg), spec);
  if (!r.complete || r.corrupt) return -1;
  return r.transfer_secs;
}

void run() {
  print_header("Demo 3: overhead during failure-free operation",
               "paper §5 Demo 3 (~100 MB transfer, ST-TCP on vs off)");

  {
    Table t({"file size", "plain TCP (s)", "ST-TCP (s)", "overhead (%)"});
    for (const std::uint64_t size :
         {std::uint64_t{1'000'000}, std::uint64_t{10'000'000},
          std::uint64_t{100'000'000}}) {
      const double plain = transfer_secs(false, size);
      const double st = transfer_secs(true, size);
      t.row(std::to_string(size / 1'000'000) + " MB", plain, st,
            (st - plain) / plain * 100.0);
    }
    t.print();
  }

  std::cout << "\n-- sweep: heartbeat period (100 MB transfer) --\n\n";
  {
    const double plain = transfer_secs(false, 100'000'000);
    Table t({"HB period", "ST-TCP (s)", "overhead vs plain (%)"});
    for (const auto period :
         {sim::Duration::millis(50), sim::Duration::millis(200),
          sim::Duration::millis(500), sim::Duration::seconds(1)}) {
      const double st = transfer_secs(true, 100'000'000, period);
      t.row(period.str(), st, (st - plain) / plain * 100.0);
    }
    t.print();
  }

  std::cout << "\nExpected shape (paper): the ST-TCP and plain-TCP transfer\n"
               "times are nearly identical (low single-digit percent at\n"
               "most); overhead does not grow meaningfully with heartbeat\n"
               "frequency.\n";
}

}  // namespace
}  // namespace sttcp::bench

int main() {
  sttcp::bench::run();
  return 0;
}
