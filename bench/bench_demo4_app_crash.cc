// Demo 4: Application Crash Failure.
//
// Two flavours of application failure on the primary (paper §5 Demo 4):
//  (a) the application crashes but the socket stays open — no FIN;
//  (b) the OS cleans the process up and closes the socket — a FIN (or RST)
//      is generated and must be withheld while arbitration runs.
// Both are detected via the AppMaxLagBytes / AppMaxLagTime criteria and the
// connection migrates to the backup. The backup-side variants are included
// (Table 1 row 2/3 backup rows).
#include "bench/bench_util.h"

namespace sttcp::bench {
namespace {

DownloadRun one(DownloadSpec::FailureKind kind, std::uint64_t lag_bytes,
                sim::Duration lag_time) {
  TopologyConfig cfg;
  cfg.sttcp.app_max_lag_bytes = lag_bytes;
  cfg.sttcp.app_max_lag_time = lag_time;
  cfg.sttcp.app_lag_bytes_grace = sim::Duration::millis(500);
  cfg.sttcp.max_delay_fin = sim::Duration::seconds(30);
  DownloadSpec spec;
  spec.file_size = 60'000'000;
  spec.failure = kind;
  spec.crash_at = sim::Duration::millis(1500);
  return run_download(std::move(cfg), spec);
}

void run() {
  print_header("Demo 4: application crash failures",
               "paper §5 Demo 4 (crash without FIN; OS cleanup with FIN)");

  using FK = DownloadSpec::FailureKind;
  {
    Table t({"scenario", "detect (ms)", "recovery", "completed", "intact",
             "client glitch (ms)"});
    const struct {
      FK kind;
      const char* name;
    } cases[] = {
        {FK::kAppHangPrimary, "primary app hang (no FIN)"},
        {FK::kAppFinPrimary, "primary app crash + OS FIN"},
        {FK::kAppRstPrimary, "primary app crash + RST"},
        {FK::kAppHangBackup, "backup app hang (no FIN)"},
        {FK::kAppFinBackup, "backup app crash + OS FIN"},
        {FK::kAppRstBackup, "backup app crash + RST"},
    };
    for (const auto& c : cases) {
      const DownloadRun r =
          one(c.kind, 64 * 1024, sim::Duration::seconds(2));
      t.row(c.name, r.detection_ms, r.outcome, ok(r.complete), ok(!r.corrupt),
            r.max_stall_ms);
    }
    t.print();
  }

  std::cout << "\n-- sweep: AppMaxLagTime (primary hang) --\n\n";
  {
    Table t({"AppMaxLagTime", "detect (ms)", "client glitch (ms)"});
    for (const auto lag_time :
         {sim::Duration::millis(500), sim::Duration::seconds(1),
          sim::Duration::seconds(2), sim::Duration::seconds(5)}) {
      // Large byte threshold: isolate the time criterion.
      const DownloadRun r = one(FK::kAppHangPrimary, 1u << 30, lag_time);
      t.row(lag_time.str(), r.detection_ms, r.max_stall_ms);
    }
    t.print();
  }

  std::cout << "\n-- sweep: AppMaxLagBytes (primary hang) --\n\n";
  {
    Table t({"AppMaxLagBytes", "detect (ms)", "client glitch (ms)"});
    for (const std::uint64_t lag_bytes : {std::uint64_t{16} << 10, std::uint64_t{64} << 10,
                                          std::uint64_t{256} << 10}) {
      // Long time threshold: isolate the byte criterion.
      const DownloadRun r =
          one(FK::kAppHangPrimary, lag_bytes, sim::Duration::seconds(60));
      t.row(std::to_string(lag_bytes / 1024) + " KB", r.detection_ms,
            r.max_stall_ms);
    }
    t.print();
  }

  std::cout << "\nExpected shape (paper): both failure flavours are detected\n"
               "at the configured lag thresholds; primary-side failures end\n"
               "in a takeover, backup-side in non-fault-tolerant mode; the\n"
               "withheld FIN/RST never reaches the client.\n";
}

}  // namespace
}  // namespace sttcp::bench

int main() {
  sttcp::bench::run();
  return 0;
}
