// End-to-end telemetry: a fully instrumented masked failover must produce a
// complete FailoverTimeline whose segments decompose the client-observed
// stall (the ISSUE acceptance criterion: segment sum == client gap within
// one heartbeat period), plus sane counters/histograms at every layer and a
// JSON export carrying all of it.
#include <gtest/gtest.h>

#include <string>

#include "app/client.h"
#include "app/server.h"
#include "harness/fault.h"
#include "harness/topology.h"
#include "obs/metrics.h"

namespace sttcp {
namespace {

using harness::Cell;
using harness::Fault;
using harness::Node;
using harness::Topology;
using harness::TopologyConfig;

struct InstrumentedRun {
  bool complete = false;
  sim::Duration max_stall;
  obs::FailoverTimeline::Segments segments;
  std::string json;
};

InstrumentedRun run_instrumented_failover(TopologyConfig cfg,
                                          sim::Duration crash_at) {
  cfg.enable_metrics = true;
  const auto topo = make_figure2(std::move(cfg));
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  constexpr std::uint64_t kBytes = 20'000'000;
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), kBytes);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), kBytes);
  app::DownloadClient::Options opt;
  opt.expected_bytes = kBytes;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  client.start();
  inject(*topo, Fault::Crash(Node::kPrimary).at(crash_at));
  topo->run_for(sim::Duration::seconds(60));

  InstrumentedRun out;
  out.complete = client.complete() && !client.corrupt() &&
                 client.connection_failures() == 0;
  out.max_stall = client.max_stall();
  const auto seg = topo->metrics()->timeline().segments();
  if (seg.has_value()) out.segments = *seg;
  EXPECT_TRUE(seg.has_value()) << "timeline incomplete: "
                               << topo->metrics()->timeline().json();
  out.json = topo->metrics_json();
  return out;
}

TEST(TelemetryTest, TimelineSegmentsSumToClientObservedGap) {
  const TopologyConfig cfg;
  const double hb_ms =
      static_cast<double>(cfg.sttcp.hb_period.us()) / 1000.0;
  // 20 MB at 100 Mbps is ~1.7 s of transfer; crash at 1 s lands mid-stream.
  const InstrumentedRun r =
      run_instrumented_failover(cfg, sim::Duration::seconds(1));
  ASSERT_TRUE(r.complete);

  // Decomposition is internally consistent.
  EXPECT_DOUBLE_EQ(r.segments.detection_ms + r.segments.takeover_ms +
                       r.segments.retransmission_ms,
                   r.segments.total_ms);
  EXPECT_GT(r.segments.detection_ms, 0.0);
  EXPECT_GE(r.segments.takeover_ms, 0.0);
  EXPECT_GE(r.segments.retransmission_ms, 0.0);

  // The acceptance criterion: segments sum to the client-observed stall
  // within one heartbeat period. (The client's gap starts at the last byte
  // before the crash, the timeline at the fault itself; with a saturated
  // download those differ by far less than one heartbeat.)
  const double stall_ms = static_cast<double>(r.max_stall.us()) / 1000.0;
  EXPECT_NEAR(r.segments.total_ms, stall_ms, hb_ms)
      << "timeline total vs client max_stall";

  // Detection is bounded by the conviction threshold in heartbeat periods.
  EXPECT_LE(r.segments.detection_ms,
            hb_ms * (cfg.sttcp.hb_miss_threshold + 1));
}

TEST(TelemetryTest, HoldsAcrossPresets) {
  for (const TopologyConfig& preset :
       {TopologyConfig::Paper2005(), TopologyConfig::FastNet()}) {
    const double hb_ms =
        static_cast<double>(preset.sttcp.hb_period.us()) / 1000.0;
    // Crash while the 20 MB transfer is still in flight: ~1.7 s on the
    // paper's 100 Mbps fabric, ~0.17 s on the gigabit preset.
    const sim::Duration crash_at = preset.link_bandwidth_bps >= 1'000'000'000
                                       ? sim::Duration::millis(100)
                                       : sim::Duration::seconds(1);
    const InstrumentedRun r = run_instrumented_failover(preset, crash_at);
    ASSERT_TRUE(r.complete);
    const double stall_ms = static_cast<double>(r.max_stall.us()) / 1000.0;
    EXPECT_NEAR(r.segments.total_ms, stall_ms, hb_ms) << "hb_ms=" << hb_ms;
  }
}

TEST(TelemetryTest, CountersAndHistogramsArePopulatedAcrossLayers) {
  TopologyConfig cfg;
  cfg.enable_metrics = true;
  const auto topo = make_figure2(std::move(cfg));
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  constexpr std::uint64_t kBytes = 5'000'000;
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), kBytes);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), kBytes);
  app::DownloadClient::Options opt;
  opt.expected_bytes = kBytes;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  client.start();
  inject(*topo, Fault::Crash(Node::kPrimary).at(sim::Duration::millis(200)));
  topo->run_for(sim::Duration::seconds(60));
  ASSERT_TRUE(client.complete());
  topo->export_metrics();
  obs::MetricsRegistry& reg = *topo->metrics();

  // net: frames moved on the client link, queue delay histogram sampled.
  EXPECT_GT(reg.counter("net.link.client.frames_delivered").value(), 100u);
  EXPECT_GT(reg.counter("net.link.client.bytes_delivered").value(), kBytes);
  EXPECT_GT(reg.histogram("net.link.client.queue_delay_us").count(), 0u);
  EXPECT_GT(reg.counter("net.switch.forwarded").value(), 0u);
  EXPECT_GT(reg.counter("net.switch.multicast").value(), 0u);

  // tcp: the crash forces at least one retransmission on the server side.
  const std::uint64_t rexmits =
      reg.counter("tcp.primary.retransmissions").value() +
      reg.counter("tcp.backup.retransmissions").value();
  EXPECT_GT(rexmits, 0u);
  EXPECT_GT(reg.histogram("tcp.primary.srtt_us").count(), 0u);
  EXPECT_GT(reg.histogram("tcp.backup.cwnd_bytes").count(), 0u);

  // sttcp: heartbeats flowed on both channels before the crash; the backup
  // observed inter-arrival gaps near the heartbeat period.
  obs::Histogram& hb_ip = reg.histogram("sttcp.backup.hb_interarrival_us.ip");
  EXPECT_GT(hb_ip.count(), 0u);
  EXPECT_GT(reg.histogram("sttcp.backup.hb_interarrival_us.serial").count(),
            0u);
  EXPECT_GT(reg.counter("sttcp.backup.hb_received_ip").value(), 0u);
  EXPECT_GT(reg.counter("sttcp.backup.takeovers").value(), 0u);

  // JSON export carries every family plus the timeline.
  const std::string js = topo->metrics_json();
  for (const char* key :
       {"net.link.client.frames_delivered", "net.switch.forwarded",
        "tcp.primary.srtt_us", "sttcp.backup.hb_interarrival_us.ip",
        "timeline", "fault_injected", "segments_ms"}) {
    EXPECT_NE(js.find(key), std::string::npos) << "missing " << key;
  }
}

TEST(TelemetryTest, MetricsOffMeansNoRegistryAndEmptyJson) {
  const auto topo = make_figure2(TopologyConfig{});
  EXPECT_EQ(topo->metrics(), nullptr);
  EXPECT_EQ(topo->pcap(), nullptr);
  EXPECT_EQ(topo->metrics_json(), "{}");
}

}  // namespace
}  // namespace sttcp
