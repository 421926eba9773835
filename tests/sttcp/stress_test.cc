// Stress: 64 concurrent replicated connections through a tapped switch,
// crashed primary, under an event budget. Exercises the zero-copy frame
// fan-out (multicast tap + 64-flow interleave) and the event-loop timer
// churn at a scale the unit tests don't reach; runs in the sanitizer lane.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "app/client.h"
#include "app/server.h"
#include "harness/fault.h"
#include "harness/topology.h"
#include "net/frame.h"

namespace sttcp {
namespace {

TEST(SttcpStressTest, SixtyFourConnectionsSurviveFailover) {
  constexpr int kConnections = 64;
  constexpr std::uint64_t kFileSize = 1'000'000;

  const auto topo = harness::make_figure2(harness::TopologyConfig{});
  harness::Cell& cell = topo->cell();
  harness::Topology::HostEntry& client_host = *topo->host_by_name("client");
  // Runaway guard: the whole run (64 x 1 MB replicated downloads plus a
  // failover) must fit a bounded number of events or something is looping.
  topo->world().loop().set_event_budget(80'000'000);

  // Tap every LAN frame, as the pcap writer would: each tapped frame is a
  // refcount on the sender's buffer, and must stay readable here.
  std::uint64_t tapped_frames = 0;
  std::uint64_t tapped_bytes = 0;
  topo->ethernet_switch().set_frame_tap(
      [&](sim::SimTime, const net::Frame& f) {
        ++tapped_frames;
        tapped_bytes += f.size();
        ASSERT_FALSE(f.empty());
      });

  app::FileServer p_app(cell.primary_stack(), cell.service_port(), kFileSize);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), kFileSize);

  std::vector<std::unique_ptr<app::DownloadClient>> clients;
  clients.reserve(kConnections);
  for (int i = 0; i < kConnections; ++i) {
    app::DownloadClient::Options opt;
    opt.expected_bytes = kFileSize;
    clients.push_back(std::make_unique<app::DownloadClient>(
        *client_host.stack, client_host.ip,
        std::vector<net::SocketAddr>{cell.connect_addr()}, opt));
    clients.back()->start();
  }

  topo->run_for(sim::Duration::millis(600));
  EXPECT_EQ(cell.backup_endpoint()->replicated_connections(),
            static_cast<std::size_t>(kConnections));

  inject(*topo, harness::Fault::Crash(harness::Node::kPrimary)
                .at(sim::Duration::zero()));
  topo->run_for(sim::Duration::seconds(120));

  int complete = 0, intact = 0, failures = 0;
  for (const auto& c : clients) {
    if (c->complete()) ++complete;
    if (!c->corrupt()) ++intact;
    failures += c->connection_failures();
  }
  EXPECT_EQ(complete, kConnections);
  EXPECT_EQ(intact, kConnections);
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(topo->world().trace().count("takeover"), 1u);

  // The tap must have seen the whole transfer: at least the payload volume
  // once (client->multicast frames are tapped once at ingress).
  EXPECT_GT(tapped_frames, 64u * 100u);
  EXPECT_GT(tapped_bytes, kConnections * kFileSize);
}

}  // namespace
}  // namespace sttcp
