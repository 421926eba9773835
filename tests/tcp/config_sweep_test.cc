// Configuration-space sweep: transfers must stay correct across MSS values,
// buffer sizes, RTO floors, and congestion-control settings — including the
// combinations the demo benches use.
#include <gtest/gtest.h>

#include <tuple>

#include "app/client.h"
#include "app/server.h"
#include "harness/fault.h"
#include "harness/sweep.h"
#include "harness/topology.h"
#include "tests/tcp/tcp_fixture.h"
#include "tests/tcp/read_bytes.h"

namespace sttcp::tcp {
namespace {

using testing::read_bytes;

using testing::pattern_bytes;
using testing::PatternSink;
using testing::TcpFixture;

struct SweepParam {
  std::size_t mss;
  std::size_t send_buffer;
  std::size_t recv_buffer;
  int min_rto_ms;
  bool congestion_control;
  const char* name;
};

const SweepParam kParams[] = {
    {536, 256 << 10, 64 << 10, 200, true, "mss536"},
    {1460, 256 << 10, 64 << 10, 200, true, "default"},
    {1460, 8 << 10, 64 << 10, 200, true, "tiny_send_buffer"},
    {1460, 256 << 10, 4 << 10, 200, true, "tiny_recv_buffer"},
    {1460, 256 << 10, 64 << 10, 50, true, "fast_rto"},
    {1460, 256 << 10, 64 << 10, 1000, true, "slow_rto"},
    {1460, 256 << 10, 64 << 10, 200, false, "no_congestion_control"},
    {9000, 1 << 20, 64 << 10, 200, true, "jumbo_mss"},
    {100, 16 << 10, 8 << 10, 200, true, "pathological_small"},
};

class ConfigSweepTest : public TcpFixture,
                        public ::testing::WithParamInterface<SweepParam> {};

TEST_P(ConfigSweepTest, TransferIntactUnderLoss) {
  const SweepParam& p = GetParam();
  cfg_.mss = p.mss;
  cfg_.send_buffer = p.send_buffer;
  cfg_.recv_buffer = p.recv_buffer;
  cfg_.min_rto = sim::Duration::millis(p.min_rto_ms);
  cfg_.congestion_control = p.congestion_control;
  client_stack_ = std::make_unique<TcpStack>(net_.host(0), cfg_);
  server_stack_ = std::make_unique<TcpStack>(net_.host(1), cfg_);
  net_.link(0).set_drop_probability(0.01);
  net_.link(1).set_drop_probability(0.01);

  const std::uint64_t total = 300'000;
  PatternSink sink;
  bool done = false;
  TcpConnection* server_conn = nullptr;
  std::uint64_t served = 0;
  server_stack_->listen(80, [&](TcpConnection& s) {
    server_conn = &s;
    TcpConnection::Callbacks scb;
    auto pump = [&] {
      while (served < total) {
        const std::size_t chunk = static_cast<std::size_t>(
            std::min<std::uint64_t>(total - served, 8192));
        const std::size_t n = server_conn->send(pattern_bytes(served, chunk));
        served += n;
        if (n < chunk) return;
      }
      server_conn->close();
    };
    scb.on_writable = pump;
    s.set_callbacks(std::move(scb));
    pump();
  });
  TcpConnection* cp = nullptr;
  TcpConnection::Callbacks ccb;
  ccb.on_readable = [&] { sink.consume(read_bytes(*cp, 1 << 20)); };
  ccb.on_peer_closed = [&] {
    done = true;
    cp->close();
  };
  cp = &client_stack_->connect(net_.ip(0), net::SocketAddr{net_.ip(1), 80},
                               std::move(ccb));
  run_for(sim::Duration::seconds(600));

  EXPECT_TRUE(done) << p.name;
  EXPECT_EQ(sink.received, total) << p.name;
  EXPECT_FALSE(sink.corrupt) << p.name;
}

INSTANTIATE_TEST_SUITE_P(Configs, ConfigSweepTest, ::testing::ValuesIn(kParams),
                         [](const ::testing::TestParamInfo<SweepParam>& info) {
                           return info.param.name;
                         });

// The ST-TCP scenario must also hold together across TCP configs.
class SttcpConfigSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SttcpConfigSweepTest, FailoverIntact) {
  const SweepParam& p = GetParam();
  harness::TopologyConfig cfg;
  cfg.tcp.mss = p.mss;
  cfg.tcp.send_buffer = p.send_buffer;
  cfg.tcp.recv_buffer = p.recv_buffer;
  cfg.tcp.min_rto = sim::Duration::millis(p.min_rto_ms);
  cfg.tcp.congestion_control = p.congestion_control;
  const auto topo = harness::make_figure2(std::move(cfg));
  harness::Cell& cell = topo->cell();
  harness::Topology::HostEntry& client_host = *topo->host_by_name("client");
  const std::uint64_t size = 3'000'000;
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), size);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), size);
  app::DownloadClient::Options opt;
  opt.expected_bytes = size;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  client.start();
  inject(*topo, harness::Fault::Crash(harness::Node::kPrimary).at(sim::Duration::millis(300)));
  topo->run_for(sim::Duration::seconds(120));
  EXPECT_TRUE(client.complete()) << p.name;
  EXPECT_FALSE(client.corrupt()) << p.name;
  EXPECT_EQ(client.connection_failures(), 0) << p.name;
}

INSTANTIATE_TEST_SUITE_P(Configs, SttcpConfigSweepTest,
                         ::testing::ValuesIn(kParams),
                         [](const ::testing::TestParamInfo<SweepParam>& info) {
                           return info.param.name;
                         });

// The demo benches run this grid through harness::SweepRunner; the pooled
// sweep must reproduce the serial one exactly (each job owns its World).
TEST(ConfigSweepRunnerTest, PooledSweepMatchesSerial) {
  const auto job = [](std::size_t i) {
    const SweepParam& p = kParams[i];
    harness::TopologyConfig cfg;
    cfg.tcp.mss = p.mss;
    cfg.tcp.send_buffer = p.send_buffer;
    cfg.tcp.recv_buffer = p.recv_buffer;
    cfg.tcp.min_rto = sim::Duration::millis(p.min_rto_ms);
    cfg.tcp.congestion_control = p.congestion_control;
    const auto topo = harness::make_figure2(std::move(cfg));
    harness::Cell& cell = topo->cell();
    harness::Topology::HostEntry& client_host = *topo->host_by_name("client");
    const std::uint64_t size = 400'000;
    app::FileServer p_app(cell.primary_stack(), cell.service_port(), size);
    app::FileServer b_app(cell.backup_stack(), cell.service_port(), size);
    app::DownloadClient::Options opt;
    opt.expected_bytes = size;
    app::DownloadClient client(*client_host.stack, client_host.ip,
                               {cell.connect_addr()}, opt);
    client.start();
    topo->run_for(sim::Duration::seconds(60));
    return std::tuple(client.complete(), client.corrupt(), client.received(),
                      topo->world().trace().entries().size());
  };
  // A small slice of the grid keeps this fast even under sanitizers.
  constexpr std::size_t kJobs = 3;
  const auto serial = harness::SweepRunner(1).map(kJobs, job);
  const auto pooled = harness::SweepRunner(4).map(kJobs, job);
  for (std::size_t i = 0; i < kJobs; ++i) {
    EXPECT_TRUE(std::get<0>(serial[i])) << kParams[i].name;
    EXPECT_FALSE(std::get<1>(serial[i])) << kParams[i].name;
    EXPECT_EQ(serial[i], pooled[i]) << kParams[i].name;
  }
}

}  // namespace
}  // namespace sttcp::tcp
