// Bulk-transfer integration tests: a source app streams pattern bytes to a
// sink over the simulated network under various sizes and loss conditions.
#include <gtest/gtest.h>

#include "tests/tcp/tcp_fixture.h"
#include "tests/tcp/read_bytes.h"

namespace sttcp::tcp {
namespace {

using testing::read_bytes;

using testing::pattern_bytes;
using testing::PatternSink;
using testing::TcpFixture;

/// Pumps `total` pattern bytes through a connection as send space allows.
class SourceApp {
 public:
  SourceApp(TcpConnection& conn, std::uint64_t total) : conn_(conn), total_(total) {}

  void pump() {
    while (sent_ < total_) {
      const std::size_t chunk =
          static_cast<std::size_t>(std::min<std::uint64_t>(total_ - sent_, 16384));
      const std::size_t n = conn_.send(pattern_bytes(sent_, chunk));
      sent_ += n;
      if (n < chunk) return;  // buffer full; resume on_writable
    }
    if (!closed_) {
      closed_ = true;
      conn_.close();
    }
  }

  std::uint64_t sent() const { return sent_; }

 private:
  TcpConnection& conn_;
  std::uint64_t total_;
  std::uint64_t sent_ = 0;
  bool closed_ = false;
};

struct TransferResult {
  PatternSink sink;
  bool client_done = false;
  sim::SimTime done_at;
};

class TransferTest : public TcpFixture,
                     public ::testing::WithParamInterface<std::uint64_t> {};

/// Server streams `total` bytes to the client, then closes.
void run_download(TcpFixture& f, std::uint64_t total, TransferResult& out,
                  sim::Duration limit) {
  std::unique_ptr<SourceApp> src;
  f.server_stack_->listen(80, [&](TcpConnection& s) {
    src = std::make_unique<SourceApp>(s, total);
    TcpConnection::Callbacks scb;
    scb.on_writable = [&] { src->pump(); };
    s.set_callbacks(std::move(scb));
    src->pump();
  });
  TcpConnection* cp = nullptr;
  TcpConnection::Callbacks ccb;
  ccb.on_readable = [&] { out.sink.consume(read_bytes(*cp, 1 << 20)); };
  ccb.on_peer_closed = [&] {
    out.client_done = true;
    out.done_at = f.net_.world.now();
    cp->close();
  };
  cp = &f.client_stack_->connect(f.net_.ip(0), net::SocketAddr{f.net_.ip(1), 80},
                                 std::move(ccb));
  f.run_for(limit);
}

TEST_P(TransferTest, DownloadCompletesIntact) {
  const std::uint64_t total = GetParam();
  TransferResult r;
  run_download(*this, total, r, sim::Duration::seconds(120));
  EXPECT_TRUE(r.client_done);
  EXPECT_EQ(r.sink.received, total);
  EXPECT_FALSE(r.sink.corrupt);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TransferTest,
                         ::testing::Values(1, 1000, 1460, 1461, 65536, 1000000,
                                           10000000));

TEST_F(TransferTest, SteadyStateSegmentsDemuxToTheirConnection) {
  // Every segment of a clean download reaches its connection by one map
  // lookup; only the server's first SYN finds none (it goes to the listener).
  const std::uint64_t total = 256 * 1024;
  TransferResult r;
  run_download(*this, total, r, sim::Duration::seconds(30));
  ASSERT_TRUE(r.client_done);
  EXPECT_EQ(r.sink.received, total);
  const TcpStack::Stats& cs = client_stack_->stats();
  const TcpStack::Stats& ss = server_stack_->stats();
  EXPECT_EQ(cs.segments_demuxed, cs.segments_in);
  EXPECT_EQ(ss.segments_demuxed + 1, ss.segments_in);
  EXPECT_EQ(cs.rst_sent + ss.rst_sent, 0u);
}

TEST_F(TransferTest, ThroughputApproachesLineRate) {
  // 10 MB over a 100 Mbps path should take just over 0.8s once the window
  // has opened; allow generous slack for slow start.
  const std::uint64_t total = 10'000'000;
  TransferResult r;
  run_download(*this, total, r, sim::Duration::seconds(60));
  ASSERT_TRUE(r.client_done);
  const double secs = (r.done_at - sim::SimTime::zero()).to_seconds();
  const double gbps = static_cast<double>(total) * 8 / secs / 1e6;  // Mbps
  EXPECT_GT(gbps, 50.0) << "took " << secs << "s";
  EXPECT_LT(gbps, 100.1);
}

class LossyTransferTest : public TcpFixture,
                          public ::testing::WithParamInterface<double> {};

TEST_P(LossyTransferTest, DownloadSurvivesRandomLoss) {
  const double loss = GetParam();
  net_.link(0).set_drop_probability(loss);
  net_.link(1).set_drop_probability(loss);
  const std::uint64_t total = 300'000;
  TransferResult r;
  run_download(*this, total, r, sim::Duration::seconds(600));
  EXPECT_TRUE(r.client_done) << "loss=" << loss;
  EXPECT_EQ(r.sink.received, total);
  EXPECT_FALSE(r.sink.corrupt);
}

INSTANTIATE_TEST_SUITE_P(LossRates, LossyTransferTest,
                         ::testing::Values(0.001, 0.01, 0.05, 0.1));

TEST_F(TransferTest, UploadDirectionAlsoWorks) {
  // Client streams to server (exercises the passive side's receive path).
  const std::uint64_t total = 500'000;
  PatternSink sink;
  TcpConnection* server_conn = nullptr;
  bool server_saw_eof = false;
  server_stack_->listen(80, [&](TcpConnection& s) {
    server_conn = &s;
    TcpConnection::Callbacks scb;
    scb.on_readable = [&] { sink.consume(read_bytes(*server_conn, 1 << 20)); };
    scb.on_peer_closed = [&] {
      server_saw_eof = true;
      server_conn->close();
    };
    s.set_callbacks(std::move(scb));
  });
  TcpConnection* cp = nullptr;
  std::unique_ptr<SourceApp> src;
  TcpConnection::Callbacks ccb;
  ccb.on_established = [&] {
    src = std::make_unique<SourceApp>(*cp, total);
    src->pump();
  };
  ccb.on_writable = [&] {
    if (src) src->pump();
  };
  cp = &client_stack_->connect(net_.ip(0), net::SocketAddr{net_.ip(1), 80},
                               std::move(ccb));
  run_for(sim::Duration::seconds(60));
  EXPECT_TRUE(server_saw_eof);
  EXPECT_EQ(sink.received, total);
  EXPECT_FALSE(sink.corrupt);
}

TEST_F(TransferTest, TwoSimultaneousConnectionsShareTheLink) {
  std::unique_ptr<SourceApp> srcs[2];
  int idx = 0;
  server_stack_->listen(80, [&](TcpConnection& s) {
    auto& slot = srcs[idx++];
    slot = std::make_unique<SourceApp>(s, 200'000);
    TcpConnection::Callbacks scb;
    auto* raw = slot.get();
    scb.on_writable = [raw] { raw->pump(); };
    s.set_callbacks(std::move(scb));
    slot->pump();
  });
  PatternSink sinks[2];
  bool done[2] = {false, false};
  TcpConnection* conns[2] = {nullptr, nullptr};
  for (int i = 0; i < 2; ++i) {
    TcpConnection::Callbacks ccb;
    ccb.on_readable = [&, i] { sinks[i].consume(read_bytes(*conns[i], 1 << 20)); };
    ccb.on_peer_closed = [&, i] {
      done[i] = true;
      conns[i]->close();
    };
    conns[i] = &client_stack_->connect(net_.ip(0), net::SocketAddr{net_.ip(1), 80},
                                       std::move(ccb));
  }
  run_for(sim::Duration::seconds(60));
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(done[i]) << i;
    EXPECT_EQ(sinks[i].received, 200'000u);
    EXPECT_FALSE(sinks[i].corrupt);
  }
}

TEST_F(TransferTest, OutageRecoveryIsPromptGoBackN) {
  // A multi-second total outage loses a full window of segments. After the
  // link heals, go-back-N retransmission must refill the hole within a few
  // RTOs — not one segment per timeout (a whole window of timeouts).
  const std::uint64_t total = 30'000'000;
  TransferResult r;
  net_.world.loop().schedule_after(sim::Duration::millis(500), [&] {
    net_.link(0).fail();
    net_.link(1).fail();
  });
  net_.world.loop().schedule_after(sim::Duration::millis(2500), [&] {
    net_.link(0).heal();
    net_.link(1).heal();
  });
  run_download(*this, total, r, sim::Duration::seconds(60));
  ASSERT_TRUE(r.client_done);
  EXPECT_EQ(r.sink.received, total);
  EXPECT_FALSE(r.sink.corrupt);
  // 30 MB at ~90 Mbps is ~2.7s; outage costs ~2s + backoff alignment.
  // Without go-back-N this took tens of seconds.
  const double secs = (r.done_at - sim::SimTime::zero()).to_seconds();
  EXPECT_LT(secs, 10.0);
}

TEST_F(TransferTest, BurstLossMidTransferRecovers) {
  const std::uint64_t total = 200'000;
  TransferResult r;
  // Drop a burst of 30 frames in each direction at t=30ms.
  net_.world.loop().schedule_after(sim::Duration::millis(30), [&] {
    net_.link(0).drop_next(30);
    net_.link(1).drop_next(30);
  });
  run_download(*this, total, r, sim::Duration::seconds(120));
  EXPECT_TRUE(r.client_done);
  EXPECT_EQ(r.sink.received, total);
  EXPECT_FALSE(r.sink.corrupt);
}

TEST_F(TransferTest, SequenceNumberWraparoundMidTransfer) {
  // Both ISNs pinned just below 2^32: every sequence counter wraps within
  // the first ~100 KB. The 64-bit internal tracking must make this
  // invisible.
  cfg_.isn_override = 0xffffff00u;
  client_stack_ = std::make_unique<TcpStack>(net_.host(0), cfg_);
  server_stack_ = std::make_unique<TcpStack>(net_.host(1), cfg_);
  const std::uint64_t total = 2'000'000;
  TransferResult r;
  run_download(*this, total, r, sim::Duration::seconds(60));
  EXPECT_TRUE(r.client_done);
  EXPECT_EQ(r.sink.received, total);
  EXPECT_FALSE(r.sink.corrupt);
}

TEST_F(TransferTest, WraparoundWithLossStillIntact) {
  cfg_.isn_override = 0xfffffff0u;
  client_stack_ = std::make_unique<TcpStack>(net_.host(0), cfg_);
  server_stack_ = std::make_unique<TcpStack>(net_.host(1), cfg_);
  net_.link(0).set_drop_probability(0.02);
  net_.link(1).set_drop_probability(0.02);
  const std::uint64_t total = 500'000;
  TransferResult r;
  run_download(*this, total, r, sim::Duration::seconds(120));
  EXPECT_TRUE(r.client_done);
  EXPECT_EQ(r.sink.received, total);
  EXPECT_FALSE(r.sink.corrupt);
}

}  // namespace
}  // namespace sttcp::tcp
