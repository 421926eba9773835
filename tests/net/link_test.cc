#include "net/link.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/world.h"

namespace sttcp::net {
namespace {

class CollectSink final : public FrameSink {
 public:
  explicit CollectSink(sim::World& world) : world_(world) {}
  void deliver_frame(Frame frame) override {
    frames.push_back(std::move(frame));
    times.push_back(world_.now());
  }
  std::vector<Frame> frames;
  std::vector<sim::SimTime> times;

 private:
  sim::World& world_;
};

Frame make_frame(std::size_t n) { return Frame::copy_of(Bytes(n, 0xab)); }

TEST(LinkTest, DeliversAfterLatency) {
  sim::World w;
  Link link(w, sim::Duration::millis(2), 0);
  CollectSink a(w), b(w);
  link.port(0).set_sink(&a);
  link.port(1).set_sink(&b);
  link.port(0).send(make_frame(100));
  w.loop().run();
  ASSERT_EQ(b.frames.size(), 1u);
  EXPECT_TRUE(a.frames.empty());
  EXPECT_EQ(b.times[0], sim::SimTime::zero() + sim::Duration::millis(2));
}

TEST(LinkTest, BandwidthSerializesBackToBack) {
  sim::World w;
  // 1 Mbps: a 1250-byte frame takes exactly 10 ms on the wire.
  Link link(w, sim::Duration::zero(), 1'000'000);
  CollectSink b(w);
  link.port(1).set_sink(&b);
  link.port(0).send(make_frame(1250));
  link.port(0).send(make_frame(1250));
  w.loop().run();
  ASSERT_EQ(b.frames.size(), 2u);
  EXPECT_EQ(b.times[0], sim::SimTime::zero() + sim::Duration::millis(10));
  EXPECT_EQ(b.times[1], sim::SimTime::zero() + sim::Duration::millis(20));
}

TEST(LinkTest, DirectionsAreIndependentPipes) {
  sim::World w;
  Link link(w, sim::Duration::zero(), 1'000'000);
  CollectSink a(w), b(w);
  link.port(0).set_sink(&a);
  link.port(1).set_sink(&b);
  link.port(0).send(make_frame(1250));
  link.port(1).send(make_frame(1250));
  w.loop().run();
  // Both arrive at 10ms: no shared serialization between directions.
  ASSERT_EQ(a.frames.size(), 1u);
  ASSERT_EQ(b.frames.size(), 1u);
  EXPECT_EQ(a.times[0], b.times[0]);
}

TEST(LinkTest, FailedLinkDropsEverything) {
  sim::World w;
  Link link(w, sim::Duration::millis(1), 0);
  CollectSink b(w);
  link.port(1).set_sink(&b);
  link.fail();
  link.port(0).send(make_frame(10));
  w.loop().run();
  EXPECT_TRUE(b.frames.empty());
  EXPECT_EQ(link.stats().frames_dropped, 1u);
  link.heal();
  link.port(0).send(make_frame(10));
  w.loop().run();
  EXPECT_EQ(b.frames.size(), 1u);
}

TEST(LinkTest, FailureKillsInFlightFrames) {
  sim::World w;
  Link link(w, sim::Duration::millis(5), 0);
  CollectSink b(w);
  link.port(1).set_sink(&b);
  link.port(0).send(make_frame(10));
  w.loop().schedule_after(sim::Duration::millis(1), [&] { link.fail(); });
  w.loop().run();
  EXPECT_TRUE(b.frames.empty());
}

TEST(LinkTest, DropNextDropsExactlyN) {
  sim::World w;
  Link link(w, sim::Duration::zero(), 0);
  CollectSink b(w);
  link.port(1).set_sink(&b);
  link.drop_next(2);
  for (int i = 0; i < 5; ++i) link.port(0).send(make_frame(10));
  w.loop().run();
  EXPECT_EQ(b.frames.size(), 3u);
  EXPECT_EQ(link.stats().frames_dropped, 2u);
}

TEST(LinkTest, RandomLossRoughlyMatchesProbability) {
  sim::World w(1234);
  Link link(w, sim::Duration::zero(), 0, 0.2);
  CollectSink b(w);
  link.port(1).set_sink(&b);
  const int n = 10000;
  for (int i = 0; i < n; ++i) link.port(0).send(make_frame(10));
  w.loop().run();
  const double loss =
      static_cast<double>(link.stats().frames_dropped) / n;
  EXPECT_NEAR(loss, 0.2, 0.02);
}

TEST(LinkTest, StatsCountBytes) {
  sim::World w;
  Link link(w, sim::Duration::zero(), 0);
  CollectSink b(w);
  link.port(1).set_sink(&b);
  link.port(0).send(make_frame(100));
  link.port(0).send(make_frame(50));
  w.loop().run();
  EXPECT_EQ(link.stats().frames_sent, 2u);
  EXPECT_EQ(link.stats().frames_delivered, 2u);
  EXPECT_EQ(link.stats().bytes_delivered, 150u);
}

}  // namespace
}  // namespace sttcp::net
