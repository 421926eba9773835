#include "net/switch.h"

#include <gtest/gtest.h>

#include <deque>

#include "net/headers.h"
#include "net/nic.h"
#include "sim/world.h"

namespace sttcp::net {
namespace {

// Three NICs on a switch; uses raw Ethernet frames (IPv4 ethertype with an
// empty body is fine for forwarding, which looks only at MACs).
class SwitchTest : public ::testing::Test {
 protected:
  SwitchTest() : sw_(world_, "sw") {
    for (int i = 0; i < 3; ++i) {
      macs_[i] = MacAddr::from_u64(0x020000000000ull + i + 1);
      nics_.push_back(std::make_unique<Nic>(world_, "nic" + std::to_string(i), macs_[i]));
      links_.push_back(std::make_unique<Link>(world_, sim::Duration::micros(10), 0));
      nics_[i]->attach(links_[i]->port(0));
      sw_.add_port(links_[i]->port(1));
      received_.emplace_back();
      auto* bucket = &received_.back();
      nics_[i]->set_host_sink([bucket](Frame f) { bucket->push_back(std::move(f)); });
    }
  }

  Frame frame(MacAddr dst, MacAddr src) {
    Bytes out;
    ByteWriter w(out);
    EthernetHeader{dst, src, 0x1234}.write(w);
    w.u32(0xdeadbeef);
    return Frame::copy_of(out);
  }

  void run() { world_.loop().run(); }

  sim::World world_;
  EthernetSwitch sw_;
  MacAddr macs_[3];
  std::vector<std::unique_ptr<Nic>> nics_;
  std::vector<std::unique_ptr<Link>> links_;
  std::deque<std::vector<Frame>> received_;
};

TEST_F(SwitchTest, FloodsUnknownDestinationExceptIngress) {
  nics_[0]->send(frame(macs_[1], macs_[0]));
  run();
  // Destination unknown yet: flooded to ports 1 and 2. NIC 2 filters it out
  // (wrong MAC), NIC 1 accepts.
  EXPECT_EQ(received_[0].size(), 0u);
  EXPECT_EQ(received_[1].size(), 1u);
  EXPECT_EQ(received_[2].size(), 0u);
  EXPECT_EQ(nics_[2]->stats().rx_filtered, 1u);
  EXPECT_EQ(sw_.stats().flooded, 1u);
}

TEST_F(SwitchTest, LearnsSourceAndForwardsUnicast) {
  nics_[0]->send(frame(macs_[1], macs_[0]));  // teaches port of mac 0
  nics_[1]->send(frame(macs_[0], macs_[1]));  // now unicast back
  run();
  EXPECT_EQ(received_[0].size(), 1u);
  EXPECT_EQ(sw_.stats().forwarded, 1u);
  // NIC 2 never sees the second frame at all.
  EXPECT_EQ(nics_[2]->stats().rx_frames + nics_[2]->stats().rx_filtered, 1u);
}

TEST_F(SwitchTest, BroadcastReachesAllOthers) {
  nics_[0]->send(frame(MacAddr::broadcast(), macs_[0]));
  run();
  EXPECT_EQ(received_[1].size(), 1u);
  EXPECT_EQ(received_[2].size(), 1u);
  EXPECT_EQ(received_[0].size(), 0u);
}

TEST_F(SwitchTest, StaticMulticastGroupFansOut) {
  // The ST-TCP pattern: client (nic0) sends to multiEA; both servers
  // (nic1, nic2) subscribe and receive.
  const MacAddr group = MacAddr::multicast_group(42);
  sw_.add_multicast_group(group, {1, 2});
  nics_[1]->subscribe_multicast(group);
  nics_[2]->subscribe_multicast(group);
  nics_[0]->send(frame(group, macs_[0]));
  run();
  EXPECT_EQ(received_[1].size(), 1u);
  EXPECT_EQ(received_[2].size(), 1u);
  EXPECT_EQ(received_[0].size(), 0u);
  EXPECT_EQ(sw_.stats().multicast, 1u);
}

TEST_F(SwitchTest, MulticastWithoutSubscriptionIsFiltered) {
  const MacAddr group = MacAddr::multicast_group(42);
  sw_.add_multicast_group(group, {1, 2});
  nics_[1]->subscribe_multicast(group);  // nic2 does NOT subscribe
  nics_[0]->send(frame(group, macs_[0]));
  run();
  EXPECT_EQ(received_[1].size(), 1u);
  EXPECT_EQ(received_[2].size(), 0u);
  EXPECT_EQ(nics_[2]->stats().rx_filtered, 1u);
}

TEST_F(SwitchTest, MulticastGroupExcludesIngressPort) {
  const MacAddr group = MacAddr::multicast_group(7);
  sw_.add_multicast_group(group, {0, 1});
  nics_[0]->subscribe_multicast(group);
  nics_[1]->subscribe_multicast(group);
  nics_[0]->send(frame(group, macs_[0]));
  run();
  EXPECT_EQ(received_[0].size(), 0u);  // no echo to sender
  EXPECT_EQ(received_[1].size(), 1u);
}

TEST_F(SwitchTest, FailedNicDropsRxAndTx) {
  nics_[0]->send(frame(macs_[1], macs_[0]));
  run();
  nics_[1]->fail();
  nics_[0]->send(frame(macs_[1], macs_[0]));
  run();
  EXPECT_EQ(received_[1].size(), 1u);  // only the pre-failure frame
  EXPECT_GE(nics_[1]->stats().dropped_down, 1u);
  EXPECT_FALSE(nics_[1]->send(frame(macs_[0], macs_[1])));
  nics_[1]->heal();
  EXPECT_TRUE(nics_[1]->send(frame(macs_[0], macs_[1])));
}

TEST_F(SwitchTest, PromiscuousNicSeesForeignUnicast) {
  nics_[2]->set_promiscuous(true);
  // Teach the switch where mac1 lives so the frame is NOT flooded to nic2 —
  // promiscuity does not defeat switching, only NIC-level filtering.
  nics_[1]->send(frame(macs_[0], macs_[1]));
  run();
  nics_[0]->send(frame(macs_[1], macs_[0]));
  run();
  EXPECT_EQ(received_[2].size(), 1u);  // saw only the flooded first frame
}

TEST_F(SwitchTest, FlushFdbForcesFloodingAgain) {
  nics_[0]->send(frame(macs_[1], macs_[0]));
  nics_[1]->send(frame(macs_[0], macs_[1]));
  run();
  sw_.flush_fdb();
  nics_[1]->send(frame(macs_[0], macs_[1]));
  run();
  EXPECT_EQ(sw_.stats().flooded, 2u);  // first frame + post-flush frame
}

}  // namespace
}  // namespace sttcp::net
