// Router unit tests: longest-prefix match, TTL handling, local ICMP echo
// termination, crash/restore, and drop accounting.
#include "net/router.h"

#include <gtest/gtest.h>

#include <vector>

#include "net/headers.h"
#include "sim/world.h"

namespace sttcp {
namespace {

using net::Ipv4Addr;
using net::MacAddr;
using net::Route;
using net::Router;
using net::RoutingTable;

TEST(RoutingTable, LongestPrefixWinsAmongOverlaps) {
  RoutingTable t;
  t.add({Ipv4Addr{10, 0, 0, 0}, 8, 1, Ipv4Addr()});
  t.add({Ipv4Addr{10, 1, 0, 0}, 16, 2, Ipv4Addr()});
  t.add({Ipv4Addr{10, 1, 2, 0}, 24, 3, Ipv4Addr()});

  ASSERT_NE(t.lookup(Ipv4Addr{10, 9, 9, 9}), nullptr);
  EXPECT_EQ(t.lookup(Ipv4Addr{10, 9, 9, 9})->port, 1);
  EXPECT_EQ(t.lookup(Ipv4Addr{10, 1, 9, 9})->port, 2);
  EXPECT_EQ(t.lookup(Ipv4Addr{10, 1, 2, 9})->port, 3);
}

TEST(RoutingTable, DefaultRouteCatchesEverythingElse) {
  RoutingTable t;
  t.add({Ipv4Addr{10, 1, 0, 0}, 16, 2, Ipv4Addr()});
  t.add({Ipv4Addr{0, 0, 0, 0}, 0, 7, Ipv4Addr{192, 168, 0, 1}});

  const Route* r = t.lookup(Ipv4Addr{8, 8, 8, 8});
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->port, 7);
  EXPECT_EQ(r->next_hop, (Ipv4Addr{192, 168, 0, 1}));
  EXPECT_EQ(t.lookup(Ipv4Addr{10, 1, 5, 5})->port, 2);
}

TEST(RoutingTable, NoRouteReturnsNull) {
  RoutingTable t;
  t.add({Ipv4Addr{10, 1, 0, 0}, 16, 2, Ipv4Addr()});
  EXPECT_EQ(t.lookup(Ipv4Addr{172, 16, 0, 1}), nullptr);
}

TEST(RoutingTable, EqualLengthPrefixesFirstAddedWins) {
  RoutingTable t;
  t.add({Ipv4Addr{10, 1, 0, 0}, 16, 2, Ipv4Addr()});
  t.add({Ipv4Addr{10, 1, 0, 0}, 16, 5, Ipv4Addr()});
  EXPECT_EQ(t.lookup(Ipv4Addr{10, 1, 3, 3})->port, 2);
}

/// Captures frames a router emits out of a link.
struct CaptureSink final : net::FrameSink {
  std::vector<net::Bytes> frames;
  void deliver_frame(net::Frame frame) override {
    frames.emplace_back(frame.view().begin(), frame.view().end());
  }
};

/// Two-port router with a test harness holding the far side of both links.
struct RouterRig {
  RouterRig()
      : world(1),
        router(world, "core"),
        left(world, sim::Duration::micros(10), 0),
        right(world, sim::Duration::micros(10), 0) {
    router.add_port(left.port(0), MacAddr::from_u64(0xf0), Ipv4Addr{10, 0, 0, 254});
    router.add_port(right.port(0), MacAddr::from_u64(0xf1), Ipv4Addr{10, 1, 0, 254});
    router.add_connected(Ipv4Addr{10, 0, 0, 0}, 24, 0);
    router.add_connected(Ipv4Addr{10, 1, 0, 0}, 24, 1);
    router.arp_set(0, Ipv4Addr{10, 0, 0, 1}, MacAddr::from_u64(0x01));
    router.arp_set(1, Ipv4Addr{10, 1, 0, 1}, MacAddr::from_u64(0x02));
    left.port(1).set_sink(&left_side);
    right.port(1).set_sink(&right_side);
  }

  /// A raw IP frame addressed (L2) to the router's left port.
  net::Frame make_frame(Ipv4Addr src, Ipv4Addr dst, std::uint8_t ttl) {
    net::Bytes out;
    net::ByteWriter w(out);
    net::EthernetHeader{router.port_mac(0), MacAddr::from_u64(0x01),
                        net::kEtherTypeIpv4}
        .write(w);
    net::Ipv4Header ip;
    ip.src = src;
    ip.dst = dst;
    ip.ttl = ttl;
    ip.protocol = 250;  // payloadless experimental protocol
    ip.write(w, 0);
    return net::Frame::copy_of(out);
  }

  void run() { world.loop().run_for(sim::Duration::millis(1)); }

  sim::World world;
  Router router;
  net::Link left, right;
  CaptureSink left_side, right_side;
};

TEST(Router, ForwardsAcrossSubnetsAndDecrementsTtl) {
  RouterRig rig;
  rig.left.port(1).send(net::Frame(
      rig.make_frame(Ipv4Addr{10, 0, 0, 1}, Ipv4Addr{10, 1, 0, 1}, 64)));
  rig.run();

  ASSERT_EQ(rig.right_side.frames.size(), 1u);
  const net::ParsedFrame p = net::parse_frame(net::BytesView(
      rig.right_side.frames[0].data(), rig.right_side.frames[0].size()));
  ASSERT_TRUE(p.ip.has_value());
  EXPECT_EQ(p.ip->ttl, 63);  // decremented, checksum rewritten (parse verifies)
  EXPECT_EQ(p.eth.dst, MacAddr::from_u64(0x02));
  EXPECT_EQ(p.eth.src, rig.router.port_mac(1));
  EXPECT_EQ(rig.router.stats().forwarded, 1u);
}

TEST(Router, TtlExpiryDropsAndCounts) {
  RouterRig rig;
  rig.left.port(1).send(net::Frame(
      rig.make_frame(Ipv4Addr{10, 0, 0, 1}, Ipv4Addr{10, 1, 0, 1}, 1)));
  rig.run();

  EXPECT_TRUE(rig.right_side.frames.empty());
  EXPECT_EQ(rig.router.stats().ttl_expired, 1u);
  EXPECT_EQ(rig.router.stats().forwarded, 0u);
  EXPECT_EQ(rig.world.trace().count("ttl_expired"), 1u);
}

TEST(Router, NoRouteDropsAndCounts) {
  RouterRig rig;
  rig.left.port(1).send(net::Frame(
      rig.make_frame(Ipv4Addr{10, 0, 0, 1}, Ipv4Addr{172, 16, 0, 1}, 64)));
  rig.run();

  EXPECT_TRUE(rig.right_side.frames.empty());
  EXPECT_EQ(rig.router.stats().no_route, 1u);
}

TEST(Router, ArpMissDropsAndCounts) {
  RouterRig rig;
  rig.left.port(1).send(net::Frame(
      rig.make_frame(Ipv4Addr{10, 0, 0, 1}, Ipv4Addr{10, 1, 0, 99}, 64)));
  rig.run();

  EXPECT_TRUE(rig.right_side.frames.empty());
  EXPECT_EQ(rig.router.stats().arp_miss, 1u);
}

TEST(Router, AnswersIcmpEchoOnItsInterfaceIp) {
  RouterRig rig;
  const net::IcmpEcho echo{net::IcmpType::kEchoRequest, 7, 1};
  net::Frame frame =
      net::Frame::allocate(net::kIpFrameHeaderSize + net::IcmpEcho::kSize);
  echo.write(frame.writable().subspan(net::kIpFrameHeaderSize));
  net::write_ip_headers(frame.writable(), rig.router.port_mac(0), MacAddr::from_u64(0x01),
                        Ipv4Addr{10, 0, 0, 1}, Ipv4Addr{10, 0, 0, 254}, net::kIpProtoIcmp);
  rig.left.port(1).send(std::move(frame));
  rig.run();

  ASSERT_EQ(rig.left_side.frames.size(), 1u);
  const net::ParsedFrame p = net::parse_frame(net::BytesView(
      rig.left_side.frames[0].data(), rig.left_side.frames[0].size()));
  ASSERT_TRUE(p.ip.has_value());
  EXPECT_EQ(p.ip->src, (Ipv4Addr{10, 0, 0, 254}));
  EXPECT_EQ(p.ip->dst, (Ipv4Addr{10, 0, 0, 1}));
  const auto reply = net::IcmpEcho::parse(p.l4);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, net::IcmpType::kEchoReply);
  EXPECT_EQ(reply->id, 7);
  EXPECT_EQ(rig.router.stats().delivered_local, 1u);
}

TEST(Router, CrashDropsEverythingUntilRestore) {
  RouterRig rig;
  rig.router.crash();
  rig.left.port(1).send(net::Frame(
      rig.make_frame(Ipv4Addr{10, 0, 0, 1}, Ipv4Addr{10, 1, 0, 1}, 64)));
  rig.run();
  EXPECT_TRUE(rig.right_side.frames.empty());
  EXPECT_EQ(rig.router.stats().dropped_down, 1u);

  rig.router.restore();
  rig.left.port(1).send(net::Frame(
      rig.make_frame(Ipv4Addr{10, 0, 0, 1}, Ipv4Addr{10, 1, 0, 1}, 64)));
  rig.run();
  EXPECT_EQ(rig.right_side.frames.size(), 1u);
  EXPECT_EQ(rig.router.stats().forwarded, 1u);
}

}  // namespace
}  // namespace sttcp
