#include "net/impairment.h"

#include <gtest/gtest.h>

#include <vector>

#include "net/checksum.h"
#include "net/headers.h"
#include "net/link.h"
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

Bytes tagged_frame(std::size_t n, std::uint8_t tag) {
  Bytes b(n, 0xab);
  b[EthernetHeader::kSize] = tag;  // tag survives: flips land past the MAC area
  return b;
}

int bit_differences(const Frame& a, BytesView b) {
  if (a.size() != b.size()) return -1;
  int bits = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    bits += __builtin_popcount(static_cast<unsigned>(a[i] ^ b[i]));
  }
  return bits;
}

TEST(ImpairmentTest, IdleEngineIsPassThrough) {
  Impairment imp{sim::Rng(7)};
  EXPECT_FALSE(imp.active());
  const Bytes original = tagged_frame(100, 1);
  Impairment::Plan p = imp.plan(0, Frame::copy_of(original));
  EXPECT_FALSE(p.drop);
  EXPECT_FALSE(p.reordered);
  EXPECT_EQ(p.copies, 1);
  EXPECT_TRUE(p.extra_delay.is_zero());
  EXPECT_EQ(bit_differences(p.frame, original), 0);
}

TEST(ImpairmentTest, CorruptionFlipsExactlyOneBitViaCopyOnWrite) {
  Impairment imp{sim::Rng(11)};
  imp.config().corrupt_probability = 1.0;
  std::size_t tapped_offset = 0;
  int taps = 0;
  imp.set_corrupt_tap([&](const Frame&, std::size_t off) {
    tapped_offset = off;
    ++taps;
  });
  for (int i = 0; i < 100; ++i) {
    const Bytes original = tagged_frame(120, static_cast<std::uint8_t>(i));
    const Frame before = Frame::copy_of(original);  // second holder of the shared buffer
    Impairment::Plan p = imp.plan(0, before);
    EXPECT_EQ(bit_differences(p.frame, original), 1);
    // Copy-on-write: the pre-existing holder still sees the original bytes.
    EXPECT_EQ(bit_differences(before, original), 0);
    // Flips never land in the Ethernet MAC/ethertype area: a real NIC drops
    // an FCS-failing frame there, it does not mis-deliver it.
    ASSERT_EQ(taps, i + 1);
    EXPECT_GE(tapped_offset, EthernetHeader::kSize);
    EXPECT_LT(tapped_offset, original.size());
  }
  EXPECT_EQ(imp.stats().corrupted, 100u);
}

TEST(ImpairmentTest, SingleBitFlipAlwaysBreaksInternetChecksum) {
  Impairment imp{sim::Rng(13)};
  imp.config().corrupt_probability = 1.0;
  sim::Rng payload_rng(99);
  for (int i = 0; i < 300; ++i) {
    Bytes original(EthernetHeader::kSize + 2 + payload_rng.below(200), 0);
    for (auto& byte : original) {
      byte = static_cast<std::uint8_t>(payload_rng.next_u64());
    }
    const std::uint16_t before = internet_checksum(
        BytesView(original).subspan(EthernetHeader::kSize));
    Impairment::Plan p = imp.plan(0, Frame::copy_of(original));
    const std::uint16_t after =
        internet_checksum(p.frame.view().subspan(EthernetHeader::kSize));
    // A one-bit flip shifts the ones'-complement sum by ±2^k, which never
    // cancels mod 0xffff — this is what makes 1-bit corruption provably
    // detectable by the IP/UDP/TCP checksums.
    EXPECT_NE(before, after) << "trial " << i;
  }
}

TEST(ImpairmentTest, GilbertElliottLossComesInBursts) {
  Impairment imp{sim::Rng(17)};
  imp.config().burst_p_enter = 0.05;
  imp.config().burst_p_exit = 0.3;
  imp.config().burst_loss = 1.0;
  const int n = 20000;
  int dropped = 0, runs = 0;
  bool in_run = false;
  for (int i = 0; i < n; ++i) {
    Impairment::Plan p = imp.plan(0, Frame::copy_of(tagged_frame(60, 0)));
    if (p.drop) {
      ++dropped;
      if (!in_run) ++runs;
      in_run = true;
    } else {
      in_run = false;
    }
  }
  EXPECT_EQ(imp.stats().burst_dropped, static_cast<std::uint64_t>(dropped));
  // Stationary loss ~ p_enter/(p_enter+p_exit) = 1/7; mean burst ~ 1/p_exit.
  const double loss = static_cast<double>(dropped) / n;
  EXPECT_GT(loss, 0.08);
  EXPECT_LT(loss, 0.22);
  ASSERT_GT(runs, 0);
  const double mean_burst = static_cast<double>(dropped) / runs;
  EXPECT_GT(mean_burst, 2.0);
  EXPECT_LT(mean_burst, 5.0);
}

TEST(ImpairmentTest, DuplicateOccupiesTheWireTwice) {
  sim::World w(1);
  // 1 Mbps: a 1250-byte frame takes exactly 10 ms to serialize.
  Link link(w, sim::Duration::zero(), 1'000'000);
  link.impairment().config().duplicate_probability = 1.0;
  CollectSink b(w);
  link.port(1).set_sink(&b);
  link.port(0).send(Frame::copy_of(tagged_frame(1250, 7)));
  w.loop().run();
  ASSERT_EQ(b.frames.size(), 2u);
  EXPECT_EQ(bit_differences(b.frames[0], b.frames[1].view()), 0);
  EXPECT_EQ(b.times[0], sim::SimTime::zero() + sim::Duration::millis(10));
  EXPECT_EQ(b.times[1], sim::SimTime::zero() + sim::Duration::millis(20));
  EXPECT_EQ(link.stats().frames_sent, 2u);
  EXPECT_EQ(link.stats().frames_delivered, 2u);
}

TEST(ImpairmentTest, ReorderedFramesAreOvertaken) {
  sim::World w(3);
  Link link(w, sim::Duration::millis(1), 0);
  link.impairment().config().reorder_probability = 0.2;
  link.impairment().config().reorder_delay = sim::Duration::millis(2);
  CollectSink b(w);
  link.port(1).set_sink(&b);
  const int n = 100;
  for (int i = 0; i < n; ++i) {
    w.loop().schedule_after(sim::Duration::micros(100 * i), [&link, i] {
      link.port(0).send(Frame::copy_of(tagged_frame(60, static_cast<std::uint8_t>(i))));
    });
  }
  w.loop().run();
  ASSERT_EQ(b.frames.size(), static_cast<std::size_t>(n));
  EXPECT_GT(link.impairment().stats().reordered, 0u);
  int out_of_order = 0;
  for (std::size_t i = 1; i < b.frames.size(); ++i) {
    if (b.frames[i][EthernetHeader::kSize] <
        b.frames[i - 1][EthernetHeader::kSize]) {
      ++out_of_order;
    }
  }
  EXPECT_GT(out_of_order, 0) << "reordered frames never actually overtook";
}

TEST(ImpairmentTest, JitterNeverReordersByItself) {
  sim::World w(5);
  Link link(w, sim::Duration::millis(1), 0);
  link.impairment().config().jitter_max = sim::Duration::micros(500);
  CollectSink b(w);
  link.port(1).set_sink(&b);
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    w.loop().schedule_after(sim::Duration::micros(i), [&link, i] {
      link.port(0).send(Frame::copy_of(tagged_frame(60, static_cast<std::uint8_t>(i))));
    });
  }
  w.loop().run();
  ASSERT_EQ(b.frames.size(), static_cast<std::size_t>(n));
  for (std::size_t i = 1; i < b.frames.size(); ++i) {
    EXPECT_EQ(b.frames[i][EthernetHeader::kSize],
              static_cast<std::uint8_t>(i & 0xff));
    EXPECT_GE(b.times[i], b.times[i - 1]);
  }
}

TEST(ImpairmentTest, SameSeedSameImpairmentDecisions) {
  auto run = [](std::uint64_t seed) {
    sim::World w(seed);
    Link link(w, sim::Duration::micros(50), 100'000'000);
    Impairment& imp = link.impairment();
    imp.config().corrupt_probability = 0.05;
    imp.config().duplicate_probability = 0.05;
    imp.config().reorder_probability = 0.05;
    imp.config().reorder_delay = sim::Duration::millis(1);
    imp.config().burst_p_enter = 0.02;
    imp.config().burst_p_exit = 0.3;
    imp.config().jitter_max = sim::Duration::micros(200);
    CollectSink b(w);
    link.port(1).set_sink(&b);
    for (int i = 0; i < 500; ++i) {
      w.loop().schedule_after(sim::Duration::micros(10 * i), [&link, i] {
        link.port(0).send(Frame::copy_of(tagged_frame(200, static_cast<std::uint8_t>(i))));
      });
    }
    w.loop().run();
    std::vector<std::pair<std::int64_t, Bytes>> out;
    out.reserve(b.frames.size());
    for (std::size_t i = 0; i < b.frames.size(); ++i) {
      out.emplace_back(b.times[i].ns(), b.frames[i].clone());
    }
    return out;
  };
  const auto a = run(42);
  const auto c = run(42);
  const auto d = run(43);
  EXPECT_EQ(a, c) << "same seed must give a bit-identical delivery sequence";
  EXPECT_NE(a, d) << "different seed should perturb the impairments";
}

}  // namespace
}  // namespace sttcp::net
