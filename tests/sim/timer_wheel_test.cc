// TimerWheel / EventLoop ordering tests.
//
// The wheel replaced the EventLoop's binary heap; the contract is that no
// observable ordering changed. The reference model here is exactly the old
// heap's semantics: execute in strict (timestamp, scheduling-seq) order.
#include "sim/timer_wheel.h"

#include <algorithm>
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/event_loop.h"
#include "sim/random.h"
#include "sim/time.h"

namespace sttcp::sim {
namespace {

TEST(TimerWheel, PopsInTimestampSeqOrder) {
  TimerWheel w;
  // Deliberately adversarial spread: same granule, adjacent granules, far
  // cascades, duplicate timestamps. Slot i carries seq i.
  const std::int64_t times[] = {0,    1,       1,      1023,    1024,
                                4095, 70000,   70000,  1 << 20, 1 << 21,
                                5,    1 << 28, 999999, 3,       1024};
  std::uint32_t slot = 0;
  for (std::int64_t t : times) {
    w.push(slot, SimTime::from_ns(t), slot);
    ++slot;
  }
  ASSERT_EQ(w.size(), std::size(times));
  SimTime prev_at = SimTime::zero();
  std::uint64_t prev_seq = 0;
  bool first = true;
  while (!w.empty()) {
    const std::uint32_t s = w.pop_min();
    EXPECT_FALSE(w.contains(s));
    if (!first) {
      ASSERT_TRUE(w.at(s) > prev_at || (w.at(s) == prev_at && w.seq(s) > prev_seq))
          << "out of (at, seq) order";
    }
    first = false;
    prev_at = w.at(s);
    prev_seq = w.seq(s);
  }
}

TEST(TimerWheel, RandomizedAgainstSortReference) {
  struct Ref {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  Rng rng(0x57ee1);
  TimerWheel w;
  std::vector<Ref> ref;
  std::vector<std::uint32_t> free_slots;
  std::uint32_t next_slot = 0;
  std::uint64_t seq = 0;
  // Mixed insert/pop phases so the cursor advances mid-stream, including
  // far-future entries beyond the wheel horizon; popped slots are reused.
  std::int64_t now_ns = 0;
  for (int round = 0; round < 50; ++round) {
    const int inserts = static_cast<int>(rng.below(64)) + 1;
    for (int i = 0; i < inserts; ++i) {
      std::int64_t delta;
      switch (rng.below(4)) {
        case 0: delta = static_cast<std::int64_t>(rng.below(1024)); break;
        case 1: delta = static_cast<std::int64_t>(rng.below(1 << 16)); break;
        case 2: delta = static_cast<std::int64_t>(rng.below(1ull << 32)); break;
        default:
          // Very far future: exercises the top cascade levels.
          delta = static_cast<std::int64_t>(rng.below(1ull << 50)) +
                  (std::int64_t{1} << 47);
          break;
      }
      std::uint32_t slot = next_slot;
      if (!free_slots.empty()) {
        slot = free_slots.back();
        free_slots.pop_back();
      } else {
        ++next_slot;
      }
      const Ref e{SimTime::from_ns(now_ns + delta), seq++, slot};
      w.push(e.slot, e.at, e.seq);
      ref.push_back(e);
    }
    const int pops = static_cast<int>(rng.below(static_cast<std::uint64_t>(ref.size())));
    std::sort(ref.begin(), ref.end(), [](const Ref& a, const Ref& b) {
      return a.at != b.at ? a.at < b.at : a.seq < b.seq;
    });
    for (int i = 0; i < pops; ++i) {
      const std::uint32_t got = w.pop_min();
      ASSERT_EQ(got, ref[static_cast<std::size_t>(i)].slot);
      ASSERT_EQ(w.at(got), ref[static_cast<std::size_t>(i)].at);
      ASSERT_EQ(w.seq(got), ref[static_cast<std::size_t>(i)].seq);
      now_ns = w.at(got).ns();
      free_slots.push_back(got);
    }
    ref.erase(ref.begin(), ref.begin() + pops);
  }
}

TEST(TimerWheel, RemoveUnlinksExactlyThoseSlots) {
  TimerWheel w;
  // Spread over every level; slot i carries seq i.
  for (std::uint32_t i = 0; i < 1000; ++i) {
    w.push(i, SimTime::from_ns(std::int64_t{1} << (i % 50)) + Duration::nanos(i), i);
  }
  for (std::uint32_t i = 0; i < 1000; i += 3) w.remove(i);  // slots 0,3,...,999
  EXPECT_EQ(w.size(), 1000u - 334u);
  for (std::uint32_t i = 0; i < 1000; ++i) EXPECT_EQ(w.contains(i), i % 3 != 0) << i;
  SimTime prev = SimTime::zero();
  while (!w.empty()) {
    const std::uint32_t s = w.pop_min();
    EXPECT_NE(s % 3, 0u);
    EXPECT_GE(w.at(s), prev);
    prev = w.at(s);
  }
}

TEST(TimerWheel, RemoveFromDueHeapKeepsOrder) {
  TimerWheel w;
  // All in the first granule: every entry sits in the due heap.
  for (std::uint32_t i = 0; i < 64; ++i) {
    w.push(i, SimTime::from_ns(static_cast<std::int64_t>((i * 37) % 64)), i);
  }
  ASSERT_EQ(w.peek_min(), 0u);
  for (std::uint32_t i = 0; i < 64; i += 2) w.remove(i);
  std::vector<std::uint32_t> order;
  while (!w.empty()) order.push_back(w.pop_min());
  ASSERT_EQ(order.size(), 32u);
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LT(w.at(order[i - 1]), w.at(order[i]));
  }
}

// --- EventLoop-level behavior on top of the wheel --------------------------

TEST(TimerWheelLoop, SameTickFifoOrder) {
  EventLoop loop;
  std::vector<int> order;
  // All at the same nanosecond: must run in scheduling order.
  for (int i = 0; i < 100; ++i) {
    loop.schedule_at(SimTime::from_ns(500), [&order, i] { order.push_back(i); });
  }
  loop.run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(TimerWheelLoop, ArmCancelRearmStorm) {
  EventLoop loop;
  Rng rng(7);
  // 10k timers constantly re-armed (the RTO-on-every-ACK pattern): every
  // cancel frees its slot at once, and the surviving shots fire in order.
  constexpr int kTimers = 10000;
  std::vector<TimerId> ids(kTimers, 0);
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < kTimers; ++i) {
      if (ids[static_cast<std::size_t>(i)] != 0) {
        loop.cancel(ids[static_cast<std::size_t>(i)]);
      }
      const auto d = Duration::micros(static_cast<std::int64_t>(rng.below(200000)) + 1);
      ids[static_cast<std::size_t>(i)] = loop.schedule_after(d, [] {});
    }
  }
  EXPECT_EQ(loop.pending(), static_cast<std::size_t>(kTimers));
  std::uint64_t ran = loop.run();
  EXPECT_EQ(ran, static_cast<std::uint64_t>(kTimers));
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(TimerWheelLoop, FarFutureCascades) {
  EventLoop loop;
  std::vector<int> order;
  // Hours and days ahead (multiple cascade levels + the overflow heap),
  // interleaved with near events.
  loop.schedule_at(SimTime::from_ns(Duration::seconds(86400 * 30).ns()),
                   [&] { order.push_back(4); });
  loop.schedule_at(SimTime::from_ns(Duration::seconds(7200).ns()),
                   [&] { order.push_back(3); });
  loop.schedule_at(SimTime::from_ns(Duration::millis(1).ns()),
                   [&] { order.push_back(1); });
  loop.schedule_at(SimTime::from_ns(Duration::seconds(1).ns()),
                   [&] { order.push_back(2); });
  loop.schedule_at(SimTime::from_ns(0), [&] { order.push_back(0); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(loop.now().ns(), Duration::seconds(86400 * 30).ns());
}

TEST(TimerWheelLoop, RunBeforeExcludesBoundary) {
  EventLoop loop;
  int before = 0, at = 0;
  loop.schedule_at(SimTime::from_ns(999), [&] { ++before; });
  loop.schedule_at(SimTime::from_ns(1000), [&] { ++at; });
  loop.schedule_at(SimTime::from_ns(1000), [&] { ++at; });
  EXPECT_EQ(loop.run_before(SimTime::from_ns(1000)), 1u);
  EXPECT_EQ(before, 1);
  EXPECT_EQ(at, 0);
  EXPECT_EQ(loop.now(), SimTime::from_ns(1000));
  // Boundary events are still pending and run first on the next call.
  EXPECT_EQ(loop.pending(), 2u);
  EXPECT_EQ(loop.run_until(SimTime::from_ns(1000)), 2u);
  EXPECT_EQ(at, 2);
}

TEST(TimerWheelLoop, CancelAcrossCascadeLevels) {
  EventLoop loop;
  int fired = 0;
  const TimerId far_id = loop.schedule_at(
      SimTime::from_ns(Duration::seconds(3600).ns()), [&] { ++fired; });
  const TimerId near_id =
      loop.schedule_at(SimTime::from_ns(100), [&] { ++fired; });
  loop.schedule_at(SimTime::from_ns(Duration::seconds(3600).ns() + 5),
                   [&] { ++fired; });
  EXPECT_TRUE(loop.cancel(far_id));
  EXPECT_TRUE(loop.cancel(near_id));
  EXPECT_FALSE(loop.cancel(far_id));  // already cancelled
  loop.run();
  EXPECT_EQ(fired, 1);
}

// A miniature reference loop with the old binary-heap semantics, used to
// cross-check a randomized schedule/cancel/run interleaving end to end.
struct HeapRef {
  struct E {
    SimTime at;
    std::uint64_t seq;
    int tag;
  };
  std::vector<E> v;
  std::uint64_t seq = 0;
  SimTime now;
  void schedule(SimTime t, int tag) {
    if (t < now) t = now;
    v.push_back({t, seq++, tag});
  }
  std::vector<int> run_all() {
    std::sort(v.begin(), v.end(), [](const E& a, const E& b) {
      return a.at != b.at ? a.at < b.at : a.seq < b.seq;
    });
    std::vector<int> tags;
    for (const E& e : v) tags.push_back(e.tag);
    v.clear();
    return tags;
  }
};

TEST(TimerWheelLoop, RandomizedOrderMatchesHeapSemantics) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    EventLoop loop;
    Rng rng(seed);
    HeapRef ref;
    std::vector<int> got;
    int tag = 0;
    for (int i = 0; i < 3000; ++i) {
      const auto t = SimTime::from_ns(static_cast<std::int64_t>(rng.below(1ull << 34)));
      loop.schedule_at(t, [&got, tag] { got.push_back(tag); });
      ref.schedule(t, tag);
      ++tag;
    }
    loop.run();
    EXPECT_EQ(got, ref.run_all()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace sttcp::sim
