#include "sim/clock_domain.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_loop.h"
#include "sim/time.h"

namespace sttcp::sim {
namespace {

using namespace sttcp::sim::literals;

TEST(LagProfile, NoneReleasesEverything) {
  const LagProfile p = LagProfile::none();
  EXPECT_FALSE(p.active());
  EXPECT_EQ(p.release(SimTime::zero(), SimTime::from_ns(123)), SimTime::from_ns(123));
}

TEST(LagProfile, StallWindowPushesToEnd) {
  const LagProfile p = LagProfile::stall(2_s);
  const SimTime anchor = SimTime::zero() + 1_s;
  // Before the anchor: untouched.
  EXPECT_EQ(p.release(anchor, SimTime::zero()), SimTime::zero());
  // Inside [anchor, anchor+2s): pushed to the end.
  EXPECT_EQ(p.release(anchor, anchor), anchor + 2_s);
  EXPECT_EQ(p.release(anchor, anchor + 1999_ms), anchor + 2_s);
  // At and after the end: untouched.
  EXPECT_EQ(p.release(anchor, anchor + 2_s), anchor + 2_s);
  EXPECT_EQ(p.release(anchor, anchor + 3_s), anchor + 3_s);
}

TEST(LagProfile, PulseTrainReleasesIntoRunWindows) {
  // run 100ms, stall 400ms, 2 cycles anchored at t=0.
  const LagProfile p = LagProfile::pulses(100_ms, 400_ms, 2);
  const SimTime a = SimTime::zero();
  EXPECT_EQ(p.release(a, a + 50_ms), a + 50_ms);        // cycle 0 run window
  EXPECT_EQ(p.release(a, a + 100_ms), a + 500_ms);      // cycle 0 stall start
  EXPECT_EQ(p.release(a, a + 499_ms), a + 500_ms);      // cycle 0 stall end
  EXPECT_EQ(p.release(a, a + 550_ms), a + 550_ms);      // cycle 1 run window
  EXPECT_EQ(p.release(a, a + 700_ms), a + 1000_ms);     // cycle 1 stall
  EXPECT_EQ(p.release(a, a + 1200_ms), a + 1200_ms);    // past the train
}

TEST(LagProfile, WedgedForeverReleasesNever) {
  const LagProfile p = LagProfile::pulses(Duration::zero(), 1_s, 0);
  EXPECT_TRUE(p.release(SimTime::zero(), SimTime::zero() + 5_s).is_never());
}

TEST(ClockDomain, PassthroughIsVerbatim) {
  EventLoop loop;
  ClockDomain dom(loop);
  std::vector<int> order;
  loop.schedule_at(SimTime::zero() + 10_ms, [&] { order.push_back(1); });
  const TimerId id = dom.schedule_at(SimTime::zero() + 5_ms, [&] { order.push_back(0); });
  EXPECT_EQ(id & (TimerId{1} << 63), 0u) << "healthy domain must return raw loop ids";
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(dom.deferred(), 0u);
}

TEST(ClockDomain, StallDefersCallbacksButNotTheRestOfTheWorld) {
  EventLoop loop;
  ClockDomain dom(loop);
  std::vector<std::pair<int, std::int64_t>> fired;  // (tag, ms)
  loop.run_for(100_ms);
  dom.set_lag(LagProfile::stall(1_s));  // anchored at 100ms
  dom.schedule_after(50_ms, [&] { fired.push_back({0, loop.now().ns() / 1000000}); });
  loop.schedule_after(50_ms, [&] { fired.push_back({1, loop.now().ns() / 1000000}); });
  loop.run_for(2_s);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], (std::pair<int, std::int64_t>{1, 150}));   // world on time
  EXPECT_EQ(fired[1], (std::pair<int, std::int64_t>{0, 1100}));  // domain deferred
  EXPECT_EQ(dom.deferred(), 1u);
  EXPECT_FALSE(dom.lagged());  // profile exhausted
}

TEST(ClockDomain, CancelWorksWhileDeferred) {
  EventLoop loop;
  ClockDomain dom(loop);
  bool ran = false;
  dom.set_lag(LagProfile::stall(1_s));
  const TimerId id = dom.schedule_after(10_ms, [&] { ran = true; });
  EXPECT_NE(id & (TimerId{1} << 63), 0u) << "deferred callbacks get domain ids";
  EXPECT_TRUE(dom.cancel(id));
  EXPECT_FALSE(dom.cancel(id)) << "second cancel must be a no-op";
  loop.run_for(3_s);
  EXPECT_FALSE(ran);
}

TEST(ClockDomain, SurfaceRechecksExtendedStall) {
  EventLoop loop;
  ClockDomain dom(loop);
  bool ran = false;
  dom.set_lag(LagProfile::stall(500_ms));
  dom.schedule_after(10_ms, [&] { ran = true; });
  // Extend the stall before the first release point.
  loop.run_for(200_ms);
  dom.set_lag(LagProfile::stall(2_s));  // re-anchored at 200ms
  loop.run_for(1_s);                    // old release (500ms) passes: re-deferred
  EXPECT_FALSE(ran);
  loop.run_for(2_s);
  EXPECT_TRUE(ran);
}

TEST(ClockDomain, ClearDropsPendingDeferredWork) {
  EventLoop loop;
  ClockDomain dom(loop);
  bool ran = false;
  dom.set_lag(LagProfile::stall(1_s));
  dom.schedule_after(10_ms, [&] { ran = true; });
  dom.clear();  // models a power transition: queued stalled work is gone
  loop.run_for(5_s);
  EXPECT_FALSE(ran);
  EXPECT_FALSE(dom.lagged());
}

TEST(ClockDomain, ClearDisarmsDeferredOneShot) {
  EventLoop loop;
  ClockDomain dom(loop);
  OneShotTimer timer(dom);
  bool fired = false;
  dom.set_lag(LagProfile::stall(1_s));
  timer.arm(10_ms, [&] { fired = true; });
  ASSERT_TRUE(timer.armed());
  dom.clear();  // the deferred shot dies with the power transition...
  loop.run_for(5_s);
  EXPECT_FALSE(fired);
  // ...and so does the timer's claim to be armed.
  EXPECT_FALSE(timer.armed());
  EXPECT_EQ(timer.deadline(), SimTime::never());
}

TEST(ClockDomain, OneShotTimerThroughDomainSlidesAndRearms) {
  EventLoop loop;
  ClockDomain dom(loop);
  OneShotTimer timer(dom);
  int fires = 0;
  dom.set_lag(LagProfile::stall(1_s));
  timer.arm(100_ms, [&] { ++fires; });
  EXPECT_TRUE(timer.armed());
  loop.run_for(500_ms);
  EXPECT_EQ(fires, 0);
  // Re-arm mid-stall: must cancel the deferred shot cleanly.
  timer.arm(100_ms, [&] { fires += 10; });
  loop.run_for(5_s);
  EXPECT_EQ(fires, 10);
}

TEST(ClockDomain, PeriodicTimerThroughHealthyDomainKeepsPeriod) {
  EventLoop loop;
  ClockDomain dom(loop);
  PeriodicTimer timer(dom);
  int fires = 0;
  timer.start(100_ms, [&] { ++fires; });
  loop.run_for(1_s);
  EXPECT_EQ(fires, 10);
  timer.stop();
  loop.run_for(1_s);
  EXPECT_EQ(fires, 10);
}

TEST(ClockDomain, DeterministicAcrossIdenticalRuns) {
  auto run = [] {
    EventLoop loop;
    ClockDomain dom(loop);
    std::vector<std::int64_t> at;
    loop.schedule_after(50_ms, [&] { dom.set_lag(LagProfile::pulses(100_ms, 300_ms, 3)); });
    PeriodicTimer timer(dom);
    timer.start(70_ms, [&] { at.push_back(loop.now().ns()); });
    loop.run_for(3_s);
    return at;
  };
  EXPECT_EQ(run(), run());
}

TEST(EventLoopExplorerHooks, ReadySetAndForcedOrder) {
  EventLoop loop;
  std::vector<int> order;
  const TimerId a = loop.schedule_at(SimTime::zero() + 10_ms, [&] { order.push_back(0); });
  const TimerId b = loop.schedule_at(SimTime::zero() + 20_ms, [&] { order.push_back(1); });
  auto ready = loop.ready_events(SimTime::zero() + 30_ms);
  ASSERT_EQ(ready.size(), 2u);
  EXPECT_EQ(ready[0].id, a);
  EXPECT_EQ(ready[1].id, b);
  EXPECT_EQ(loop.next_event_at(), SimTime::zero() + 10_ms);

  // Force b before a: the clock jumps to b's stamp; a then runs late.
  EXPECT_TRUE(loop.run_event(b));
  EXPECT_EQ(loop.now(), SimTime::zero() + 20_ms);
  EXPECT_FALSE(loop.run_event(b)) << "consumed ids are stale";
  EXPECT_TRUE(loop.run_event(a));
  EXPECT_EQ(loop.now(), SimTime::zero() + 20_ms) << "late events do not rewind time";
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
  EXPECT_EQ(loop.pending(), 0u);
  // The wheel still holds the consumed entries; draining must not re-run them.
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
}

TEST(EventLoopExplorerHooks, ReadySetHidesCancelledAndHorizonFiltered) {
  EventLoop loop;
  const TimerId a = loop.schedule_at(SimTime::zero() + 10_ms, [] {});
  loop.schedule_at(SimTime::zero() + 500_ms, [] {});
  loop.cancel(a);
  auto ready = loop.ready_events(SimTime::zero() + 100_ms);
  EXPECT_TRUE(ready.empty());
  ready = loop.ready_events(SimTime::never());
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].at, SimTime::zero() + 500_ms);
}

}  // namespace
}  // namespace sttcp::sim
