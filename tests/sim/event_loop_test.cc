#include "sim/event_loop.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

namespace sttcp::sim {
namespace {

TEST(EventLoopTest, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(SimTime::from_ns(300), [&] { order.push_back(3); });
  loop.schedule_at(SimTime::from_ns(100), [&] { order.push_back(1); });
  loop.schedule_at(SimTime::from_ns(200), [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), SimTime::from_ns(300));
}

TEST(EventLoopTest, TiesBreakFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule_at(SimTime::from_ns(50), [&order, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventLoopTest, ScheduleAfterUsesCurrentTime) {
  EventLoop loop;
  SimTime fired;
  loop.schedule_after(Duration::millis(10), [&] {
    loop.schedule_after(Duration::millis(5), [&] { fired = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(fired, SimTime::zero() + Duration::millis(15));
}

TEST(EventLoopTest, PastTimesClampToNow) {
  EventLoop loop;
  bool ran = false;
  loop.schedule_after(Duration::millis(10), [&] {
    loop.schedule_at(SimTime::zero(), [&] {
      ran = true;
      EXPECT_EQ(loop.now(), SimTime::zero() + Duration::millis(10));
    });
  });
  loop.run();
  EXPECT_TRUE(ran);
}

TEST(EventLoopTest, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  TimerId id = loop.schedule_after(Duration::millis(1), [&] { ran = true; });
  EXPECT_TRUE(loop.cancel(id));
  EXPECT_FALSE(loop.cancel(id));  // second cancel is a no-op
  loop.run();
  EXPECT_FALSE(ran);
}

TEST(EventLoopTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  EventLoop loop;
  int count = 0;
  loop.schedule_at(SimTime::from_ns(100), [&] { ++count; });
  loop.schedule_at(SimTime::from_ns(200), [&] { ++count; });
  loop.schedule_at(SimTime::from_ns(300), [&] { ++count; });
  loop.run_until(SimTime::from_ns(200));
  EXPECT_EQ(count, 2);
  EXPECT_EQ(loop.now(), SimTime::from_ns(200));
  loop.run_until(SimTime::from_ns(250));
  EXPECT_EQ(count, 2);
  EXPECT_EQ(loop.now(), SimTime::from_ns(250));  // idle time still advances
}

TEST(EventLoopTest, RunForIsRelative) {
  EventLoop loop;
  int count = 0;
  loop.schedule_after(Duration::millis(5), [&] { ++count; });
  loop.schedule_after(Duration::millis(15), [&] { ++count; });
  loop.run_for(Duration::millis(10));
  EXPECT_EQ(count, 1);
  loop.run_for(Duration::millis(10));
  EXPECT_EQ(count, 2);
}

TEST(EventLoopTest, StopHaltsRun) {
  EventLoop loop;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    loop.schedule_at(SimTime::from_ns(i), [&] {
      if (++count == 3) loop.stop();
    });
  }
  loop.run();
  EXPECT_EQ(count, 3);
  loop.run();  // resumes where it left off
  EXPECT_EQ(count, 10);
}

TEST(EventLoopTest, PendingCountsUncancelled) {
  EventLoop loop;
  TimerId a = loop.schedule_after(Duration::millis(1), [] {});
  loop.schedule_after(Duration::millis(2), [] {});
  EXPECT_EQ(loop.pending(), 2u);
  loop.cancel(a);
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoopTest, EventsExecutedCounter) {
  EventLoop loop;
  for (int i = 0; i < 5; ++i) loop.schedule_after(Duration::millis(i), [] {});
  loop.run();
  EXPECT_EQ(loop.events_executed(), 5u);
}

TEST(OneShotTimerTest, FiresOnceAndReportsDeadline) {
  EventLoop loop;
  OneShotTimer t(loop);
  int fired = 0;
  t.arm(Duration::millis(10), [&] { ++fired; });
  EXPECT_TRUE(t.armed());
  EXPECT_EQ(t.deadline(), SimTime::zero() + Duration::millis(10));
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.armed());
  EXPECT_TRUE(t.deadline().is_never());
}

TEST(OneShotTimerTest, RearmCancelsPrevious) {
  EventLoop loop;
  OneShotTimer t(loop);
  int a = 0;
  int b = 0;
  t.arm(Duration::millis(10), [&] { ++a; });
  t.arm(Duration::millis(20), [&] { ++b; });
  loop.run();
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
}

TEST(OneShotTimerTest, CallbackCanRearm) {
  EventLoop loop;
  OneShotTimer t(loop);
  int fired = 0;
  std::function<void()> cb = [&] {
    if (++fired < 3) t.arm(Duration::millis(1), cb);
  };
  t.arm(Duration::millis(1), cb);
  loop.run();
  EXPECT_EQ(fired, 3);
}

TEST(OneShotTimerTest, DestructionCancels) {
  EventLoop loop;
  bool ran = false;
  {
    OneShotTimer t(loop);
    t.arm(Duration::millis(1), [&] { ran = true; });
  }
  loop.run();
  EXPECT_FALSE(ran);
}

TEST(PeriodicTimerTest, FiresAtEachPeriod) {
  EventLoop loop;
  PeriodicTimer t(loop);
  std::vector<SimTime> fires;
  t.start(Duration::millis(100), [&] { fires.push_back(loop.now()); });
  loop.run_for(Duration::millis(350));
  ASSERT_EQ(fires.size(), 3u);
  EXPECT_EQ(fires[0], SimTime::zero() + Duration::millis(100));
  EXPECT_EQ(fires[2], SimTime::zero() + Duration::millis(300));
}

TEST(PeriodicTimerTest, StopFromWithinCallback) {
  EventLoop loop;
  PeriodicTimer t(loop);
  int fired = 0;
  t.start(Duration::millis(10), [&] {
    if (++fired == 2) t.stop();
  });
  loop.run_for(Duration::seconds(1));
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(t.running());
}

// A callback that stops its own timer must keep running on live captures:
// stop() used to destroy the running callable (and its captures) mid-call.
bool g_capture_destroyed = false;

struct DestroyFlag {
  bool armed = true;
  DestroyFlag() = default;
  DestroyFlag(const DestroyFlag&) = default;
  DestroyFlag(DestroyFlag&& o) noexcept : armed(o.armed) { o.armed = false; }
  ~DestroyFlag() {
    if (armed) g_capture_destroyed = true;
  }
};

TEST(PeriodicTimerTest, StopFromWithinCallbackKeepsCapturesAlive) {
  EventLoop loop;
  PeriodicTimer t(loop);
  g_capture_destroyed = false;
  std::string seen;
  bool alive_after_stop = false;
  t.start(Duration::millis(10),
          [&t, &seen, &alive_after_stop, tag = std::string(64, 'x'), flag = DestroyFlag{}] {
            t.stop();
            alive_after_stop = !g_capture_destroyed;
            seen = tag;  // heap-use-after-free if stop() destroyed the capture
          });
  loop.run_for(Duration::seconds(1));
  EXPECT_TRUE(alive_after_stop);
  EXPECT_EQ(seen, std::string(64, 'x'));
  EXPECT_TRUE(g_capture_destroyed);  // released once the shot returned
  EXPECT_FALSE(t.running());
}

TEST(PeriodicTimerTest, RestartFromWithinCallbackInstallsTheNewCallback) {
  EventLoop loop;
  PeriodicTimer t(loop);
  int first = 0;
  int second = 0;
  t.start(Duration::millis(10), [&] {
    ++first;
    t.start(Duration::millis(20), [&] { ++second; });
  });
  loop.run_for(Duration::millis(55));  // first at 10, second at 30 and 50
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 2);
  EXPECT_TRUE(t.running());
}

TEST(InlineCallbackTest, RunsMoveOnlyAndLargeCapturesAndDestroysThemOnce) {
  int runs = 0;
  auto counter = std::make_shared<int>(0);  // use_count tracks live copies
  {
    auto owned = std::make_unique<int>(7);
    InlineCallback small([&runs, p = std::move(owned)] { runs += *p; });
    std::array<std::uint64_t, 16> big{};
    big[15] = 1;
    InlineCallback large([&runs, big, counter] { runs += static_cast<int>(big[15]); });
    static_assert(!InlineCallback::fits_inline<std::array<std::uint64_t, 16>>());
    EXPECT_EQ(counter.use_count(), 2);
    InlineCallback moved = std::move(large);
    EXPECT_FALSE(large);  // NOLINT(bugprone-use-after-move): moved-from is empty
    EXPECT_EQ(counter.use_count(), 2);
    small();
    moved();
    small = std::move(moved);  // destroys the old small capture
    small();
  }
  EXPECT_EQ(runs, 9);
  EXPECT_EQ(counter.use_count(), 1);
}

}  // namespace
}  // namespace sttcp::sim
