// Discrete-event simulation loop.
//
// A single EventLoop owns the virtual clock for a whole simulated world.
// Components schedule callbacks at absolute or relative times; the loop
// executes them in strict timestamp order, breaking ties by scheduling order
// so that a given scenario is bit-for-bit reproducible.
//
// The steady-state event path does not allocate. A pending event is one
// slot in the loop's slot table: its callback lives inline in the slot (an
// InlineCallback, up to 48 bytes of captures), and the timing wheel queues
// the slot index through per-slot links (sim/timer_wheel.h). Freed slots are
// recycled, so once the table has grown to the peak number of pending events
// scheduling, firing and cancelling touch no allocator.
//
// The loop is strictly single-threaded; no synchronization is needed or
// provided.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"
#include "sim/timer_wheel.h"

namespace sttcp::sim {

/// Opaque handle to a scheduled event, usable to cancel it.
/// Value 0 is reserved and never issued. Internally (slot << 32) | generation
/// — the slot indexes a generation table, so cancellation is an array compare
/// instead of hash-map traffic, and a stale handle can never cancel a
/// later event that reused its slot.
using TimerId = std::uint64_t;

class EventLoop {
 public:
  using Callback = InlineCallback;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current virtual time. Advances only while events execute.
  SimTime now() const { return now_; }

  /// Schedule `cb` to run at absolute time `t`. Times in the past run at the
  /// current time (immediately after already-queued events for `now()`).
  /// A non-null `owner` is the handle the caller keeps for this event (a
  /// timer's id): the loop sets it to 0 just before `cb` runs, so the
  /// callback sees its timer disarmed and may re-arm it. The owner must
  /// outlive the event or cancel it first.
  TimerId schedule_at(SimTime t, Callback cb, TimerId* owner = nullptr);

  /// Schedule `cb` to run `d` after the current time.
  TimerId schedule_after(Duration d, Callback cb) {
    return schedule_at(now_ + (d.is_negative() ? Duration::zero() : d), std::move(cb));
  }

  /// Cancel a pending event. Returns true if the event had not yet run.
  bool cancel(TimerId id);

  /// Execute the next pending event, if any. Returns false when idle.
  bool step();

  /// Run until the queue drains or `stop()` is called. Returns events run.
  std::uint64_t run();

  /// Run all events with timestamp <= t, then set the clock to exactly t.
  std::uint64_t run_until(SimTime t);

  /// Run all events with timestamp strictly < t, then set the clock to
  /// exactly t. Events at t itself stay pending (they run first on the next
  /// call). This is the conservative parallel executor's window primitive:
  /// a window [a, b) must not execute boundary events that could still
  /// receive same-timestamp cross-shard injections at b.
  std::uint64_t run_before(SimTime t);

  /// Run all events within the next `d` of virtual time.
  std::uint64_t run_for(Duration d) { return run_until(now_ + d); }

  /// Make `run()`/`run_until()` return after the current event completes.
  void stop() { stopped_ = true; }

  /// Number of pending (non-cancelled) events.
  std::size_t pending() const { return wheel_.size(); }

  /// Total events executed since construction (diagnostics / runaway guard).
  std::uint64_t events_executed() const { return executed_; }

  /// Abort the process if a single run executes more than this many events.
  /// Guards against accidental infinite event ping-pong in tests. 0 disables.
  void set_event_budget(std::uint64_t budget) { budget_ = budget; }

  // --- interleaving-explorer hooks ---------------------------------------
  // The exhaustive schedule explorer (src/harness/explore.h) needs to see
  // the loop's ready set and force a chosen event to run out of timestamp
  // order, modeling bounded delivery/scheduling delay. Normal runs never
  // call these, and they cost normal runs nothing.

  /// One pending event as the explorer sees it.
  struct ReadyEvent {
    TimerId id;
    SimTime at;
    std::uint64_t seq;
  };

  /// All live pending events with `at` <= horizon, in (at, seq) order.
  /// O(slots) — intended for tiny exploration worlds, not hot paths.
  std::vector<ReadyEvent> ready_events(SimTime horizon) const;

  /// Earliest live pending timestamp, or SimTime::never() when idle.
  SimTime next_event_at();

  /// Force the given pending event to run now, advancing the clock to
  /// max(now, its timestamp) — an event executed *after* a later-stamped one
  /// runs late, which is exactly the delivery-delay semantics the explorer
  /// enumerates. Returns false if the id is stale. Execution order within a
  /// chosen sequence of run_event calls is total, so a replayed choice
  /// vector is bit-identical.
  bool run_event(TimerId id);

 private:
  // A pending event is a queued slot: the wheel holds its (at, seq) key and
  // links, slots_ its callback, owner handle and generation. Cancelling
  // unlinks the slot from the wheel and frees it at once, so every queued
  // slot is live and the wheel's size is the pending count. The wheel pops
  // in strict (at, seq) order, the same total order a binary heap gives.
  struct Slot {
    Callback cb;
    TimerId* owner = nullptr;  // cleared when the event fires
    std::uint32_t gen = 1;     // generation 0 is never issued: no TimerId is 0
  };

  /// Slot index of a pending event's TimerId, or kNoSlot when stale.
  std::uint32_t live_slot(TimerId id) const;
  /// Retire a slot that just left the wheel: bump its generation (so the
  /// old TimerId is stale), clear its owner's handle, return it to the free
  /// list and hand back its callback.
  Callback release(std::uint32_t slot);

  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  SimTime now_;
  TimerWheel wheel_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t budget_ = 0;
  bool stopped_ = false;
};

/// A restartable one-shot timer bound to an EventLoop. Convenience wrapper
/// used by protocol state machines for retransmission / heartbeat / delay
/// timers: re-arming implicitly cancels the previous shot, and destruction
/// cancels any pending shot (no callbacks into destroyed objects). The
/// caller's callback is scheduled as is, with the timer's id_ as the event's
/// owner handle (a timer never moves, so the address is stable): arming
/// costs no wrapper and no allocation.
class ClockDomain;  // sim/clock_domain.h — per-host grey-failure skew

class OneShotTimer {
 public:
  explicit OneShotTimer(EventLoop& loop) : loop_(loop) {}
  /// Bind to a host's ClockDomain instead: while the domain is healthy this
  /// is identical to the EventLoop form; under an active LagProfile the
  /// timer's callbacks slide out of the stall windows with the host's CPU.
  explicit OneShotTimer(ClockDomain& domain);
  ~OneShotTimer() { cancel(); }
  OneShotTimer(const OneShotTimer&) = delete;
  OneShotTimer& operator=(const OneShotTimer&) = delete;

  /// Arm (or re-arm) to fire `d` from now.
  void arm(Duration d, EventLoop::Callback cb);
  /// Arm (or re-arm) to fire at absolute time `t`.
  void arm_at(SimTime t, EventLoop::Callback cb);
  void cancel();
  bool armed() const { return id_ != 0; }
  /// Absolute expiry time, or SimTime::never() when unarmed.
  SimTime deadline() const { return id_ != 0 ? deadline_ : SimTime::never(); }

 private:
  EventLoop& loop_;
  ClockDomain* domain_ = nullptr;  // set iff constructed from a ClockDomain
  TimerId id_ = 0;
  SimTime deadline_;
};

/// A periodic timer: fires every `period` until stopped or destroyed. The
/// callback may stop or restart its own timer: fire() runs a moved-out copy
/// and puts it back unless the callback stopped or restarted the timer.
class PeriodicTimer {
 public:
  explicit PeriodicTimer(EventLoop& loop) : loop_(loop) {}
  /// ClockDomain-bound form; see OneShotTimer.
  explicit PeriodicTimer(ClockDomain& domain);
  ~PeriodicTimer() { stop(); }
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// Start firing `cb` every `period`, first shot after `period`.
  void start(Duration period, EventLoop::Callback cb);
  void stop();
  bool running() const { return id_ != 0; }
  Duration period() const { return period_; }

 private:
  void fire();
  TimerId schedule_next();

  EventLoop& loop_;
  ClockDomain* domain_ = nullptr;  // set iff constructed from a ClockDomain
  TimerId id_ = 0;
  Duration period_;
  EventLoop::Callback cb_;
};

}  // namespace sttcp::sim
