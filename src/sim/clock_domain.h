// Per-host virtual-clock skew: the grey-failure primitive.
//
// A ClockDomain sits between one host's CPU-bound components (TCP timers,
// deferred frame processing) and the world's single EventLoop. While the
// domain is healthy it is a pure passthrough — schedule/cancel go straight
// to the loop and return the loop's own TimerIds, so a world with no grey
// faults armed is bit-identical to one built before this file existed.
//
// When a LagProfile is activated, the domain models a host whose event loop
// has fallen behind: every callback scheduled through the domain is pushed
// out of the profile's stall windows to the next instant the host's CPU is
// running again. The rest of the world keeps the shared clock; only this
// host's work slides. The profile is a pure function of (anchor, time), so
// the deferral pattern is deterministic and bit-identical under replay.
//
// What deliberately does NOT go through a domain: the ST-TCP endpoint's
// heartbeat/ping timers and UDP/ICMP receive processing. The 2005 paper runs
// the heartbeat daemon at real-time priority precisely so that a loaded or
// stalled server keeps heartbeating — which is what makes grey failures grey:
// the peer keeps hearing "alive" while the per-connection progress counters
// in those same heartbeats freeze. Conviction then has to come from counter
// stagnation (src/sttcp/lag.h), not heartbeat silence.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/event_loop.h"
#include "sim/time.h"

namespace sttcp::sim {

/// A deterministic CPU-availability schedule, anchored at activation time:
/// repeat [run_for healthy, stall_for stalled] `cycles` times (0 = forever).
/// With run_for == 0 the host stalls immediately; with cycles == 0 on top of
/// that, it never runs again (wedged-but-powered, the AppHang-adjacent case).
struct LagProfile {
  Duration run_for = Duration::zero();
  Duration stall_for = Duration::zero();
  std::uint64_t cycles = 1;

  static LagProfile none() { return LagProfile{Duration::zero(), Duration::zero(), 1}; }
  /// One solid stall of `d` starting at activation.
  static LagProfile stall(Duration d) { return LagProfile{Duration::zero(), d, 1}; }
  /// Duty-cycled stutter: run `run`, stall `stall`, `cycles` times (0 = forever).
  static LagProfile pulses(Duration run, Duration stall, std::uint64_t cycles = 0) {
    return LagProfile{run, stall, cycles};
  }

  bool active() const { return stall_for > Duration::zero(); }

  /// Earliest instant >= t at which the CPU is running, for a profile
  /// anchored at `anchor`. Returns t unchanged outside every stall window;
  /// SimTime::never() for the permanently wedged profile once it stalls.
  SimTime release(SimTime anchor, SimTime t) const;

  /// e.g. "stall(6s)" / "pulses(100ms/400ms x8)" — used in fault labels.
  std::string str() const;
};

/// One host's scheduling facade over the world EventLoop. See file comment.
class ClockDomain {
 public:
  explicit ClockDomain(EventLoop& loop) : loop_(loop) {}
  ClockDomain(const ClockDomain&) = delete;
  ClockDomain& operator=(const ClockDomain&) = delete;

  EventLoop& loop() { return loop_; }
  SimTime now() const { return loop_.now(); }

  /// Activate `p` anchored at the current time. Replaces any prior profile;
  /// callbacks already deferred keep re-checking against the new profile
  /// when they surface.
  void set_lag(LagProfile p);
  /// Drop the profile (fresh boot / stall over): back to pure passthrough.
  /// Pending deferred callbacks are dropped and their owning timers disarmed.
  void clear();

  /// True while a profile is active and the current time has not passed its
  /// final stall window.
  bool lagged() const;
  /// Earliest instant >= t the domain's CPU is running (t itself if healthy).
  SimTime release(SimTime t) const {
    return profile_.active() ? profile_.release(anchor_, t) : t;
  }

  /// Schedule through the domain. Healthy: forwarded verbatim to the loop
  /// (loop TimerId returned). Lagged: the callback surfaces at release(t),
  /// re-checking the then-current profile, and the returned TimerId has bit
  /// 63 set so cancel() can route it back here. `owner` is zeroed just
  /// before `cb` runs (EventLoop::schedule_at) — for a deferred callback
  /// when it finally runs, not at each re-check hop.
  TimerId schedule_at(SimTime t, EventLoop::Callback cb, TimerId* owner = nullptr);
  TimerId schedule_after(Duration d, EventLoop::Callback cb) {
    return schedule_at(now() + (d.is_negative() ? Duration::zero() : d), std::move(cb));
  }
  /// Cancels either kind of TimerId this domain has issued.
  bool cancel(TimerId id);

  /// Callbacks that have been pushed out of at least one stall window.
  std::uint64_t deferred() const { return deferred_; }

 private:
  // Domain-issued handles: bit 63 | (slot << 32) | generation, mirroring the
  // EventLoop's scheme in a private slot table. The extra indirection exists
  // because a deferred callback may be re-armed on the loop several times
  // (once per re-check); the domain id stays stable across those hops so
  // OneShotTimer-style cancel/re-arm keeps working mid-stall.
  static constexpr TimerId kDomainBit = TimerId{1} << 63;

  struct Slot {
    std::uint32_t gen = 1;
    TimerId inner = 0;  // current loop event carrying this slot's callback
    TimerId* owner = nullptr;
    EventLoop::Callback cb;
  };

  TimerId defer(SimTime want, EventLoop::Callback cb, TimerId* owner);
  /// Drop a pending slot's callback and recycle the slot.
  void retire(std::uint32_t slot);
  void surface(std::uint32_t slot, std::uint32_t gen);

  EventLoop& loop_;
  LagProfile profile_ = LagProfile::none();
  SimTime anchor_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t deferred_ = 0;
};

}  // namespace sttcp::sim
