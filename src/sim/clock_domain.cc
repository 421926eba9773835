#include "sim/clock_domain.h"

#include <cstdio>
#include <utility>

namespace sttcp::sim {

SimTime LagProfile::release(SimTime anchor, SimTime t) const {
  if (!active() || t < anchor) return t;
  if (run_for.is_zero()) {
    // The stall begins at the anchor itself. cycles > 1 just concatenates.
    if (cycles == 0) return SimTime::never();  // wedged forever
    const SimTime end = anchor + stall_for * static_cast<std::int64_t>(cycles);
    return t < end ? end : t;
  }
  const Duration cycle = run_for + stall_for;
  const std::int64_t k = (t - anchor) / cycle;
  if (cycles != 0 && k >= static_cast<std::int64_t>(cycles)) return t;
  const Duration off = (t - anchor) - cycle * k;
  if (off < run_for) return t;  // inside this cycle's healthy window
  return anchor + cycle * (k + 1);
}

std::string LagProfile::str() const {
  if (!active()) return "none";
  char buf[96];
  if (run_for.is_zero() && cycles == 1) {
    std::snprintf(buf, sizeof buf, "stall(%s)", stall_for.str().c_str());
  } else if (cycles == 0) {
    std::snprintf(buf, sizeof buf, "pulses(%s/%s)", run_for.str().c_str(),
                  stall_for.str().c_str());
  } else {
    std::snprintf(buf, sizeof buf, "pulses(%s/%s x%llu)", run_for.str().c_str(),
                  stall_for.str().c_str(), static_cast<unsigned long long>(cycles));
  }
  return buf;
}

void ClockDomain::set_lag(LagProfile p) {
  profile_ = p;
  anchor_ = now();
}

void ClockDomain::clear() {
  profile_ = LagProfile::none();
  // Drop every pending deferred callback: clear() models a power transition
  // (crash / fresh boot), after which the stalled host's queued work is gone.
  // An owning timer is disarmed, exactly as if its shot had surfaced.
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].inner == 0) continue;
    loop_.cancel(slots_[slot].inner);
    if (slots_[slot].owner != nullptr) *slots_[slot].owner = 0;
    retire(slot);
  }
}

void ClockDomain::retire(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.inner = 0;
  s.owner = nullptr;
  s.cb = nullptr;
  if (++s.gen == 0) s.gen = 1;
  free_slots_.push_back(slot);
}

bool ClockDomain::lagged() const {
  if (!profile_.active()) return false;
  if (profile_.cycles == 0) return true;
  const Duration cycle = profile_.run_for + profile_.stall_for;
  return now() < anchor_ + cycle * static_cast<std::int64_t>(profile_.cycles);
}

TimerId ClockDomain::schedule_at(SimTime t, EventLoop::Callback cb, TimerId* owner) {
  if (t < now()) t = now();
  if (release(t) <= t) return loop_.schedule_at(t, std::move(cb), owner);
  return defer(t, std::move(cb), owner);
}

TimerId ClockDomain::defer(SimTime want, EventLoop::Callback cb, TimerId* owner) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  s.owner = owner;
  const std::uint32_t gen = s.gen;
  s.inner = loop_.schedule_at(release(want),
                              [this, slot, gen] { surface(slot, gen); });
  ++deferred_;
  return kDomainBit | (static_cast<TimerId>(slot) << 32) | gen;
}

void ClockDomain::surface(std::uint32_t slot, std::uint32_t gen) {
  Slot& s = slots_[slot];
  if (s.gen != gen) return;  // cancelled between arming and surfacing
  // Re-check against the *current* profile: set_lag() may have extended the
  // stall since this hop was armed.
  const SimTime r = release(now());
  if (r > now()) {
    s.inner = loop_.schedule_at(r, [this, slot, gen] { surface(slot, gen); });
    return;
  }
  // Retire the slot before running so the callback can re-arm through us.
  EventLoop::Callback cb = std::move(s.cb);
  if (s.owner != nullptr) *s.owner = 0;
  retire(slot);
  cb();
}

bool ClockDomain::cancel(TimerId id) {
  if ((id & kDomainBit) == 0) return loop_.cancel(id);
  const auto slot = static_cast<std::uint32_t>((id >> 32) & 0x7fffffff);
  const auto gen = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size() || slots_[slot].gen != gen || gen == 0) return false;
  loop_.cancel(slots_[slot].inner);
  retire(slot);
  return true;
}

}  // namespace sttcp::sim
