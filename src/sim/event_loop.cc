#include "sim/event_loop.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "sim/clock_domain.h"

namespace sttcp::sim {

TimerId EventLoop::schedule_at(SimTime t, Callback cb, TimerId* owner) {
  if (t < now_) t = now_;
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
  wheel_.push(slot, t, next_seq_++);
  return (static_cast<TimerId>(slot) << 32) | s.gen;
}

std::uint32_t EventLoop::live_slot(TimerId id) const {
  const auto slot = static_cast<std::uint32_t>(id >> 32);
  const auto gen = static_cast<std::uint32_t>(id);
  // A slot's generation moves on the moment its event leaves the wheel, so
  // a matching generation means the event is still queued.
  if (slot >= slots_.size() || slots_[slot].gen != gen) return kNoSlot;
  return slot;
}

EventLoop::Callback EventLoop::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  if (s.owner != nullptr) {
    *s.owner = 0;
    s.owner = nullptr;
  }
  if (++s.gen == 0) s.gen = 1;
  free_slots_.push_back(slot);
  return std::move(s.cb);
}

std::vector<EventLoop::ReadyEvent> EventLoop::ready_events(SimTime horizon) const {
  std::vector<ReadyEvent> out;
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (!wheel_.contains(slot) || wheel_.at(slot) > horizon) continue;
    out.push_back(ReadyEvent{(static_cast<TimerId>(slot) << 32) | slots_[slot].gen,
                             wheel_.at(slot), wheel_.seq(slot)});
  }
  std::sort(out.begin(), out.end(), [](const ReadyEvent& a, const ReadyEvent& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  });
  return out;
}

SimTime EventLoop::next_event_at() {
  return wheel_.empty() ? SimTime::never() : wheel_.at(wheel_.peek_min());
}

bool EventLoop::run_event(TimerId id) {
  const std::uint32_t slot = live_slot(id);
  if (slot == kNoSlot) return false;
  wheel_.remove(slot);
  if (wheel_.at(slot) > now_) now_ = wheel_.at(slot);
  Callback cb = release(slot);
  ++executed_;
  cb();
  return true;
}

bool EventLoop::cancel(TimerId id) {
  const std::uint32_t slot = live_slot(id);
  if (slot == kNoSlot) return false;
  wheel_.remove(slot);
  // The cancelled captures die here, after the loop's bookkeeping is
  // consistent (a capture's destructor may itself schedule or cancel).
  Callback dead = release(slot);
  return true;
}

bool EventLoop::step() {
  if (wheel_.empty()) return false;
  const std::uint32_t slot = wheel_.pop_min();
  now_ = wheel_.at(slot);
  // Take the callback out before running it: it may reuse the freed slot,
  // and scheduling may grow (and so move) the slot table.
  Callback cb = release(slot);
  ++executed_;
  if (budget_ != 0 && executed_ > budget_) {
    std::fprintf(stderr, "EventLoop: event budget (%llu) exceeded at t=%s\n",
                 static_cast<unsigned long long>(budget_), now_.str().c_str());
    std::abort();
  }
  cb();
  return true;
}

std::uint64_t EventLoop::run() {
  stopped_ = false;
  std::uint64_t n = 0;
  while (!stopped_ && step()) ++n;
  return n;
}

std::uint64_t EventLoop::run_until(SimTime t) {
  stopped_ = false;
  std::uint64_t n = 0;
  while (!stopped_ && !wheel_.empty() && wheel_.at(wheel_.peek_min()) <= t) {
    step();
    ++n;
  }
  if (now_ < t) now_ = t;
  return n;
}

std::uint64_t EventLoop::run_before(SimTime t) {
  stopped_ = false;
  std::uint64_t n = 0;
  while (!stopped_ && !wheel_.empty() && wheel_.at(wheel_.peek_min()) < t) {
    step();
    ++n;
  }
  if (now_ < t) now_ = t;
  return n;
}

OneShotTimer::OneShotTimer(ClockDomain& domain)
    : loop_(domain.loop()), domain_(&domain) {}

void OneShotTimer::arm(Duration d, EventLoop::Callback cb) {
  arm_at(loop_.now() + (d.is_negative() ? Duration::zero() : d), std::move(cb));
}

void OneShotTimer::arm_at(SimTime t, EventLoop::Callback cb) {
  cancel();
  deadline_ = t;
  // id_ is the event's owner handle: the loop (or, for a deferred event,
  // the domain) zeroes it just before cb runs, so cb may re-arm this timer.
  id_ = domain_ ? domain_->schedule_at(t, std::move(cb), &id_)
                : loop_.schedule_at(t, std::move(cb), &id_);
}

void OneShotTimer::cancel() {
  if (id_ != 0) {
    if (domain_) {
      domain_->cancel(id_);
    } else {
      loop_.cancel(id_);
    }
    id_ = 0;
  }
}

PeriodicTimer::PeriodicTimer(ClockDomain& domain)
    : loop_(domain.loop()), domain_(&domain) {}

void PeriodicTimer::start(Duration period, EventLoop::Callback cb) {
  stop();
  period_ = period;
  cb_ = std::move(cb);
  id_ = schedule_next();
}

void PeriodicTimer::stop() {
  if (id_ != 0) {
    if (domain_) {
      domain_->cancel(id_);
    } else {
      loop_.cancel(id_);
    }
    id_ = 0;
  }
  cb_ = nullptr;
}

TimerId PeriodicTimer::schedule_next() {
  auto shot = [this] { fire(); };
  return domain_ ? domain_->schedule_after(period_, shot)
                 : loop_.schedule_after(period_, shot);
}

void PeriodicTimer::fire() {
  // Reschedule first: cb_ may call stop(), which must cancel the next shot.
  id_ = schedule_next();
  // Run a moved-out copy: cb may stop() or start() this timer, which
  // replaces cb_ and would otherwise destroy the callable mid-call.
  EventLoop::Callback cb = std::move(cb_);
  cb();
  // Put it back unless stop() ran (id_ == 0) or start() installed a new one.
  if (id_ != 0 && !cb_) cb_ = std::move(cb);
}

}  // namespace sttcp::sim
