#include "net/impairment.h"

#include "net/headers.h"

namespace sttcp::net {

Impairment::Plan Impairment::plan(int direction, Frame frame) {
  Plan p;
  p.frame = std::move(frame);
  if (!cfg_.any()) return p;

  // One-way NIC loss: a single i.i.d. draw, only for directions it is armed
  // on (an unarmed direction consumes no randomness, so arming one side
  // leaves the other side's stream untouched).
  if (cfg_.oneway_drop[direction & 1] > 0.0 &&
      rng_.chance(cfg_.oneway_drop[direction & 1])) {
    ++stats_.oneway_dropped;
    p.drop = true;
    return p;
  }

  // Gilbert–Elliott: step the chain once per frame, then (maybe) lose the
  // frame if this direction is in the Bad state.
  bool& bad = burst_bad_[direction & 1];
  if (cfg_.burst_p_enter > 0.0 || bad) {
    if (!bad) {
      if (rng_.chance(cfg_.burst_p_enter)) bad = true;
    } else if (rng_.chance(cfg_.burst_p_exit)) {
      bad = false;
    }
    if (bad && rng_.chance(cfg_.burst_loss)) {
      ++stats_.burst_dropped;
      p.drop = true;
      return p;
    }
  }

  if (cfg_.corrupt_probability > 0.0 &&
      p.frame.size() > EthernetHeader::kSize &&
      rng_.chance(cfg_.corrupt_probability)) {
    corrupt(p.frame);
  }

  if (cfg_.duplicate_probability > 0.0 && rng_.chance(cfg_.duplicate_probability)) {
    ++stats_.duplicated;
    p.copies = 2;
  }

  if (cfg_.reorder_probability > 0.0 && rng_.chance(cfg_.reorder_probability)) {
    ++stats_.reordered;
    p.reordered = true;
    p.extra_delay = cfg_.reorder_delay;
  } else if (!cfg_.jitter_max.is_zero()) {
    p.extra_delay = sim::Duration::nanos(
        static_cast<std::int64_t>(rng_.below(static_cast<std::uint64_t>(cfg_.jitter_max.ns()))));
  }
  return p;
}

void Impairment::corrupt(Frame& frame) {
  // Copy-on-write single-bit flip past the Ethernet header: every other
  // holder of the original buffer keeps the clean bytes.
  Frame copy = Frame::copy_of(frame.view());
  const std::size_t off =
      EthernetHeader::kSize +
      static_cast<std::size_t>(rng_.below(copy.size() - EthernetHeader::kSize));
  copy.writable()[off] ^= static_cast<std::uint8_t>(1u << rng_.below(8));
  frame = std::move(copy);
  ++stats_.corrupted;
  if (corrupt_tap_) corrupt_tap_(frame, off);
}

}  // namespace sttcp::net
