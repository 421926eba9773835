#include "sim/timer_wheel.h"

#include <algorithm>
#include <bit>
#include <limits>

namespace sttcp::sim {

TimerWheel::TimerWheel() { std::fill(std::begin(heads_), std::end(heads_), kNil); }

void TimerWheel::push(std::uint32_t slot, SimTime at, std::uint64_t seq) {
  if (slot >= nodes_.size()) nodes_.resize(std::size_t{slot} + 1);
  Node& n = nodes_[slot];
  n.at = at;
  n.seq = seq;
  ++size_;
  place(slot);
}

void TimerWheel::place(std::uint32_t slot) {
  Node& n = nodes_[slot];
  const std::int64_t tick = tick_of(n.at);
  if (tick <= cursor_) {
    // Current granule (or the sub-granule remainder of it): ordered by the
    // explicit (at, seq) heap.
    due_push(slot);
    return;
  }
  // Level = the highest 6-bit group where tick and cursor differ. All higher
  // groups agree, so the slot is in the cursor's current frame at this
  // level; tick > cursor_ makes its index strictly ahead of the cursor's.
  // When the cursor later enters this slot, re-placed entries differ from it
  // only in lower groups — every cascade strictly decreases the level.
  const std::uint64_t diff =
      static_cast<std::uint64_t>(tick) ^ static_cast<std::uint64_t>(cursor_);
  const int level = (63 - std::countl_zero(diff)) / kLevelBits;
  const auto index = static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(tick) >> (kLevelBits * level)) & kSlotMask);
  const std::uint32_t bucket = static_cast<std::uint32_t>(level) * kSlotsPerLevel + index;
  const std::uint32_t head = heads_[bucket];
  n.where = bucket;
  n.prev = kNil;
  n.next = head;
  if (head != kNil) nodes_[head].prev = slot;
  heads_[bucket] = slot;
  occupancy_[level] |= std::uint64_t{1} << index;
}

void TimerWheel::remove(std::uint32_t slot) {
  Node& n = nodes_[slot];
  if (n.where == kDue) {
    due_erase(n.pos);
  } else {
    if (n.prev != kNil) {
      nodes_[n.prev].next = n.next;
    } else {
      heads_[n.where] = n.next;
      if (n.next == kNil) {
        occupancy_[n.where / kSlotsPerLevel] &= ~(std::uint64_t{1} << (n.where & kSlotMask));
      }
    }
    if (n.next != kNil) nodes_[n.next].prev = n.prev;
  }
  n.where = kIdle;
  --size_;
}

std::int64_t TimerWheel::slot_floor_tick(int level, int index) const {
  const int shift = kLevelBits * level;
  const std::int64_t frame = cursor_ >> (shift + kLevelBits);
  const std::int64_t start = ((frame << kLevelBits) | index) << shift;
  // The slot containing the cursor starts before it, but every entry obeys
  // tick >= cursor_ (push clamps to now).
  return start > cursor_ ? start : cursor_;
}

void TimerWheel::fill_due() {
  while (due_.empty()) {
    int best_level = -1;
    int best_index = -1;
    std::int64_t best_tick = std::numeric_limits<std::int64_t>::max();
    for (int level = 0; level < kLevels; ++level) {
      const std::uint64_t occ = occupancy_[level];
      if (occ == 0) continue;
      // Occupied slots all sit at or ahead of the cursor's index in the
      // current frame (place() guarantees it), so the first set bit from the
      // cursor's position is this level's earliest slot.
      const auto c = static_cast<int>((cursor_ >> (kLevelBits * level)) & kSlotMask);
      const std::uint64_t upper = occ >> c;
      const int index = upper != 0 ? c + std::countr_zero(upper)
                                   : std::countr_zero(occ);
      const std::int64_t floor = slot_floor_tick(level, index);
      if (floor < best_tick) {
        best_tick = floor;
        best_level = level;
        best_index = index;
      }
    }
    if (best_level < 0) return;  // nothing anywhere (size_ == 0)
    const std::uint32_t bucket =
        static_cast<std::uint32_t>(best_level) * kSlotsPerLevel +
        static_cast<std::uint32_t>(best_index);
    std::uint32_t slot = heads_[bucket];
    heads_[bucket] = kNil;
    occupancy_[best_level] &= ~(std::uint64_t{1} << best_index);
    cursor_ = best_tick;
    // A level-0 bucket is one granule: every entry lands in the due heap.
    // A higher bucket cascades into strictly lower levels.
    while (slot != kNil) {
      const std::uint32_t next = nodes_[slot].next;
      place(slot);
      slot = next;
    }
  }
}

std::uint32_t TimerWheel::peek_min() {
  fill_due();
  return due_.front();
}

std::uint32_t TimerWheel::pop_min() {
  fill_due();
  const std::uint32_t slot = due_.front();
  due_erase(0);
  nodes_[slot].where = kIdle;
  --size_;
  return slot;
}

void TimerWheel::due_push(std::uint32_t slot) {
  nodes_[slot].where = kDue;
  due_.push_back(slot);
  sift_up(static_cast<std::uint32_t>(due_.size() - 1));
}

void TimerWheel::due_erase(std::uint32_t pos) {
  const std::uint32_t last = due_.back();
  due_.pop_back();
  if (pos == due_.size()) return;
  due_set(pos, last);
  sift_up(pos);
  sift_down(nodes_[last].pos);
}

void TimerWheel::sift_up(std::uint32_t pos) {
  const std::uint32_t slot = due_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 2;
    if (!before(slot, due_[parent])) break;
    due_set(pos, due_[parent]);
    pos = parent;
  }
  due_set(pos, slot);
}

void TimerWheel::sift_down(std::uint32_t pos) {
  const std::uint32_t slot = due_[pos];
  const auto n = static_cast<std::uint32_t>(due_.size());
  for (;;) {
    std::uint32_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && before(due_[child + 1], due_[child])) ++child;
    if (!before(due_[child], slot)) break;
    due_set(pos, due_[child]);
    pos = child;
  }
  due_set(pos, slot);
}

}  // namespace sttcp::sim
