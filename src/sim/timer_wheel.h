// Hierarchical timing wheel: the EventLoop's priority queue.
//
// The capacity workloads arm, cancel, and re-arm timers at enormous rates —
// every ACK re-arms an RTO, every delivered segment may touch a delayed-ACK
// or persist timer, and 10k+ churning connections keep 10k+ timers armed at
// once. The wheel makes arm O(1) (a list push) and cancel O(1) (a list
// unlink; O(log k) inside the current granule), while preserving the loop's
// total execution order exactly.
//
// Structure (a classic hashed hierarchical wheel, Varghese & Lauck style):
//
//   * time is bucketed into granules of 2^10 ns (1.024 us);
//   * nine levels of 64 slots cover 54 bits of granules — the entire
//     representable simulation time, so there is no overflow path;
//   * an entry's level is the highest 6-bit granule-index group in which it
//     differs from the cursor (NOT its raw delta: a delta-based rule can map
//     an entry into the slot the cursor currently occupies, and then cascade
//     it back into that same slot forever). With the XOR rule the target
//     slot is always in the cursor's current frame, strictly ahead of it,
//     and every cascade strictly decreases the level;
//   * per-level occupancy bitmaps make "earliest non-empty slot" a couple of
//     ctz instructions, so idle gaps are skipped without scanning granules;
//   * expiring a higher-level slot cascades its entries into lower levels;
//     each entry cascades at most (levels-1) times over its lifetime;
//   * entries within the current granule are ordered by an explicit little
//     (at, seq) heap ("due heap", at most a granule's worth of events), which
//     is what keeps execution order bit-identical to a global binary heap:
//     (at, seq) is a total order, so pop order is independent of bucketing.
//
// The wheel is intrusive: it queues the owning EventLoop's slot indices and
// keeps one node per slot (key, doubly linked bucket links, due-heap
// position). A bucket is just a head index, so arming, cascading and
// cancelling never allocate; the node table grows only when the loop's slot
// table does, and its size is the peak number of simultaneously pending
// events.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace sttcp::sim {

class TimerWheel {
 public:
  TimerWheel();
  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  /// Queue `slot` (which must not be queued) under the key (at, seq).
  /// `at` must be >= the granule of the most recently popped entry (the
  /// EventLoop clamps past times to now(), which guarantees this).
  void push(std::uint32_t slot, SimTime at, std::uint64_t seq);

  /// Unlink a queued slot (cancellation or out-of-order execution).
  void remove(std::uint32_t slot);

  bool contains(std::uint32_t slot) const {
    return slot < nodes_.size() && nodes_[slot].where != kIdle;
  }
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// The queued slot earliest in (at, seq) order. May cascade internally
  /// (amortized O(1)). Precondition: !empty().
  std::uint32_t peek_min();

  /// Remove and return the queued slot earliest in (at, seq) order.
  std::uint32_t pop_min();

  /// Key of a slot, valid while it is queued and after it is popped, until
  /// the slot is pushed again.
  SimTime at(std::uint32_t slot) const { return nodes_[slot].at; }
  std::uint64_t seq(std::uint32_t slot) const { return nodes_[slot].seq; }

 private:
  static constexpr int kGranuleBits = 10;  // 1.024 us granules
  static constexpr int kLevelBits = 6;     // 64 slots per level
  static constexpr int kLevels = 9;        // 9*6 = 54 bits: all of sim time
  static constexpr std::uint64_t kSlotsPerLevel = std::uint64_t{1} << kLevelBits;
  static constexpr std::uint64_t kSlotMask = kSlotsPerLevel - 1;
  static constexpr std::uint32_t kBuckets = kLevels * kSlotsPerLevel;
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  // Node::where values beyond the bucket numbers.
  static constexpr std::uint32_t kDue = kBuckets;
  static constexpr std::uint32_t kIdle = kBuckets + 1;

  struct Node {
    SimTime at;
    std::uint64_t seq = 0;          // tie-break: FIFO among equal timestamps
    std::uint32_t next = kNil;      // bucket list links
    std::uint32_t prev = kNil;
    std::uint32_t pos = 0;          // index in due_ while where == kDue
    std::uint32_t where = kIdle;    // bucket number, kDue, or kIdle
  };

  static std::int64_t tick_of(SimTime t) { return t.ns() >> kGranuleBits; }

  /// Queue a node relative to cursor_: due heap (current granule or
  /// earlier) or a wheel bucket picked by the XOR level rule.
  void place(std::uint32_t slot);
  /// Make the due heap non-empty by advancing the cursor to the earliest
  /// occupied granule, cascading higher-level buckets as needed.
  void fill_due();
  /// Earliest possibly-occupied absolute tick covered by `level`'s slot at
  /// `index`, given the cursor (handles the level frame wrapping).
  std::int64_t slot_floor_tick(int level, int index) const;

  // Due heap: a binary min-heap of slots keyed by (at, seq) that records
  // each member's position, so a cancelled member leaves in O(log k).
  bool before(std::uint32_t a, std::uint32_t b) const {
    const Node& x = nodes_[a];
    const Node& y = nodes_[b];
    return x.at != y.at ? x.at < y.at : x.seq < y.seq;
  }
  void due_set(std::uint32_t pos, std::uint32_t slot) {
    due_[pos] = slot;
    nodes_[slot].pos = pos;
  }
  void due_push(std::uint32_t slot);
  void due_erase(std::uint32_t pos);
  void sift_up(std::uint32_t pos);
  void sift_down(std::uint32_t pos);

  std::vector<Node> nodes_;           // slot -> node
  std::vector<std::uint32_t> due_;    // (at, seq) min-heap: current granule
  std::uint32_t heads_[kBuckets];     // bucket -> first slot, or kNil
  std::uint64_t occupancy_[kLevels] = {};  // bit s set = bucket non-empty
  std::int64_t cursor_ = 0;           // granule the due heap corresponds to
  std::size_t size_ = 0;
};

}  // namespace sttcp::sim
