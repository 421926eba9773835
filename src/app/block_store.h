// Block-device-backed store with an LRU page cache — the stateful half of
// app::BlockStoreServer (docs/APPLICATION.md).
//
// The device is a fixed array of fixed-size blocks with an allocation
// bitmap. The cache fronts it: GET misses read a block into a page, PUT
// dirties a page in place (write-back, not write-through), and a periodic
// writeback pass flushes the oldest dirty pages. Eviction deliberately
// models a nondeterministic policy — the victim is drawn at random from the
// K least-recently-used resident pages, the way sampled-LRU policies (e.g.
// redis) behave — so a primary and backup CANNOT stay identical by
// construction: the victim must travel through the logged-decision channel
// (sttcp/decision.h). Everything else here is deterministic given the same
// operation order.
//
// digest() folds content, allocation, dirtiness and LRU order into one
// value: two instances that report equal digests would also behave
// identically on every future operation.
#pragma once

#include <cstdint>
#include <vector>

#include "net/bytes.h"

namespace sttcp::app {

/// Fixed-geometry block device with an allocation bitmap.
class BlockDevice {
 public:
  BlockDevice(std::uint32_t blocks, std::uint32_t block_size);

  std::uint32_t blocks() const { return blocks_; }
  std::uint32_t block_size() const { return block_size_; }

  bool allocated(std::uint32_t b) const { return allocated_[b]; }
  void allocate(std::uint32_t b) { allocated_[b] = 1; }
  /// Overwrite one block (short data is zero-padded) and mark it allocated.
  void write(std::uint32_t b, net::BytesView data);
  net::BytesView read(std::uint32_t b) const;
  /// Deallocate and zero — a deleted block reads back as fresh.
  void deallocate(std::uint32_t b);

  std::uint64_t digest() const;
  void serialize(net::ByteWriter& w) const;
  bool restore(net::ByteReader& r);

 private:
  std::uint32_t blocks_;
  std::uint32_t block_size_;
  std::vector<std::uint8_t> allocated_;
  net::Bytes data_;  // blocks_ * block_size_, flat
};

/// LRU page cache over BlockDevice, dirty-page write-back. The pages live in
/// one capacity x block_size arena; the LRU and dirty queues are lists linked
/// by slot index, and an open-addressed table maps a block to its slot, so
/// no operation allocates.
class LruBlockCache {
 public:
  LruBlockCache(std::size_t capacity, std::uint32_t block_size);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return size_; }
  bool full() const { return size_ >= capacity_; }
  std::size_t dirty_count() const { return dirty_count_; }

  bool contains(std::uint32_t b) const { return find(b) != kNone; }
  /// Resident page data; touches LRU. Empty on miss. Valid until the cache
  /// next changes.
  net::BytesView get(std::uint32_t b);
  /// Overwrite/insert a page as dirty (short data zero-padded); touches LRU.
  /// Caller guarantees a free slot (evict first when full).
  void put(std::uint32_t b, net::BytesView data);
  /// Insert a clean page read from the device. Caller guarantees a slot.
  void insert_clean(std::uint32_t b, net::BytesView data);
  /// Drop a page without writeback (DELETE path). No-op if absent.
  void drop(std::uint32_t b);

  /// The K least-recently-used resident blocks, LRU-most first — the
  /// candidate set the primary draws its eviction victim from. Valid until
  /// the next call of this or oldest_dirty().
  const std::vector<std::uint32_t>& victim_candidates(std::size_t k) const;
  /// Write back if dirty, then drop. The victim came either from the local
  /// draw (primary) or the replayed kEvict decision (backup).
  void evict(std::uint32_t b, BlockDevice& dev);
  /// The n oldest-dirtied blocks in dirty order — the writeback batch.
  /// Valid until the next call of this or victim_candidates().
  const std::vector<std::uint32_t>& oldest_dirty(std::size_t n) const;
  /// Write one page back, keep it resident and clean. No-op if not dirty.
  void flush(std::uint32_t b, BlockDevice& dev);
  /// Flush everything dirty (quiesce / pre-drop), dirty order.
  std::size_t flush_all(BlockDevice& dev);
  /// Drop every clean page — the cold-cache takeover ablation.
  void drop_all_clean();

  std::uint64_t digest() const;
  void serialize(net::ByteWriter& w) const;
  /// Rejects (and leaves the cache empty) a page count over capacity, a
  /// block listed twice, and a dirty queue that is not exactly the pages
  /// flagged dirty, each once.
  bool restore(net::ByteReader& r);

 private:
  static constexpr std::uint32_t kNone = 0xFFFFFFFF;
  /// A slot's neighbours in one of the two queues.
  struct Links {
    std::uint32_t prev = kNone;  // towards the head
    std::uint32_t next = kNone;  // towards the tail
  };
  struct Queue {
    std::uint32_t head = kNone;
    std::uint32_t tail = kNone;
  };
  struct Slot {
    std::uint32_t block = 0;
    bool dirty = false;
    Links lru;    // in lru_ while resident; the free stack uses lru.next
    Links dirty_q;  // in dirty_ while dirty
  };

  std::uint32_t find(std::uint32_t b) const;  // slot, or kNone
  std::size_t home(std::uint32_t b) const;    // the block's index bucket
  std::uint32_t insert(std::uint32_t b);      // a new slot at the LRU front
  void erase(std::uint32_t s);
  void mark_dirty(std::uint32_t s);
  void mark_clean(std::uint32_t s);
  void write_page(std::uint32_t s, net::BytesView data);
  net::BytesView page(std::uint32_t s) const;
  void clear();
  void push_front(Queue& q, Links Slot::*m, std::uint32_t s);
  void push_back(Queue& q, Links Slot::*m, std::uint32_t s);
  void unlink(Queue& q, Links Slot::*m, std::uint32_t s);

  std::size_t capacity_;
  std::uint32_t block_size_;
  net::Bytes arena_;                   // capacity_ * block_size_, page per slot
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> index_;   // block -> slot, linear probing
  unsigned index_shift_ = 0;           // 32 - log2(index_.size())
  Queue lru_;                          // head = most recent
  Queue dirty_;                        // head = oldest dirtied
  std::uint32_t free_ = kNone;         // free slot stack
  std::size_t size_ = 0;
  std::size_t dirty_count_ = 0;
  mutable std::vector<std::uint32_t> picked_;  // query results
};

}  // namespace sttcp::app
