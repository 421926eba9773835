#include "app/block_store.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "app/digest.h"

namespace sttcp::app {

// --- BlockDevice -------------------------------------------------------------

BlockDevice::BlockDevice(std::uint32_t blocks, std::uint32_t block_size)
    : blocks_(blocks),
      block_size_(block_size),
      allocated_(blocks, 0),
      data_(static_cast<std::size_t>(blocks) * block_size, 0) {}

void BlockDevice::write(std::uint32_t b, net::BytesView data) {
  std::uint8_t* dst = data_.data() + static_cast<std::size_t>(b) * block_size_;
  const std::size_t n = std::min<std::size_t>(data.size(), block_size_);
  std::memcpy(dst, data.data(), n);
  std::memset(dst + n, 0, block_size_ - n);
  allocated_[b] = 1;
}

net::BytesView BlockDevice::read(std::uint32_t b) const {
  return net::BytesView(data_).subspan(
      static_cast<std::size_t>(b) * block_size_, block_size_);
}

void BlockDevice::deallocate(std::uint32_t b) {
  allocated_[b] = 0;
  std::memset(data_.data() + static_cast<std::size_t>(b) * block_size_, 0,
              block_size_);
}

std::uint64_t BlockDevice::digest() const {
  std::uint64_t d = kFnvBasis;
  d = fold(d, blocks_);
  d = fold(d, block_size_);
  d = fold_bytes(d, allocated_);
  d = fold_bytes(d, data_);
  return d;
}

void BlockDevice::serialize(net::ByteWriter& w) const {
  w.u32(blocks_);
  w.u32(block_size_);
  // Sparse: only allocated blocks travel (the rest are zero by invariant).
  std::uint32_t count = 0;
  for (const std::uint8_t a : allocated_) count += a;
  w.u32(count);
  for (std::uint32_t b = 0; b < blocks_; ++b) {
    if (!allocated_[b]) continue;
    w.u32(b);
    w.bytes(read(b));
  }
}

bool BlockDevice::restore(net::ByteReader& r) {
  const std::uint32_t blocks = r.u32();
  const std::uint32_t bs = r.u32();
  if (blocks != blocks_ || bs != block_size_) return false;  // geometry pinned
  std::fill(allocated_.begin(), allocated_.end(), 0);
  std::fill(data_.begin(), data_.end(), 0);
  const std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t b = r.u32();
    if (b >= blocks_) return false;
    write(b, r.bytes(block_size_));
  }
  return true;
}

// --- LruBlockCache -----------------------------------------------------------

LruBlockCache::LruBlockCache(std::size_t capacity, std::uint32_t block_size)
    : capacity_(capacity),
      block_size_(block_size),
      arena_(capacity * block_size, 0),
      slots_(capacity) {
  // At most half full, so probes stay short.
  std::size_t buckets = 2;
  index_shift_ = 31;
  while (buckets < 2 * capacity) {
    buckets *= 2;
    --index_shift_;
  }
  index_.assign(buckets, kNone);
  picked_.reserve(capacity);
  clear();
}

void LruBlockCache::clear() {
  std::fill(index_.begin(), index_.end(), kNone);
  lru_ = Queue{};
  dirty_ = Queue{};
  free_ = kNone;
  for (std::size_t s = slots_.size(); s-- > 0;) {
    slots_[s] = Slot{};
    slots_[s].lru.next = free_;
    free_ = static_cast<std::uint32_t>(s);
  }
  size_ = 0;
  dirty_count_ = 0;
}

void LruBlockCache::push_front(Queue& q, Links Slot::*m, std::uint32_t s) {
  Links& l = slots_[s].*m;
  l.prev = kNone;
  l.next = q.head;
  if (q.head != kNone) {
    (slots_[q.head].*m).prev = s;
  } else {
    q.tail = s;
  }
  q.head = s;
}

void LruBlockCache::push_back(Queue& q, Links Slot::*m, std::uint32_t s) {
  Links& l = slots_[s].*m;
  l.prev = q.tail;
  l.next = kNone;
  if (q.tail != kNone) {
    (slots_[q.tail].*m).next = s;
  } else {
    q.head = s;
  }
  q.tail = s;
}

void LruBlockCache::unlink(Queue& q, Links Slot::*m, std::uint32_t s) {
  const Links l = slots_[s].*m;
  (l.prev != kNone ? (slots_[l.prev].*m).next : q.head) = l.next;
  (l.next != kNone ? (slots_[l.next].*m).prev : q.tail) = l.prev;
}

std::size_t LruBlockCache::home(std::uint32_t b) const {
  return (b * 0x9E3779B1u) >> index_shift_;  // Fibonacci hashing
}

std::uint32_t LruBlockCache::find(std::uint32_t b) const {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = home(b);; i = (i + 1) & mask) {
    const std::uint32_t s = index_[i];
    if (s == kNone || slots_[s].block == b) return s;
  }
}

std::uint32_t LruBlockCache::insert(std::uint32_t b) {
  if (free_ == kNone) throw std::logic_error("LruBlockCache: no free slot");
  const std::uint32_t s = free_;
  free_ = slots_[s].lru.next;
  slots_[s] = Slot{};
  slots_[s].block = b;
  const std::size_t mask = index_.size() - 1;
  std::size_t i = home(b);
  while (index_[i] != kNone) i = (i + 1) & mask;
  index_[i] = s;
  push_front(lru_, &Slot::lru, s);
  ++size_;
  return s;
}

void LruBlockCache::erase(std::uint32_t s) {
  if (slots_[s].dirty) mark_clean(s);
  unlink(lru_, &Slot::lru, s);
  // Backward-shift deletion: pull later members of the probe run into the
  // hole unless that would move one before its home bucket.
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = home(slots_[s].block);
  while (index_[hole] != s) hole = (hole + 1) & mask;
  for (std::size_t j = (hole + 1) & mask; index_[j] != kNone; j = (j + 1) & mask) {
    const std::size_t h = home(slots_[index_[j]].block);
    if (((j - h) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = kNone;
  slots_[s].lru.next = free_;
  free_ = s;
  --size_;
}

void LruBlockCache::mark_dirty(std::uint32_t s) {
  slots_[s].dirty = true;
  push_back(dirty_, &Slot::dirty_q, s);
  ++dirty_count_;
}

void LruBlockCache::mark_clean(std::uint32_t s) {
  slots_[s].dirty = false;
  unlink(dirty_, &Slot::dirty_q, s);
  --dirty_count_;
}

net::BytesView LruBlockCache::page(std::uint32_t s) const {
  return net::BytesView(arena_).subspan(static_cast<std::size_t>(s) * block_size_,
                                        block_size_);
}

void LruBlockCache::write_page(std::uint32_t s, net::BytesView data) {
  std::uint8_t* dst = arena_.data() + static_cast<std::size_t>(s) * block_size_;
  const std::size_t n = std::min<std::size_t>(data.size(), block_size_);
  std::memcpy(dst, data.data(), n);
  std::memset(dst + n, 0, block_size_ - n);
}

net::BytesView LruBlockCache::get(std::uint32_t b) {
  const std::uint32_t s = find(b);
  if (s == kNone) return {};
  unlink(lru_, &Slot::lru, s);
  push_front(lru_, &Slot::lru, s);
  return page(s);
}

void LruBlockCache::put(std::uint32_t b, net::BytesView data) {
  std::uint32_t s = find(b);
  if (s == kNone) {
    s = insert(b);
  } else {
    unlink(lru_, &Slot::lru, s);
    push_front(lru_, &Slot::lru, s);
  }
  write_page(s, data);
  if (!slots_[s].dirty) mark_dirty(s);
}

void LruBlockCache::insert_clean(std::uint32_t b, net::BytesView data) {
  write_page(insert(b), data);
}

void LruBlockCache::drop(std::uint32_t b) {
  const std::uint32_t s = find(b);
  if (s != kNone) erase(s);
}

const std::vector<std::uint32_t>& LruBlockCache::victim_candidates(std::size_t k) const {
  picked_.clear();
  for (std::uint32_t s = lru_.tail; s != kNone && picked_.size() < k; s = slots_[s].lru.prev) {
    picked_.push_back(slots_[s].block);
  }
  return picked_;
}

void LruBlockCache::evict(std::uint32_t b, BlockDevice& dev) {
  const std::uint32_t s = find(b);
  if (s == kNone) return;
  if (slots_[s].dirty) dev.write(b, page(s));
  erase(s);
}

const std::vector<std::uint32_t>& LruBlockCache::oldest_dirty(std::size_t n) const {
  picked_.clear();
  for (std::uint32_t s = dirty_.head; s != kNone && picked_.size() < n;
       s = slots_[s].dirty_q.next) {
    picked_.push_back(slots_[s].block);
  }
  return picked_;
}

void LruBlockCache::flush(std::uint32_t b, BlockDevice& dev) {
  const std::uint32_t s = find(b);
  if (s == kNone || !slots_[s].dirty) return;
  dev.write(b, page(s));
  mark_clean(s);
}

std::size_t LruBlockCache::flush_all(BlockDevice& dev) {
  std::size_t n = 0;
  for (; dirty_.head != kNone; ++n) {
    const std::uint32_t s = dirty_.head;
    dev.write(slots_[s].block, page(s));
    mark_clean(s);
  }
  return n;
}

void LruBlockCache::drop_all_clean() {
  for (std::uint32_t s = lru_.head; s != kNone;) {
    const std::uint32_t next = slots_[s].lru.next;
    if (!slots_[s].dirty) erase(s);
    s = next;
  }
}

std::uint64_t LruBlockCache::digest() const {
  // LRU and dirty order matter: equal digests must imply identical future
  // candidate sets and writeback batches.
  std::uint64_t d = kFnvBasis;
  for (std::uint32_t s = lru_.head; s != kNone; s = slots_[s].lru.next) {
    d = fold(d, slots_[s].block);
    d = fold(d, slots_[s].dirty ? 1 : 0);
    d = fold_bytes(d, page(s));
  }
  for (std::uint32_t s = dirty_.head; s != kNone; s = slots_[s].dirty_q.next) {
    d = fold(d, slots_[s].block);
  }
  return d;
}

void LruBlockCache::serialize(net::ByteWriter& w) const {
  // Pages in LRU order (most recent first) + the dirty queue: a restore
  // rebuilds both orders exactly.
  w.u32(static_cast<std::uint32_t>(size_));
  for (std::uint32_t s = lru_.head; s != kNone; s = slots_[s].lru.next) {
    w.u32(slots_[s].block);
    w.u8(slots_[s].dirty ? 1 : 0);
    w.bytes(page(s));
  }
  w.u32(static_cast<std::uint32_t>(dirty_count_));
  for (std::uint32_t s = dirty_.head; s != kNone; s = slots_[s].dirty_q.next) {
    w.u32(slots_[s].block);
  }
}

bool LruBlockCache::restore(net::ByteReader& r) {
  clear();
  const auto reject = [this] {
    clear();
    return false;
  };
  const std::uint32_t n = r.u32();
  if (n > capacity_) return reject();
  // Serialized most-recent-first; each page goes to the LRU back. A page's
  // dirty flag is only collected here: it is set as the queue names it.
  std::vector<std::uint32_t>& flagged = picked_;
  flagged.clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t b = r.u32();
    const bool dirty = r.u8() != 0;
    const net::BytesView data = r.bytes(block_size_);
    if (contains(b)) return reject();
    const std::uint32_t s = insert(b);
    unlink(lru_, &Slot::lru, s);
    push_back(lru_, &Slot::lru, s);
    write_page(s, data);
    if (dirty) flagged.push_back(b);
  }
  const std::uint32_t dn = r.u32();
  if (dn != flagged.size()) return reject();
  for (std::uint32_t i = 0; i < dn; ++i) {
    const std::uint32_t b = r.u32();
    const std::uint32_t s = find(b);
    if (s == kNone || slots_[s].dirty ||
        std::find(flagged.begin(), flagged.end(), b) == flagged.end()) {
      return reject();
    }
    mark_dirty(s);
  }
  return true;
}

}  // namespace sttcp::app
