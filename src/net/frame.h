// Ref-counted Ethernet frame: one heap block per frame.
//
// The block holds an atomic reference count, the frame's length and its
// bytes, so a frame costs exactly one allocation. A Frame is a handle
// (block + offset + length) into that block. Copying a Frame bumps the count
// instead of copying the bytes, so the switch's multicast/flood fan-out, the
// egress mirror, and the backup's multicast tap all share the one block the
// sender built. The count is atomic because frames on a sharded fabric cross
// shard threads.
//
// Ownership contract:
//  - A frame is writable only until it is first shared. Frame::allocate(n)
//    returns a frame only its caller holds; the caller writes every byte in
//    place through writable() and then sends it. From the first copy on
//    (links in flight, the pcap tap, a host's CPU queue, test sinks) the
//    bytes are immutable, and writable() refuses to hand them out.
//  - Parsing works on views into the block (view(), a parsed TCP segment's
//    payload); no per-hop copies are made. A view lives exactly as long as
//    some Frame referencing its block: whoever keeps a view beyond the
//    current call keeps the Frame with it (the replica's buffered segments
//    do).
//  - Code that needs a detached copy takes one explicitly: copy_of() makes a
//    new block, clone() a mutable Bytes.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <stdexcept>
#include <utility>

#include "net/bytes.h"

namespace sttcp::net {

class Frame {
 public:
  /// Empty frame (no block).
  Frame() = default;

  Frame(const Frame& o) noexcept : block_(o.block_), off_(o.off_), len_(o.len_) {
    if (block_ != nullptr) block_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  Frame(Frame&& o) noexcept
      : block_(std::exchange(o.block_, nullptr)),
        off_(std::exchange(o.off_, 0)),
        len_(std::exchange(o.len_, 0)) {}
  Frame& operator=(Frame o) noexcept {
    std::swap(block_, o.block_);
    std::swap(off_, o.off_);
    std::swap(len_, o.len_);
    return *this;
  }
  ~Frame() { release(); }

  /// A fresh `n`-byte frame held only by the caller. Its bytes are
  /// indeterminate: the caller writes all of them through writable().
  static Frame allocate(std::size_t n) {
    void* mem = ::operator new(sizeof(Block) + n);
    Frame f;
    f.block_ = ::new (mem) Block{{1}, static_cast<std::uint32_t>(n)};
    f.len_ = static_cast<std::uint32_t>(n);
    return f;
  }

  /// Copy `v` into a fresh block.
  static Frame copy_of(BytesView v) {
    Frame f = allocate(v.size());
    if (!v.empty()) std::memcpy(f.block_->bytes(), v.data(), v.size());
    return f;
  }

  /// The bytes, for writing in place. Only legal while this is the sole
  /// handle to the block (before the frame is sent or copied).
  std::span<std::uint8_t> writable() {
    if (block_ == nullptr) return {};
    if (block_->refs.load(std::memory_order_relaxed) != 1) {
      throw std::logic_error("Frame::writable on a shared frame");
    }
    return {block_->bytes() + off_, len_};
  }

  const std::uint8_t* data() const { return block_ ? block_->bytes() + off_ : nullptr; }
  std::size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  std::uint8_t operator[](std::size_t i) const { return block_->bytes()[off_ + i]; }
  const std::uint8_t* begin() const { return data(); }
  const std::uint8_t* end() const { return data() + len_; }

  /// View into the block; valid as long as any Frame referencing the block
  /// is alive.
  BytesView view() const { return block_ ? BytesView(data(), len_) : BytesView(); }

  /// Sub-view sharing the same block (no copy).
  Frame subframe(std::size_t off, std::size_t n) const {
    Frame f(*this);
    if (off > len_) off = len_;
    if (n > len_ - off) n = len_ - off;
    f.off_ += static_cast<std::uint32_t>(off);
    f.len_ = static_cast<std::uint32_t>(n);
    return f;
  }

  /// Detached mutable copy.
  Bytes clone() const { return to_bytes(view()); }

  /// Number of Frames sharing this block (diagnostics / tests).
  long use_count() const {
    return block_ ? static_cast<long>(block_->refs.load(std::memory_order_relaxed)) : 0;
  }

  friend bool operator==(const Frame& a, const Frame& b) {
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  // Header of the one allocation; the frame's bytes follow it directly.
  struct Block {
    std::atomic<std::uint32_t> refs;
    std::uint32_t size;
    std::uint8_t* bytes() { return reinterpret_cast<std::uint8_t*>(this + 1); }
  };

  void release() {
    // acq_rel on the decrement: the last holder sees every other holder's
    // reads complete before it frees (and TSan can follow it, unlike a
    // separate fence).
    if (block_ != nullptr && block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      const std::size_t bytes = sizeof(Block) + block_->size;
      block_->~Block();
      ::operator delete(block_, bytes);
    }
  }

  Block* block_ = nullptr;
  std::uint32_t off_ = 0;
  std::uint32_t len_ = 0;
};

}  // namespace sttcp::net
