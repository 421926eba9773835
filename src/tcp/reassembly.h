// Receive-side reassembly buffer.
//
// Tracks the next expected absolute payload offset, holds out-of-order
// fragments, and exposes an in-order byte queue to the application. The
// advertised receive window is derived from the free capacity. The in-order
// queue is one contiguous ring (tcp/byte_ring.h), sized to fit and freed
// whenever the application has read everything. The application reads it in
// place through consume(): no copy out, no buffer per read.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>

#include "net/bytes.h"
#include "tcp/byte_ring.h"

namespace sttcp::tcp {

class ReassemblyBuffer {
 public:
  explicit ReassemblyBuffer(std::size_t capacity) : capacity_(capacity), ready_(capacity) {}

  /// Offer payload starting at absolute offset `at`. Bytes outside
  /// [next_expected, next_expected + window) are clipped. Returns the number
  /// of *new in-order* bytes that became readable as a result.
  std::size_t insert(std::uint64_t at, net::BytesView data);

  /// Application recv(), in place: hand up to `max` in-order bytes to
  /// `fn(net::BytesView)` as at most two spans (two when the ring wraps), in
  /// stream order, then drop them. Returns the bytes consumed. The spans are
  /// valid only during the call.
  template <class Fn>
  std::size_t consume(std::size_t max, Fn&& fn) {
    const std::size_t n = std::min(max, ready_.size());
    if (n == 0) return 0;
    const auto [first, second] = ready_.spans(0, n);
    fn(first);
    if (!second.empty()) fn(second);
    ready_.pop_front(n);
    return n;
  }

  /// Copy the in-order readable bytes without consuming them. A connection
  /// snapshot (ST-TCP reintegration) ships these to the rejoining replica so
  /// its buffer matches ours byte for byte.
  net::Bytes peek() const {
    net::Bytes out(ready_.size());
    ready_.copy_out(0, out.data(), out.size());
    return out;
  }

  /// Re-base an empty buffer so the next expected absolute offset is
  /// `offset`: a replica adopted mid-stream starts counting where the
  /// snapshot left off instead of at zero. Only valid while nothing is
  /// buffered.
  void reset_to(std::uint64_t offset) {
    if (!ready_.empty() || !ooo_.empty()) return;
    next_ = offset;
  }

  /// Bytes available for the application right now.
  std::size_t readable() const { return ready_.size(); }

  /// Next absolute payload offset we expect from the wire (== total in-order
  /// bytes received since the start of the stream).
  std::uint64_t next_expected() const { return next_; }

  /// Current advertised window: capacity minus everything buffered.
  std::size_t window() const;

  /// True if there is buffered data beyond a gap (a hole exists). ST-TCP's
  /// backup uses this as one trigger for missed-byte recovery.
  bool has_gap() const { return !ooo_.empty(); }
  /// Absolute offset of the first missing byte when a gap exists.
  std::uint64_t gap_start() const { return next_; }
  /// Absolute offset where buffered out-of-order data begins (gap end).
  std::uint64_t gap_end() const { return ooo_.empty() ? next_ : ooo_.begin()->first; }

  std::size_t capacity() const { return capacity_; }

  /// Total payload currently buffered: in-order unread + out-of-order
  /// fragments. Feeds the per-connection memory audit under churn.
  std::size_t buffered_bytes() const { return ready_.size() + ooo_bytes(); }

  /// Observe every byte the moment it becomes in-order readable
  /// (absolute offset of the first byte + the data). ST-TCP's primary feeds
  /// its hold buffer from this tap.
  using DeliverTap = std::function<void(std::uint64_t offset, net::BytesView data)>;
  void set_deliver_tap(DeliverTap tap) { deliver_tap_ = std::move(tap); }

 private:
  void deliver(std::uint64_t offset, net::BytesView data) {
    if (deliver_tap_) deliver_tap_(offset, data);
    ready_.append(data);
  }

  std::size_t ooo_bytes() const;

  std::size_t capacity_;
  std::uint64_t next_ = 0;                       // next expected absolute offset
  ByteRing ready_;                               // in-order, unread bytes
  std::map<std::uint64_t, net::Bytes> ooo_;      // offset -> fragment (disjoint)
  DeliverTap deliver_tap_;
};

}  // namespace sttcp::tcp
