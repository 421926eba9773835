// Send-side byte buffer: holds bytes from snd_una (oldest unacknowledged)
// through the newest byte the application has written. Addressed by
// absolute stream offset (byte 0 = first payload byte after the SYN).
//
// The bytes live in one contiguous ring (tcp/byte_ring.h) that is sized to
// fit and freed when everything is acknowledged. Transmission reads them in
// place through spans(): the stack copies a segment's payload straight into
// its frame buffer, with no intermediate slice.
#pragma once

#include <cstdint>
#include <utility>

#include "net/bytes.h"
#include "tcp/byte_ring.h"

namespace sttcp::tcp {

class SendBuffer {
 public:
  explicit SendBuffer(std::size_t capacity) : capacity_(capacity), data_(capacity) {}

  /// Append as much of `data` as fits; returns bytes accepted.
  std::size_t append(net::BytesView data);

  /// Acknowledge everything below absolute payload offset `upto`.
  /// Returns bytes released.
  std::size_t ack_to(std::uint64_t upto);

  /// Up to `len` bytes starting at absolute offset `from`, as one or two
  /// spans into the buffer (two when the range wraps the ring). Empty when
  /// `from` is outside [una_offset, end_offset). Valid until the next
  /// append or ack_to.
  std::pair<net::BytesView, net::BytesView> spans(std::uint64_t from,
                                                  std::size_t len) const;

  /// Copy out up to `len` bytes starting at absolute offset `from` (must be
  /// within [una_offset, end_offset)).
  net::Bytes slice(std::uint64_t from, std::size_t len) const;

  /// Oldest unacknowledged payload offset.
  std::uint64_t una_offset() const { return una_; }
  /// One past the newest byte written by the application.
  std::uint64_t end_offset() const { return una_ + data_.size(); }

  /// Re-base an empty buffer so the oldest unacknowledged offset is `offset`
  /// (mid-stream replica adoption: the snapshot's acked prefix is not
  /// re-buffered). Only valid while the buffer holds no data.
  void reset_to(std::uint64_t offset) {
    if (!data_.empty()) return;
    una_ = offset;
  }

  std::size_t size() const { return data_.size(); }
  std::size_t free_space() const { return capacity_ - data_.size(); }
  bool empty() const { return data_.empty(); }
  std::size_t capacity() const { return capacity_; }

 private:
  std::size_t capacity_;
  std::uint64_t una_ = 0;  // absolute offset of the ring's front byte
  ByteRing data_;          // bytes [una_, una_ + size)
};

}  // namespace sttcp::tcp
