// Contiguous FIFO byte queue: the storage behind SendBuffer and
// ReassemblyBuffer.
//
// One ring buffer addressed from its front; appends and reads copy with
// memcpy (at most two spans each, when the data wraps). Storage is sized to
// fit: it grows by x1.5, rounded up to 512 B and capped at the owner's
// capacity, and is freed the moment the queue empties, so thousands of idle
// connections hold no buffer memory at all.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "net/bytes.h"

namespace sttcp::tcp {

class ByteRing {
 public:
  /// `limit` is the owner's capacity: storage never grows past it unless a
  /// single append needs more.
  explicit ByteRing(std::size_t limit) : limit_(limit) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Append all of `data`.
  void append(net::BytesView data);

  /// The `n` bytes starting `at` bytes past the front, as up to two
  /// contiguous spans (the second is empty unless the range wraps).
  /// Precondition: at + n <= size().
  std::pair<net::BytesView, net::BytesView> spans(std::size_t at, std::size_t n) const;

  /// Copy `n` bytes starting `at` bytes past the front into `dst`.
  void copy_out(std::size_t at, std::uint8_t* dst, std::size_t n) const;

  /// Drop `n` bytes (<= size()) from the front; frees storage when empty.
  void pop_front(std::size_t n);

 private:
  void grow(std::size_t need);

  std::unique_ptr<std::uint8_t[]> buf_;
  std::size_t cap_ = 0;
  std::size_t head_ = 0;  // index of the front byte in buf_
  std::size_t size_ = 0;
  std::size_t limit_;
};

}  // namespace sttcp::tcp
