// Bounds-checked big-endian byte serialization helpers used by all codecs.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

namespace sttcp::net {

/// Raw byte buffer flowing through the simulated network.
using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Writes big-endian fields at a cursor, into one of two targets:
///  - a Bytes buffer: by default at its end (appending), or from a given
///    offset, overwriting what is there; writes past the end grow it;
///  - a fixed region (a frame being built in place, net/frame.h): the
///    region never grows, and a write past its end throws
///    std::out_of_range.
class ByteWriter {
 public:
  explicit ByteWriter(Bytes& out) : vec_(&out), pos_(out.size()) {}
  ByteWriter(Bytes& out, std::size_t at) : vec_(&out), pos_(at) {}
  explicit ByteWriter(std::span<std::uint8_t> region) : fixed_(region) {}

  /// Pre-size a Bytes target for `n` more bytes (one allocation up front).
  void reserve(std::size_t n) {
    if (vec_ != nullptr) vec_->reserve(pos_ + n);
  }

  void u8(std::uint8_t v) { *put(1) = v; }
  void u16(std::uint16_t v) {
    std::uint8_t* p = put(2);
    p[0] = static_cast<std::uint8_t>(v >> 8);
    p[1] = static_cast<std::uint8_t>(v);
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void bytes(BytesView b) {
    if (vec_ != nullptr && pos_ == vec_->size()) {  // appending: one pass, no zero-fill
      vec_->insert(vec_->end(), b.begin(), b.end());
      pos_ += b.size();
    } else if (!b.empty()) {
      std::memcpy(put(b.size()), b.data(), b.size());
    }
  }

  /// Absolute offset of the cursor.
  std::size_t size() const { return pos_; }
  /// Patch a previously-written 16-bit field at absolute offset `at`.
  void patch_u16(std::size_t at, std::uint16_t v) {
    std::uint8_t* p = existing(at, 2);
    p[0] = static_cast<std::uint8_t>(v >> 8);
    p[1] = static_cast<std::uint8_t>(v);
  }

 private:
  std::uint8_t* put(std::size_t n) {
    if (vec_ != nullptr && pos_ + n > vec_->size()) vec_->resize(pos_ + n);
    std::uint8_t* p = existing(pos_, n);
    pos_ += n;
    return p;
  }
  /// Bytes [at, at + n) of the target, which must already exist.
  std::uint8_t* existing(std::size_t at, std::size_t n) {
    const std::span<std::uint8_t> all = vec_ != nullptr ? std::span<std::uint8_t>(*vec_) : fixed_;
    if (at + n > all.size()) throw std::out_of_range("ByteWriter: write past the end");
    return all.data() + at;
  }

  Bytes* vec_ = nullptr;
  std::span<std::uint8_t> fixed_;
  std::size_t pos_ = 0;
};

/// Consumes big-endian fields from a view. Throws std::out_of_range on
/// underrun — in this simulator a short packet is a codec bug, not a
/// recoverable condition.
class ByteReader {
 public:
  explicit ByteReader(BytesView in) : in_(in) {}

  std::uint8_t u8() {
    need(1);
    return in_[pos_++];
  }
  std::uint16_t u16() {
    need(2);
    std::uint16_t v = (std::uint16_t{in_[pos_]} << 8) | in_[pos_ + 1];
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t hi = u16();
    return (hi << 16) | u16();
  }
  std::uint64_t u64() {
    std::uint64_t hi = u32();
    return (hi << 32) | u32();
  }
  BytesView bytes(std::size_t n) {
    need(n);
    BytesView v = in_.subspan(pos_, n);
    pos_ += n;
    return v;
  }
  BytesView rest() { return bytes(remaining()); }
  void skip(std::size_t n) { (void)bytes(n); }

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return in_.size() - pos_; }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > in_.size()) {
      throw std::out_of_range("ByteReader: truncated buffer");
    }
  }
  BytesView in_;
  std::size_t pos_ = 0;
};

inline Bytes to_bytes(BytesView v) { return Bytes(v.begin(), v.end()); }
inline Bytes to_bytes(const char* s) {
  return Bytes(reinterpret_cast<const std::uint8_t*>(s),
               reinterpret_cast<const std::uint8_t*>(s) + std::strlen(s));
}

}  // namespace sttcp::net
