#include "tcp/byte_ring.h"

#include <algorithm>
#include <cstring>

namespace sttcp::tcp {

void ByteRing::append(net::BytesView data) {
  if (data.empty()) return;
  if (size_ + data.size() > cap_) grow(size_ + data.size());
  std::size_t tail = head_ + size_;
  if (tail >= cap_) tail -= cap_;
  const std::size_t first = std::min(data.size(), cap_ - tail);
  std::memcpy(buf_.get() + tail, data.data(), first);
  std::memcpy(buf_.get(), data.data() + first, data.size() - first);
  size_ += data.size();
}

std::pair<net::BytesView, net::BytesView> ByteRing::spans(std::size_t at,
                                                          std::size_t n) const {
  if (n == 0) return {};
  std::size_t start = head_ + at;
  if (start >= cap_) start -= cap_;
  const std::size_t first = std::min(n, cap_ - start);
  return {net::BytesView(buf_.get() + start, first),
          net::BytesView(buf_.get(), n - first)};
}

void ByteRing::copy_out(std::size_t at, std::uint8_t* dst, std::size_t n) const {
  if (n == 0) return;
  const auto [a, b] = spans(at, n);
  std::memcpy(dst, a.data(), a.size());
  std::memcpy(dst + a.size(), b.data(), b.size());
}

void ByteRing::pop_front(std::size_t n) {
  size_ -= n;
  if (size_ == 0) {
    buf_.reset();
    cap_ = 0;
    head_ = 0;
    return;
  }
  head_ += n;
  if (head_ >= cap_) head_ -= cap_;
}

void ByteRing::grow(std::size_t need) {
  constexpr std::size_t kRound = 512;
  std::size_t cap = std::max(need, cap_ + cap_ / 2);
  cap = (cap + kRound - 1) / kRound * kRound;
  cap = std::max(need, std::min(cap, limit_));
  auto buf = std::make_unique_for_overwrite<std::uint8_t[]>(cap);
  copy_out(0, buf.get(), size_);
  buf_ = std::move(buf);
  cap_ = cap;
  head_ = 0;
}

}  // namespace sttcp::tcp
