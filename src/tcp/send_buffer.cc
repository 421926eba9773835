#include "tcp/send_buffer.h"

#include <algorithm>

namespace sttcp::tcp {

std::size_t SendBuffer::append(net::BytesView data) {
  const std::size_t n = std::min(data.size(), free_space());
  data_.append(data.first(n));
  return n;
}

std::size_t SendBuffer::ack_to(std::uint64_t upto) {
  if (upto <= una_) return 0;
  const std::size_t n =
      std::min(static_cast<std::size_t>(upto - una_), data_.size());
  data_.pop_front(n);
  una_ += n;
  return n;
}

std::pair<net::BytesView, net::BytesView> SendBuffer::spans(std::uint64_t from,
                                                            std::size_t len) const {
  if (from < una_ || from >= end_offset()) return {};
  const std::size_t start = static_cast<std::size_t>(from - una_);
  return data_.spans(start, std::min(len, data_.size() - start));
}

net::Bytes SendBuffer::slice(std::uint64_t from, std::size_t len) const {
  const auto [a, b] = spans(from, len);
  net::Bytes out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

}  // namespace sttcp::tcp
