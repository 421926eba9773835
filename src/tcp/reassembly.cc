#include "tcp/reassembly.h"

#include <algorithm>

namespace sttcp::tcp {

std::size_t ReassemblyBuffer::ooo_bytes() const {
  std::size_t n = 0;
  for (const auto& [off, frag] : ooo_) n += frag.size();
  return n;
}

std::size_t ReassemblyBuffer::window() const {
  const std::size_t used = ready_.size() + ooo_bytes();
  return used >= capacity_ ? 0 : capacity_ - used;
}

std::size_t ReassemblyBuffer::insert(std::uint64_t at, net::BytesView data) {
  if (data.empty()) return 0;
  const std::uint64_t win_end = next_ + window();
  std::uint64_t start = at;
  std::uint64_t end = at + data.size();

  // Clip to [next_, win_end): duplicates below next_ and bytes beyond the
  // window are discarded (the sender will retransmit the latter).
  if (start < next_) start = next_;
  if (end > win_end) end = win_end;
  if (start >= end) return 0;
  data = data.subspan(static_cast<std::size_t>(start - at),
                      static_cast<std::size_t>(end - start));

  if (start == next_) {
    // In-order: append directly, then drain any now-contiguous fragments.
    deliver(next_, data);
    next_ += data.size();
    std::size_t delivered = data.size();
    while (!ooo_.empty()) {
      auto it = ooo_.begin();
      const std::uint64_t frag_start = it->first;
      const std::uint64_t frag_end = frag_start + it->second.size();
      if (frag_start > next_) break;
      if (frag_end > next_) {
        const std::size_t skip = static_cast<std::size_t>(next_ - frag_start);
        deliver(next_, net::BytesView(it->second).subspan(skip));
        delivered += it->second.size() - skip;
        next_ = frag_end;
      }
      ooo_.erase(it);
    }
    return delivered;
  }

  // Out of order: store, trimming overlap with existing fragments.
  // Find the fragment at or before `start` to trim the front.
  auto after = ooo_.lower_bound(start);
  if (after != ooo_.begin()) {
    auto prev = std::prev(after);
    const std::uint64_t prev_end = prev->first + prev->second.size();
    if (prev_end > start) {
      if (prev_end >= end) return 0;  // fully covered
      data = data.subspan(static_cast<std::size_t>(prev_end - start));
      start = prev_end;
    }
  }
  // Trim or absorb fragments that begin inside [start, end).
  net::Bytes frag(data.begin(), data.end());
  while (after != ooo_.end() && after->first < end) {
    const std::uint64_t next_start = after->first;
    const std::uint64_t next_end = next_start + after->second.size();
    if (next_end <= end) {
      // Existing fragment fully covered by the new one: drop it.
      after = ooo_.erase(after);
      continue;
    }
    // Partial overlap: keep only our non-overlapping prefix.
    frag.resize(static_cast<std::size_t>(next_start - start));
    break;
  }
  if (!frag.empty()) ooo_.emplace(start, std::move(frag));
  return 0;
}

}  // namespace sttcp::tcp
