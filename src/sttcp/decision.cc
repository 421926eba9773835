#include "sttcp/decision.h"

namespace sttcp::sttcp {

const char* to_string(DecisionKind k) {
  switch (k) {
    case DecisionKind::kSession: return "session";
    case DecisionKind::kTime: return "time";
    case DecisionKind::kOrder: return "order";
    case DecisionKind::kEvict: return "evict";
    case DecisionKind::kFlush: return "flush";
  }
  return "?";
}

std::uint64_t DecisionLog::append(DecisionKind kind, std::uint64_t value) {
  DecisionRecord rec;
  rec.seq = next_seq_++;
  rec.kind = static_cast<std::uint8_t>(kind);
  rec.value = value;
  ++stats_.appended;
  if (!standalone_ || retain_) unacked_.push_back(rec);
  if (standalone_ && commit_hook_) commit_hook_();
  return value;
}

void DecisionLog::set_standalone(bool standalone, bool retain) {
  const bool commit_advanced = standalone && !standalone_;
  standalone_ = standalone;
  retain_ = retain;
  if (standalone_ && !retain_) unacked_.clear();
  if (commit_advanced && commit_hook_) commit_hook_();
}

void DecisionLog::on_peer_ack(std::uint64_t cum) {
  if (cum <= peer_acked_) return;
  peer_acked_ = cum;
  while (!unacked_.empty() && unacked_.front().seq <= cum) unacked_.pop_front();
  if (commit_hook_) commit_hook_();
}

void DecisionLog::ingest_one(const DecisionRecord& r) {
  if (r.seq < next_consume_ + queue_.size()) {
    // Below the cursor: consumed already, restored via checkpoint, or a
    // heartbeat-retransmitted copy of a queued record.
    ++(r.seq >= next_consume_ ? stats_.duplicates : stats_.stale);
    return;
  }
  if (r.seq == next_consume_ + queue_.size()) {
    queue_.push_back(r);
    ++stats_.ingested;
    // The hole this record filled may unpark successors.
    auto it = parked_.find(r.seq + 1);
    while (it != parked_.end()) {
      queue_.push_back(it->second);
      parked_.erase(it);
      it = parked_.find(queue_.back().seq + 1);
    }
  } else if (parked_.emplace(r.seq, r).second) {
    ++stats_.ingested;
  } else {
    ++stats_.duplicates;
  }
  if (r.seq > max_seen_) max_seen_ = r.seq;
}

bool DecisionLog::ingest_done(std::uint64_t before) {
  advance_rx_cursor();
  const bool advanced = rx_cursor_ > before;
  if (advanced && ingest_hook_) ingest_hook_();
  return advanced;
}

void DecisionLog::advance_rx_cursor() {
  const std::uint64_t contiguous = next_consume_ + queue_.size() - 1;
  if (contiguous > rx_cursor_) rx_cursor_ = contiguous;
}

const DecisionRecord* DecisionLog::peek() const {
  return queue_.empty() ? nullptr : &queue_.front();
}

const DecisionRecord* DecisionLog::peek_ahead(std::size_t offset) const {
  return offset < queue_.size() ? &queue_[offset] : nullptr;
}

bool DecisionLog::try_take(DecisionKind kind, std::uint64_t* value) {
  if (queue_.empty() ||
      queue_.front().kind != static_cast<std::uint8_t>(kind)) {
    return false;
  }
  if (value != nullptr) *value = queue_.front().value;
  next_consume_ = queue_.front().seq + 1;
  queue_.pop_front();
  ++stats_.replayed;
  return true;
}

void DecisionLog::promote() {
  if (mode_ == Mode::kRecord) return;
  mode_ = Mode::kRecord;
  // queue_ is the contiguous prefix by construction; parked_ records sit
  // past a gap the cumulative ack never covered, so no response depending
  // on them ever left the dead primary — fresh choices are safe.
  stats_.promote_kept += queue_.size();
  stats_.promote_dropped += parked_.size();
  parked_.clear();
  // Number fresh decisions above everything ever seen: a rejoiner that later
  // restores from our checkpoint must never see a seq reused with a
  // different value.
  next_seq_ = std::max(max_seen_, next_consume_ + queue_.size() - 1) + 1;
  peer_acked_ = 0;
  standalone_ = true;
  retain_ = false;
  unacked_.clear();
  if (promote_hook_) promote_hook_();
  if (commit_hook_) commit_hook_();
}

void DecisionLog::reset(Mode mode) {
  mode_ = mode;
  next_seq_ = 1;
  peer_acked_ = 0;
  standalone_ = false;
  retain_ = true;
  unacked_.clear();
  queue_.clear();
  parked_.clear();
  rx_cursor_ = 0;
  next_consume_ = 1;
  max_seen_ = 0;
}

net::Bytes DecisionLog::serialize() const {
  net::Bytes out;
  net::ByteWriter w(out);
  w.u64(next_seq_);
  return out;
}

bool DecisionLog::restore(net::BytesView data) {
  try {
    net::ByteReader r(data);
    const std::uint64_t next = r.u64();
    // The checkpoint folds every decision below `next` into the application
    // state it travels with; replay resumes exactly there.
    queue_.clear();
    parked_.clear();
    next_consume_ = next;
    rx_cursor_ = next - 1;
    max_seen_ = next - 1;
    next_seq_ = next;
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace sttcp::sttcp
