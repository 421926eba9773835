#include "sttcp/messages.h"

#include <bit>
#include <cstring>
#include <stdexcept>

#include "net/checksum.h"

namespace sttcp::sttcp {

namespace {
constexpr std::uint8_t kHbMagic = 0x48;  // 'H'
// magic(1) + checksum(2): offset of the checksum field within the message.
constexpr std::size_t kHbChecksumOffset = 1;

constexpr std::uint8_t kFlagFin = 0x01;
constexpr std::uint8_t kFlagRst = 0x02;
constexpr std::uint8_t kFlagClosed = 0x04;
constexpr std::uint8_t kFlagAnnounce = 0x08;
constexpr std::uint8_t kFlagEstablished = 0x10;

constexpr std::uint8_t kHdrPingValid = 0x01;
constexpr std::uint8_t kHdrPingOk = 0x02;
constexpr std::uint8_t kHdrAppSuspect = 0x04;
constexpr std::uint8_t kHdrRejoinRequest = 0x08;
constexpr std::uint8_t kHdrRejoinReady = 0x10;
constexpr std::uint8_t kHdrGroup = 0x20;
constexpr std::uint8_t kHdrDecisions = 0x40;

// Unchecked big-endian stores and loads: HbWriter bounds each write against
// its sized region, HbView::parse validates the layout before any load.
template <class T>
T big_endian(T v) {
  if constexpr (std::endian::native == std::endian::big || sizeof(T) == 1) {
    return v;
  } else if constexpr (sizeof(T) == 2) {
    return __builtin_bswap16(v);
  } else if constexpr (sizeof(T) == 4) {
    return __builtin_bswap32(v);
  } else {
    return __builtin_bswap64(v);
  }
}
template <class T>
std::uint8_t* put(std::uint8_t* p, T v) {
  v = big_endian(v);
  std::memcpy(p, &v, sizeof v);
  return p + sizeof v;
}
template <class T>
T get(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  return big_endian(v);
}
std::uint8_t* put16(std::uint8_t* p, std::uint16_t v) { return put(p, v); }
std::uint8_t* put32(std::uint8_t* p, std::uint32_t v) { return put(p, v); }
std::uint8_t* put64(std::uint8_t* p, std::uint64_t v) { return put(p, v); }
std::uint16_t get16(const std::uint8_t* p) { return get<std::uint16_t>(p); }
std::uint32_t get32(const std::uint8_t* p) { return get<std::uint32_t>(p); }
std::uint64_t get64(const std::uint8_t* p) { return get<std::uint64_t>(p); }

// magic(1) checksum(2) role(1) hb_seq(4) flags(1) ... record count(2).
constexpr std::size_t kHbFixedSize = 11;
constexpr std::size_t kRejoinBlockSize = 4;
constexpr std::size_t kViewBlockSize = 6;       // + the member list
constexpr std::size_t kDecisionBlockSize = 10;  // + the records
}  // namespace

const char* to_string(Role r) {
  return r == Role::kPrimary ? "primary" : "backup";
}

std::size_t HbHeader::wire_size(std::size_t decisions, std::size_t record_bytes) const {
  std::size_t size = kHbFixedSize + record_bytes;
  if (rejoin_request || rejoin_ready) size += kRejoinBlockSize;
  if (group_valid) size += kViewBlockSize + view_order.size();
  if (decisions_valid) size += kDecisionBlockSize + decisions * DecisionRecord::kWireSize;
  return size;
}

HbWriter::HbWriter(std::span<std::uint8_t> out, const HbHeader& h, std::size_t decisions)
    : out_(out) {
  std::uint8_t hf = 0;
  if (h.ping_valid) hf |= kHdrPingValid;
  if (h.ping_ok) hf |= kHdrPingOk;
  if (h.app_suspect) hf |= kHdrAppSuspect;
  if (h.rejoin_request) hf |= kHdrRejoinRequest;
  if (h.rejoin_ready) hf |= kHdrRejoinReady;
  if (h.group_valid) hf |= kHdrGroup;
  if (h.decisions_valid) hf |= kHdrDecisions;
  std::uint8_t* p = take(kHbFixedSize - 2);  // the record count comes last
  *p++ = kHbMagic;
  // Internet checksum over the whole beat (field zeroed while summing),
  // patched by finish(). The serial channel has no FCS: without this, a
  // line-noise bit flip in a counter field would parse "successfully" and
  // feed garbage progress counters into failover arbitration.
  p = put16(p, 0);
  *p++ = static_cast<std::uint8_t>(h.role);
  p = put32(p, h.hb_seq);
  *p = hf;
  // The epoch rides only on rejoin-flagged heartbeats, so the steady-state
  // record math ("<20 bytes per connection") is untouched.
  if (h.rejoin_request || h.rejoin_ready) put32(take(kRejoinBlockSize), h.rejoin_epoch);
  // Group-view block: sender member, view epoch, rank-ordered member list.
  // Gated on the flag, so classic pair heartbeats stay byte-identical.
  if (h.group_valid) {
    p = take(kViewBlockSize + h.view_order.size());
    *p++ = h.member;
    p = put32(p, h.view_epoch);
    *p++ = static_cast<std::uint8_t>(h.view_order.size());
    if (!h.view_order.empty()) {
      std::memcpy(p, h.view_order.data(), h.view_order.size());
    }
  }
  // Decision block: cumulative ack + the sender's unacked records. Gated on
  // the flag like the group block, so decision-free pairs pay zero bytes.
  if (h.decisions_valid) {
    p = put64(take(kDecisionBlockSize), h.decision_ack);
    put16(p, static_cast<std::uint16_t>(decisions));
  } else if (decisions != 0) {
    throw std::logic_error("HbWriter: decisions without a decision block");
  }
}

void HbWriter::decision(const DecisionRecord& d) {
  std::uint8_t* p = put64(take(DecisionRecord::kWireSize), d.seq);
  *p++ = d.kind;
  put64(p, d.value);
}

void HbWriter::records(std::size_t count) {
  put16(take(2), static_cast<std::uint16_t>(count));
}

void HbWriter::record(const HbRecord& r) {
  std::uint8_t* p = put16(take(r.wire_size()), r.repl_id);
  std::uint8_t f = 0;
  if (r.fin_generated) f |= kFlagFin;
  if (r.rst_generated) f |= kFlagRst;
  if (r.closed) f |= kFlagClosed;
  if (r.announce) f |= kFlagAnnounce;
  if (r.established) f |= kFlagEstablished;
  *p++ = f;
  p = put32(p, static_cast<std::uint32_t>(r.bytes_received));
  p = put32(p, static_cast<std::uint32_t>(r.acked_by_peer));
  p = put32(p, static_cast<std::uint32_t>(r.app_written));
  p = put32(p, static_cast<std::uint32_t>(r.app_read));
  if (r.announce) {
    p = put32(p, r.client_ip.value());
    p = put16(p, r.client_port);
    p = put16(p, r.local_port);
    p = put32(p, r.iss);
    put32(p, r.irs);
  }
}

void HbWriter::finish() {
  if (pos_ != out_.size()) throw std::logic_error("HbWriter: beat shorter than its region");
  // Summed from the checksum field onward so the field sits word-aligned in
  // the summed region (at its natural offset 1 it would straddle two 16-bit
  // words and the complement trick would not cancel). The magic byte is
  // excluded but checked by value on parse.
  put16(out_.data() + kHbChecksumOffset,
        net::internet_checksum(net::BytesView(out_).subspan(kHbChecksumOffset)));
}

std::uint8_t* HbWriter::take(std::size_t n) {
  if (n > out_.size() - pos_) throw std::logic_error("HbWriter: beat overruns its region");
  std::uint8_t* p = out_.data() + pos_;
  pos_ += n;
  return p;
}

DecisionRecord HbDecisions::iterator::operator*() const {
  DecisionRecord d;
  d.seq = get64(p_);
  d.kind = p_[8];
  d.value = get64(p_ + 9);
  return d;
}

HbRecord HbRecords::iterator::operator*() const {
  HbRecord rec;
  rec.repl_id = get16(p_);
  const std::uint8_t f = p_[2];
  rec.fin_generated = (f & kFlagFin) != 0;
  rec.rst_generated = (f & kFlagRst) != 0;
  rec.closed = (f & kFlagClosed) != 0;
  rec.announce = (f & kFlagAnnounce) != 0;
  rec.established = (f & kFlagEstablished) != 0;
  rec.bytes_received = get32(p_ + 3);
  rec.acked_by_peer = get32(p_ + 7);
  rec.app_written = get32(p_ + 11);
  rec.app_read = get32(p_ + 15);
  if (rec.announce) {
    rec.client_ip = net::Ipv4Addr(get32(p_ + 19));
    rec.client_port = get16(p_ + 23);
    rec.local_port = get16(p_ + 25);
    rec.iss = get32(p_ + 27);
    rec.irs = get32(p_ + 31);
  }
  return rec;
}

HbRecords::iterator& HbRecords::iterator::operator++() {
  p_ += (p_[2] & kFlagAnnounce) != 0 ? HbRecord::kAnnounceWireSize : HbRecord::kWireSize;
  return *this;
}

std::optional<HbView> HbView::parse(net::BytesView data) {
  if (data.empty() || data[0] != kHbMagic) return std::nullopt;
  // A valid beat checksums to zero from the field onward (the stored field
  // complements the rest). Rejects bit flips AND truncations.
  if (net::internet_checksum(data.subspan(kHbChecksumOffset)) != 0) return std::nullopt;
  const std::uint8_t* p = data.data();
  const std::uint8_t* const end = p + data.size();
  // Bytes left from p on; every block is bounds-checked before it is read.
  const auto left = [&p, end] { return static_cast<std::size_t>(end - p); };
  if (left() < kHbFixedSize - 2) return std::nullopt;
  HbView v;
  HbHeader& h = v.header;
  if (p[3] > static_cast<std::uint8_t>(Role::kBackup)) return std::nullopt;
  h.role = static_cast<Role>(p[3]);
  h.hb_seq = get32(p + 4);
  const std::uint8_t hf = p[8];
  p += kHbFixedSize - 2;
  h.ping_valid = (hf & kHdrPingValid) != 0;
  h.ping_ok = (hf & kHdrPingOk) != 0;
  h.app_suspect = (hf & kHdrAppSuspect) != 0;
  h.rejoin_request = (hf & kHdrRejoinRequest) != 0;
  h.rejoin_ready = (hf & kHdrRejoinReady) != 0;
  h.group_valid = (hf & kHdrGroup) != 0;
  h.decisions_valid = (hf & kHdrDecisions) != 0;
  if (h.rejoin_request || h.rejoin_ready) {
    if (left() < kRejoinBlockSize) return std::nullopt;
    h.rejoin_epoch = get32(p);
    p += kRejoinBlockSize;
  }
  if (h.group_valid) {
    if (left() < kViewBlockSize) return std::nullopt;
    h.member = p[0];
    h.view_epoch = get32(p + 1);
    const std::size_t n = p[5];
    p += kViewBlockSize;
    if (left() < n) return std::nullopt;
    h.view_order = std::span<const std::uint8_t>(p, n);
    p += n;
  }
  if (h.decisions_valid) {
    if (left() < kDecisionBlockSize) return std::nullopt;
    h.decision_ack = get64(p);
    const std::size_t bytes = std::size_t{get16(p + 8)} * DecisionRecord::kWireSize;
    p += kDecisionBlockSize;
    if (left() < bytes) return std::nullopt;
    v.decisions = HbDecisions(net::BytesView(p, bytes));
    p += bytes;
  }
  if (left() < 2) return std::nullopt;
  const std::size_t count = get16(p);
  p += 2;
  // An impossible record count fails here, before any record is touched:
  // each record is at least 19 wire bytes.
  if (count * HbRecord::kWireSize > left()) return std::nullopt;
  const std::uint8_t* const records = p;
  for (std::size_t i = 0; i < count; ++i) {
    if (left() < HbRecord::kWireSize) return std::nullopt;
    const std::size_t size = (p[2] & kFlagAnnounce) != 0 ? HbRecord::kAnnounceWireSize
                                                          : HbRecord::kWireSize;
    if (left() < size) return std::nullopt;
    p += size;
  }
  v.records = HbRecords(net::BytesView(records, p), count);
  return v;
}

std::uint64_t unwrap_counter(std::uint32_t wire_value, std::uint64_t previous) {
  const std::uint32_t prev_low = static_cast<std::uint32_t>(previous);
  const std::int32_t delta = static_cast<std::int32_t>(wire_value - prev_low);
  if (delta < 0) {
    // Counters never regress; a small negative delta is a stale heartbeat.
    return previous;
  }
  return previous + static_cast<std::uint64_t>(delta);
}

net::Bytes MissedBytesRequest::serialize() const {
  net::Bytes out;
  net::ByteWriter w(out);
  w.reserve(15);
  w.u8(static_cast<std::uint8_t>(ControlType::kMissedBytesRequest));
  w.u16(repl_id);
  w.u64(offset);
  w.u32(length);
  return out;
}

net::Bytes MissedBytesReply::serialize() const {
  net::Bytes out;
  out.reserve(15 + data.size());
  net::ByteWriter w(out);
  w.u8(static_cast<std::uint8_t>(ControlType::kMissedBytesReply));
  w.u16(repl_id);
  w.u64(offset);
  w.u32(static_cast<std::uint32_t>(data.size()));
  w.bytes(data);
  return out;
}

net::Bytes PromoteRequest::serialize() const {
  net::Bytes out;
  net::ByteWriter w(out);
  w.reserve(6);
  w.u8(static_cast<std::uint8_t>(ControlType::kPromoteRequest));
  w.u32(epoch);
  w.u8(candidate);
  return out;
}

net::Bytes PromoteAck::serialize() const {
  net::Bytes out;
  net::ByteWriter w(out);
  w.reserve(8);
  w.u8(static_cast<std::uint8_t>(ControlType::kPromoteAck));
  w.u32(epoch);
  w.u8(candidate);
  w.u8(voter);
  w.u8(granted ? 1 : 0);
  return out;
}

net::Bytes ViewAnnounce::serialize() const {
  net::Bytes out;
  net::ByteWriter w(out);
  w.reserve(6 + order.size());
  w.u8(static_cast<std::uint8_t>(ControlType::kViewAnnounce));
  w.u32(epoch);
  w.u8(static_cast<std::uint8_t>(order.size()));
  for (const std::uint8_t m : order) w.u8(m);
  return out;
}

std::optional<ControlMsg> ControlMsg::parse(net::BytesView data) {
  try {
    net::ByteReader r(data);
    ControlMsg m{};
    const std::uint8_t t = r.u8();
    if (t == static_cast<std::uint8_t>(ControlType::kMissedBytesRequest)) {
      m.type = ControlType::kMissedBytesRequest;
      m.request.repl_id = r.u16();
      m.request.offset = r.u64();
      m.request.length = r.u32();
      return m;
    }
    if (t == static_cast<std::uint8_t>(ControlType::kMissedBytesReply)) {
      m.type = ControlType::kMissedBytesReply;
      m.reply.repl_id = r.u16();
      m.reply.offset = r.u64();
      const std::uint32_t len = r.u32();
      m.reply.data = net::to_bytes(r.bytes(len));
      return m;
    }
    if (t == static_cast<std::uint8_t>(ControlType::kPromoteRequest)) {
      m.type = ControlType::kPromoteRequest;
      m.promote_request.epoch = r.u32();
      m.promote_request.candidate = r.u8();
      return m;
    }
    if (t == static_cast<std::uint8_t>(ControlType::kPromoteAck)) {
      m.type = ControlType::kPromoteAck;
      m.promote_ack.epoch = r.u32();
      m.promote_ack.candidate = r.u8();
      m.promote_ack.voter = r.u8();
      m.promote_ack.granted = r.u8() != 0;
      return m;
    }
    if (t == static_cast<std::uint8_t>(ControlType::kViewAnnounce)) {
      m.type = ControlType::kViewAnnounce;
      m.view_announce.epoch = r.u32();
      const std::uint8_t n = r.u8();
      if (n > r.remaining()) return std::nullopt;
      m.view_announce.order.reserve(n);
      for (std::uint8_t i = 0; i < n; ++i) m.view_announce.order.push_back(r.u8());
      return m;
    }
    return std::nullopt;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace sttcp::sttcp
