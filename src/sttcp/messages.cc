#include "sttcp/messages.h"

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
}  // namespace

const char* to_string(Role r) {
  return r == Role::kPrimary ? "primary" : "backup";
}

net::Bytes HeartbeatMsg::serialize() const {
  // Exact wire size, so the message is written into one allocation.
  std::size_t size = 11;
  if (rejoin_request || rejoin_ready) size += 4;
  if (group_valid) size += 6 + view_order.size();
  if (decisions_valid) size += 10 + decisions.size() * 17;
  for (const HbRecord& r : records) size += r.wire_size();
  net::Bytes out;
  out.reserve(size);
  net::ByteWriter w(out);
  w.u8(kHbMagic);
  // Internet checksum over the whole message (field zeroed while summing),
  // patched below. The serial channel has no FCS: without this, a line-noise
  // bit flip in a counter field would parse "successfully" and feed garbage
  // progress counters into failover arbitration.
  w.u16(0);
  w.u8(static_cast<std::uint8_t>(role));
  w.u32(hb_seq);
  std::uint8_t hf = 0;
  if (ping_valid) hf |= kHdrPingValid;
  if (ping_ok) hf |= kHdrPingOk;
  if (app_suspect) hf |= kHdrAppSuspect;
  if (rejoin_request) hf |= kHdrRejoinRequest;
  if (rejoin_ready) hf |= kHdrRejoinReady;
  if (group_valid) hf |= kHdrGroup;
  if (decisions_valid) hf |= kHdrDecisions;
  w.u8(hf);
  // The epoch rides only on rejoin-flagged heartbeats, so the steady-state
  // record math ("<20 bytes per connection") is untouched.
  if (rejoin_request || rejoin_ready) w.u32(rejoin_epoch);
  // Group-view block: sender member, view epoch, rank-ordered member list.
  // Gated on the flag, so classic pair heartbeats stay byte-identical.
  if (group_valid) {
    w.u8(member);
    w.u32(view_epoch);
    w.u8(static_cast<std::uint8_t>(view_order.size()));
    for (const std::uint8_t m : view_order) w.u8(m);
  }
  // Decision block: cumulative ack + the sender's unacked records. Gated on
  // the flag like the group block, so decision-free pairs pay zero bytes.
  if (decisions_valid) {
    w.u64(decision_ack);
    w.u16(static_cast<std::uint16_t>(decisions.size()));
    for (const DecisionRecord& d : decisions) {
      w.u64(d.seq);
      w.u8(d.kind);
      w.u64(d.value);
    }
  }
  w.u16(static_cast<std::uint16_t>(records.size()));
  for (const HbRecord& r : records) {
    w.u16(r.repl_id);
    std::uint8_t f = 0;
    if (r.fin_generated) f |= kFlagFin;
    if (r.rst_generated) f |= kFlagRst;
    if (r.closed) f |= kFlagClosed;
    if (r.announce) f |= kFlagAnnounce;
    if (r.established) f |= kFlagEstablished;
    w.u8(f);
    w.u32(static_cast<std::uint32_t>(r.bytes_received));
    w.u32(static_cast<std::uint32_t>(r.acked_by_peer));
    w.u32(static_cast<std::uint32_t>(r.app_written));
    w.u32(static_cast<std::uint32_t>(r.app_read));
    if (r.announce) {
      w.u32(r.client_ip.value());
      w.u16(r.client_port);
      w.u16(r.local_port);
      w.u32(r.iss);
      w.u32(r.irs);
    }
  }
  // Summed from the checksum field onward so the field sits word-aligned in
  // the summed region (at its natural offset 1 it would straddle two 16-bit
  // words and the complement trick would not cancel). The magic byte is
  // excluded but checked by value on parse.
  const std::uint16_t c = net::internet_checksum(
      net::BytesView(out).subspan(kHbChecksumOffset));
  out[kHbChecksumOffset] = static_cast<std::uint8_t>(c >> 8);
  out[kHbChecksumOffset + 1] = static_cast<std::uint8_t>(c);
  return out;
}

std::optional<HeartbeatMsg> HeartbeatMsg::parse(net::BytesView data) {
  try {
    net::ByteReader r(data);
    if (r.u8() != kHbMagic) return std::nullopt;
    // A valid message checksums to zero from the field onward (the stored
    // field complements the rest). Rejects bit flips AND truncations.
    if (net::internet_checksum(data.subspan(kHbChecksumOffset)) != 0) {
      return std::nullopt;
    }
    HeartbeatMsg m;
    r.u16();  // checksum, verified above
    const std::uint8_t role_byte = r.u8();
    if (role_byte > static_cast<std::uint8_t>(Role::kBackup)) return std::nullopt;
    m.role = static_cast<Role>(role_byte);
    m.hb_seq = r.u32();
    const std::uint8_t hf = r.u8();
    m.ping_valid = (hf & kHdrPingValid) != 0;
    m.ping_ok = (hf & kHdrPingOk) != 0;
    m.app_suspect = (hf & kHdrAppSuspect) != 0;
    m.rejoin_request = (hf & kHdrRejoinRequest) != 0;
    m.rejoin_ready = (hf & kHdrRejoinReady) != 0;
    m.group_valid = (hf & kHdrGroup) != 0;
    m.decisions_valid = (hf & kHdrDecisions) != 0;
    if (m.rejoin_request || m.rejoin_ready) m.rejoin_epoch = r.u32();
    if (m.group_valid) {
      m.member = r.u8();
      m.view_epoch = r.u32();
      const std::uint8_t n = r.u8();
      if (n > r.remaining()) return std::nullopt;
      m.view_order.reserve(n);
      for (std::uint8_t i = 0; i < n; ++i) m.view_order.push_back(r.u8());
    }
    if (m.decisions_valid) {
      m.decision_ack = r.u64();
      const std::uint16_t dn = r.u16();
      if (static_cast<std::size_t>(dn) * DecisionRecord::kWireSize >
          r.remaining()) {
        return std::nullopt;
      }
      m.decisions.reserve(dn);
      for (std::uint16_t i = 0; i < dn; ++i) {
        DecisionRecord d;
        d.seq = r.u64();
        d.kind = r.u8();
        d.value = r.u64();
        m.decisions.push_back(d);
      }
    }
    const std::uint16_t count = r.u16();
    // Reject an impossible record count before reserving for it: each record
    // is at least 19 wire bytes, so count is bounded by what is left.
    if (static_cast<std::size_t>(count) * 19 > r.remaining()) return std::nullopt;
    m.records.reserve(count);
    for (std::uint16_t i = 0; i < count; ++i) {
      HbRecord rec;
      rec.repl_id = r.u16();
      const std::uint8_t f = r.u8();
      rec.fin_generated = (f & kFlagFin) != 0;
      rec.rst_generated = (f & kFlagRst) != 0;
      rec.closed = (f & kFlagClosed) != 0;
      rec.announce = (f & kFlagAnnounce) != 0;
      rec.established = (f & kFlagEstablished) != 0;
      rec.bytes_received = r.u32();
      rec.acked_by_peer = r.u32();
      rec.app_written = r.u32();
      rec.app_read = r.u32();
      if (rec.announce) {
        rec.client_ip = net::Ipv4Addr(r.u32());
        rec.client_port = r.u16();
        rec.local_port = r.u16();
        rec.iss = r.u32();
        rec.irs = r.u32();
      }
      m.records.push_back(rec);
    }
    return m;
  } catch (const std::exception&) {
    return std::nullopt;
  }
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
