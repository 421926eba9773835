#include "app/envelope.h"

#include "net/checksum.h"

namespace sttcp::app {

std::size_t begin_frame(net::Bytes& out, std::uint8_t type, std::uint32_t session,
                        std::uint32_t req_id, std::size_t payload_len) {
  const std::size_t start = out.size();
  out.reserve(start + Envelope::kHeaderSize + payload_len);
  out.resize(start + Envelope::kHeaderSize);
  net::ByteWriter w(std::span<std::uint8_t>(out).subspan(start));
  w.u16(Envelope::kMagic);
  w.u8(Envelope::kVersion);
  w.u8(type);
  w.u32(session);
  w.u32(req_id);
  w.u32(static_cast<std::uint32_t>(payload_len));
  w.u16(0);  // checksum, stored by seal_frame
  return start;
}

void seal_frame(net::Bytes& out, std::size_t start) {
  const std::uint16_t c = net::internet_checksum(net::BytesView(out).subspan(start));
  net::ByteWriter(out, 0).patch_u16(start + Envelope::kChecksumOffset, c);
}

net::Bytes Envelope::serialize() const {
  net::Bytes out;
  begin_frame(out, type, session, req_id, payload.size());
  net::ByteWriter(out).bytes(payload);
  seal_frame(out, 0);
  return out;
}

Envelope make_request(MsgType t, std::uint32_t session, std::uint32_t req_id,
                      net::Bytes payload) {
  Envelope e;
  e.type = static_cast<std::uint8_t>(t);
  e.session = session;
  e.req_id = req_id;
  e.payload = std::move(payload);
  return e;
}

void write_response(net::Bytes& out, const Envelope& req, Status status,
                    std::uint64_t timestamp_us, net::BytesView data) {
  const std::size_t start =
      begin_frame(out, req.type | kResponseBit, req.session, req.req_id, 9 + data.size());
  net::ByteWriter w(out);
  w.u8(static_cast<std::uint8_t>(status));
  w.u64(timestamp_us);
  w.bytes(data);
  seal_frame(out, start);
}

std::optional<ResponseBody> parse_response_body(const Envelope& e) {
  try {
    net::ByteReader r(e.payload);
    ResponseBody b;
    const std::uint8_t s = r.u8();
    if (s > static_cast<std::uint8_t>(Status::kNotFound)) return std::nullopt;
    b.status = static_cast<Status>(s);
    b.timestamp_us = r.u64();
    b.data = r.rest();
    return b;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

void Decoder::feed(net::BytesView data) {
  if (poisoned_) return;  // a poisoned stream buffers nothing further
  buf_.insert(buf_.end(), data.begin(), data.end());
}

Decoder::Result Decoder::next(Envelope* out) {
  if (poisoned_) return Result::kBad;
  if (buf_.size() < Envelope::kHeaderSize) return Result::kNeedMore;
  net::ByteReader r(buf_);
  const std::uint16_t magic = r.u16();
  const std::uint8_t version = r.u8();
  const std::uint8_t type = r.u8();
  const std::uint32_t session = r.u32();
  const std::uint32_t req_id = r.u32();
  const std::uint32_t len = r.u32();
  if (magic != Envelope::kMagic || version != Envelope::kVersion ||
      len > max_payload_) {
    poisoned_ = true;
    return Result::kBad;
  }
  const std::size_t total = Envelope::kHeaderSize + len;
  if (buf_.size() < total) return Result::kNeedMore;
  // A valid frame checksums to zero over header+payload (the stored field
  // complements the rest). Rejects bit flips anywhere in the frame.
  if (net::internet_checksum(net::BytesView(buf_).first(total)) != 0) {
    poisoned_ = true;
    return Result::kBad;
  }
  out->type = type;
  out->session = session;
  out->req_id = req_id;
  r.u16();  // checksum, verified above
  const net::BytesView payload = r.bytes(len);
  out->payload.assign(payload.begin(), payload.end());
  buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(total));
  return Result::kOk;
}

}  // namespace sttcp::app
