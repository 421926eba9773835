// Length-prefixed envelope framing for the block-store protocol
// (docs/APPLICATION.md has the full wire table).
//
// Every request and response travels as one frame:
//
//   offset  size  field
//        0     2  magic        0xB10C
//        2     1  version      1
//        3     1  type         MsgType (responses set bit 0x80)
//        4     4  session id   0 before OPEN succeeds
//        8     4  request id   client-chosen, echoed verbatim in the reply
//       12     4  payload len  bytes following the header
//       16     2  checksum     internet checksum over header+payload
//       18     —  payload
//
// The checksum field sits at an even offset and the sum runs from offset 0,
// so the stored complement cancels in place (the word-alignment lesson from
// the PR-4 heartbeat codec bug). The decoder is incremental — envelopes
// straddle TCP segments freely — and fails CLOSED: a bad magic, version,
// checksum or an oversized length poisons the connection (kBad) rather than
// resyncing, because a desynced length-prefixed stream can alias arbitrary
// garbage into well-formed frames.
#pragma once

#include <cstdint>
#include <optional>

#include "net/bytes.h"

namespace sttcp::app {

enum class MsgType : std::uint8_t {
  kOpen = 1,    // payload: 8-byte auth token
  kGet = 2,     // payload: u32 block id
  kPut = 3,     // payload: u32 block id + data (<= block size)
  kDelete = 4,  // payload: u32 block id
  kClose = 5,   // payload: empty
};

enum class Status : std::uint8_t {
  kOk = 0,
  kAuthFailed = 1,
  kBadSession = 2,
  kBadRequest = 3,
  kNotFound = 4,
};

/// Response type bit: reply type = request type | kResponseBit.
constexpr std::uint8_t kResponseBit = 0x80;

struct Envelope {
  static constexpr std::uint16_t kMagic = 0xB10C;
  static constexpr std::uint8_t kVersion = 1;
  static constexpr std::size_t kHeaderSize = 18;
  static constexpr std::size_t kChecksumOffset = 16;

  std::uint8_t type = 0;
  std::uint32_t session = 0;
  std::uint32_t req_id = 0;
  net::Bytes payload;

  bool is_response() const { return (type & kResponseBit) != 0; }
  MsgType request_type() const {
    return static_cast<MsgType>(type & ~kResponseBit);
  }

  net::Bytes serialize() const;
};

/// Frames written in place: begin_frame appends the header of a frame whose
/// payload is `payload_len` bytes and returns the frame's offset in `out`;
/// the caller appends exactly that payload, then seal_frame stores the
/// checksum. Appending reuses `out`'s capacity, so a recycled buffer makes
/// no allocation.
std::size_t begin_frame(net::Bytes& out, std::uint8_t type, std::uint32_t session,
                        std::uint32_t req_id, std::size_t payload_len);
void seal_frame(net::Bytes& out, std::size_t start);

Envelope make_request(MsgType t, std::uint32_t session, std::uint32_t req_id,
                      net::Bytes payload);
/// Appends the response to `req` as one frame. Response payload layout:
/// status(1) + timestamp_us(8) + data.
void write_response(net::Bytes& out, const Envelope& req, Status status,
                    std::uint64_t timestamp_us, net::BytesView data);

/// Parsed response payload; `data` views the envelope's payload.
struct ResponseBody {
  Status status = Status::kOk;
  std::uint64_t timestamp_us = 0;
  net::BytesView data;
};
std::optional<ResponseBody> parse_response_body(const Envelope& e);

/// Incremental stream decoder. feed() buffers raw TCP bytes; next() pulls
/// complete envelopes out.
class Decoder {
 public:
  enum class Result {
    kOk,        // *out holds the next envelope
    kNeedMore,  // buffered bytes form only a frame prefix
    kBad,       // framing violation — the stream is poisoned (sticky)
  };

  /// Frames claiming a longer payload are rejected as kBad: the cap bounds
  /// both memory and how long a corrupted length field can stall detection.
  explicit Decoder(std::size_t max_payload = 64 * 1024)
      : max_payload_(max_payload) {}

  void feed(net::BytesView data);
  Result next(Envelope* out);

  bool poisoned() const { return poisoned_; }
  std::size_t buffered() const { return buf_.size(); }
  /// The undecoded backlog (a partial frame prefix) — carried verbatim in
  /// the reintegration checkpoint and re-fed on the rejoiner.
  net::BytesView buffered_bytes() const { return buf_; }

 private:
  std::size_t max_payload_;
  net::Bytes buf_;
  bool poisoned_ = false;
};

}  // namespace sttcp::app
