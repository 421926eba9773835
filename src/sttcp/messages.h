// Wire formats for the server-to-server protocol (byte layouts in
// docs/PROTOCOL.md).
//
// Heartbeat (§3): sent every hb_period on BOTH channels (UDP over the IP
// link, and the RS-232 serial link). Carries, per connection, the four
// progress counters the paper lists —
//   LastByteReceived, LastAckReceived, LastAppByteWritten, LastAppByteRead —
// plus FIN/RST/closed notices and (while unconfirmed) the connection
// announcement with the primary's ISS and the client's IRS so the backup can
// seed its replica with matching sequence numbers.
//
// The steady-state record is 19 bytes — within the paper's "less than 20
// bytes per TCP connection", which is what makes ~100 connections fit on a
// 115.2 kbps serial channel at a 200 ms heartbeat. Counters travel as the
// low 32 bits of the 64-bit positions and are unwrapped against the
// receiver's previous value.
//
// A beat never exists as a message object. The sender sizes it once
// (HbHeader::wire_size) and HbWriter writes it field by field straight into
// its region — normally the UDP payload of the frame that carries it — from
// endpoint state. The receiver validates it once (HbView::parse: magic,
// checksum, layout) and reads the header, the decision block and the
// records in place through HbView's ranges; nothing is copied or allocated
// on either side.
//
// Control messages (UDP, IP link only): missed-byte recovery (§4.3).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/addr.h"
#include "net/bytes.h"
#include "sttcp/decision.h"

namespace sttcp::sttcp {

enum class Role : std::uint8_t { kPrimary = 0, kBackup = 1 };

const char* to_string(Role r);

/// Per-connection heartbeat record: what HbWriter::record writes and what
/// iterating HbView::records yields, decoded on the fly.
struct HbRecord {
  std::uint16_t repl_id = 0;

  // Flags.
  bool fin_generated = false;
  bool rst_generated = false;
  bool closed = false;
  bool announce = false;     // extended announce fields present
  bool established = false;  // (announce only) connection already established

  // The four progress counters, as absolute 64-bit stream positions. Only
  // the low 32 bits travel on the wire.
  std::uint64_t bytes_received = 0;    // LastByteReceived
  std::uint64_t acked_by_peer = 0;     // LastAckReceived
  std::uint64_t app_written = 0;       // LastAppByteWritten
  std::uint64_t app_read = 0;          // LastAppByteRead

  // Announce-only fields.
  net::Ipv4Addr client_ip;
  std::uint16_t client_port = 0;
  std::uint16_t local_port = 0;
  std::uint32_t iss = 0;
  std::uint32_t irs = 0;

  static constexpr std::size_t kWireSize = 19;
  static constexpr std::size_t kAnnounceWireSize = kWireSize + 16;
  /// Wire size of this record.
  std::size_t wire_size() const { return announce ? kAnnounceWireSize : kWireSize; }
};

/// Everything in a heartbeat but its decision records and its connection
/// records. The sender fills one from endpoint state; HbView::parse fills
/// one from the wire, with view_order viewing the received bytes.
struct HbHeader {
  Role role = Role::kPrimary;
  std::uint32_t hb_seq = 0;

  // Gateway-ping arbitration (§4.3): result of the most recent ping, when
  // arbitration is active.
  bool ping_valid = false;
  bool ping_ok = false;

  /// Watchdog extension (§4.2.2 suggestion): the sender's application-level
  /// watchdog suspects the local application has failed.
  bool app_suspect = false;

  /// Reintegration (beyond the paper): a freshly-booted node asks to rejoin
  /// as backup (rejoin_request); a rejoiner that has applied the survivor's
  /// snapshot and caught up signals readiness (rejoin_ready). `rejoin_epoch`
  /// travels only when one of the flags is set (the steady-state heartbeat
  /// keeps its paper-sized wire format) and makes retries idempotent.
  bool rejoin_request = false;
  bool rejoin_ready = false;
  std::uint32_t rejoin_epoch = 0;

  /// Group-view extension (1+N groups, docs/GROUPS.md): the sender's member
  /// index, its view epoch and the rank-ordered member list (order[0] is the
  /// leader). Travels only when `group_valid` is set; classic pair endpoints
  /// never set it, so the paper-sized wire format is byte-identical.
  bool group_valid = false;
  std::uint8_t member = 0;
  std::uint32_t view_epoch = 0;
  std::span<const std::uint8_t> view_order;

  /// Logged-decision block (docs/APPLICATION.md): the sender's cumulative
  /// ack of the peer's decision stream, followed by its own unacked records.
  /// Gated on a header flag like the group block — endpoints without a
  /// decision log keep the paper-sized wire format byte-identical.
  bool decisions_valid = false;
  std::uint64_t decision_ack = 0;

  /// Wire size of a beat with this header, `decisions` decision records
  /// (none unless decisions_valid) and `record_bytes` bytes of connection
  /// records (the sum of their wire_size()).
  std::size_t wire_size(std::size_t decisions, std::size_t record_bytes) const;
};

/// Writes one heartbeat in a single pass into a region of exactly its wire
/// size (HbHeader::wire_size). Call order: the constructor (header, rejoin
/// epoch, view block, decision ack and count), decision() once per
/// announced decision, records(count), record() once per record, finish().
/// Writing past the region, or finishing short of its end, throws
/// std::logic_error: the region was sized for a different beat.
class HbWriter {
 public:
  HbWriter(std::span<std::uint8_t> out, const HbHeader& h, std::size_t decisions);
  void decision(const DecisionRecord& d);
  void records(std::size_t count);
  void record(const HbRecord& r);
  /// Patch the checksum over the finished beat.
  void finish();

 private:
  std::uint8_t* take(std::size_t n);

  std::span<std::uint8_t> out_;
  std::size_t pos_ = 0;
};

/// The decision block of a received beat: a range of DecisionRecord values
/// decoded in place, oldest-unacked first.
class HbDecisions {
 public:
  class iterator {
   public:
    explicit iterator(const std::uint8_t* p) : p_(p) {}
    DecisionRecord operator*() const;
    iterator& operator++() {
      p_ += DecisionRecord::kWireSize;
      return *this;
    }
    bool operator==(const iterator&) const = default;

   private:
    const std::uint8_t* p_ = nullptr;
  };

  HbDecisions() = default;
  explicit HbDecisions(net::BytesView block) : block_(block) {}
  iterator begin() const { return iterator(block_.data()); }
  iterator end() const { return iterator(block_.data() + block_.size()); }
  std::size_t size() const { return block_.size() / DecisionRecord::kWireSize; }
  bool empty() const { return block_.empty(); }

 private:
  net::BytesView block_;
};

/// The connection records of a received beat: a range of HbRecord values
/// decoded in place (each record is 19 or 35 bytes, by its announce flag).
class HbRecords {
 public:
  class iterator {
   public:
    explicit iterator(const std::uint8_t* p) : p_(p) {}
    HbRecord operator*() const;
    iterator& operator++();
    bool operator==(const iterator&) const = default;

   private:
    const std::uint8_t* p_ = nullptr;
  };

  HbRecords() = default;
  HbRecords(net::BytesView block, std::size_t count) : block_(block), count_(count) {}
  iterator begin() const { return iterator(block_.data()); }
  iterator end() const { return iterator(block_.data() + block_.size()); }
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

 private:
  net::BytesView block_;
  std::size_t count_ = 0;
};

/// A received heartbeat, validated once and read in place. Every view
/// points into the parsed bytes, which must outlive it.
struct HbView {
  HbHeader header;
  HbDecisions decisions;  // empty unless header.decisions_valid
  HbRecords records;

  /// Accepts `data` iff it starts with the magic byte, sums to zero from the
  /// checksum field on, names a known role, and lays out completely: every
  /// block and record the header and counts announce lies inside `data`.
  /// Anything else — bit flips, truncations, impossible counts — is
  /// nullopt. Bytes past the last record are not part of the beat.
  static std::optional<HbView> parse(net::BytesView data);
};

/// Unwrap a 32-bit wire counter against the previous 64-bit value.
/// Counters are monotonic, so the result is never allowed to go backwards.
std::uint64_t unwrap_counter(std::uint32_t wire_value, std::uint64_t previous);

// --- control channel ---------------------------------------------------------

enum class ControlType : std::uint8_t {
  kMissedBytesRequest = 1,
  kMissedBytesReply = 2,
  // Reintegration snapshot stream (serialized/parsed in reintegration.cc;
  // the endpoint routes types >= kSnapshotBegin to the Reintegrator).
  kSnapshotBegin = 3,   // epoch, connection count, application checkpoint
  kSnapshotConn = 4,    // one connection's identity, sequence basis, counters
  kSnapshotData = 5,    // a chunk of a connection's unacked/unread bytes
  kSnapshotEnd = 6,     // snapshot complete; rejoiner applies atomically
  kRejoinCommit = 7,    // survivor saw rejoin_ready: both re-enter FT mode
  // Group promotion (1+N, docs/GROUPS.md): quorum-over-IP arbitration.
  kPromoteRequest = 8,  // candidate asks a live voter for its epoch's grant
  kPromoteAck = 9,      // voter grants (or denies) one candidate per epoch
  kViewAnnounce = 10,   // new leader installs the post-promotion view
};

/// Candidate -> voter: "I convicted everyone ranked below me in epoch
/// `epoch`'s view; grant me the promotion."
struct PromoteRequest {
  std::uint32_t epoch = 0;
  std::uint8_t candidate = 0;  // member index of the requester

  net::Bytes serialize() const;
};

/// Voter -> candidate. A voter grants at most one candidate per epoch.
struct PromoteAck {
  std::uint32_t epoch = 0;
  std::uint8_t candidate = 0;
  std::uint8_t voter = 0;
  bool granted = false;

  net::Bytes serialize() const;
};

/// New leader -> every surviving member: the post-promotion (or post-
/// conviction / post-reintegration) view. order[0] is the leader.
struct ViewAnnounce {
  std::uint32_t epoch = 0;
  std::vector<std::uint8_t> order;

  net::Bytes serialize() const;
};

struct MissedBytesRequest {
  std::uint16_t repl_id = 0;
  std::uint64_t offset = 0;  // absolute payload offset of the first wanted byte
  std::uint32_t length = 0;

  net::Bytes serialize() const;
};

struct MissedBytesReply {
  std::uint16_t repl_id = 0;
  std::uint64_t offset = 0;
  net::Bytes data;

  net::Bytes serialize() const;
};

struct ControlMsg {
  ControlType type;
  MissedBytesRequest request;  // valid when type == kMissedBytesRequest
  MissedBytesReply reply;      // valid when type == kMissedBytesReply
  PromoteRequest promote_request;  // valid when type == kPromoteRequest
  PromoteAck promote_ack;          // valid when type == kPromoteAck
  ViewAnnounce view_announce;      // valid when type == kViewAnnounce

  static std::optional<ControlMsg> parse(net::BytesView data);
};

}  // namespace sttcp::sttcp
