// Logged-decision channel: the determinism backbone for stateful
// applications (docs/APPLICATION.md).
//
// ST-TCP replicates the INPUT stream; the application must derive every
// output byte from it deterministically. A real application cannot: cache
// eviction victims, writeback scheduling, session-id draws and timestamps
// are all invisible to the byte stream. The LLFT line of work (PAPERS.md)
// closes the gap by logging each such choice on the primary and replaying
// the log on the backup. This class is that channel's endpoint-agnostic
// core: the primary appends DecisionRecords as it makes choices, the
// StTcpEndpoint piggybacks unacked records on heartbeats (messages.h, the
// 0x40 header flag), and the backup consumes them in sequence order.
//
// Output commit: a primary response may encode a decision the backup never
// received — if the primary then dies, the promoted backup would re-decide
// differently and the client would observe two histories. The application
// therefore holds response bytes until commit_through() covers every
// decision the response depends on (the backup's cumulative ack, carried on
// the same heartbeat block). In standalone mode (no live peer: non-FT or
// post-takeover) everything commits immediately.
//
// Promotion: a backup taking over keeps the contiguous prefix of ingested,
// not-yet-consumed records — the dead primary may have released responses
// built from them, so they MUST still be replayed — and drops everything
// after the first sequence gap: a gap means the cumulative ack never covered
// those records, so the output-commit gate provably kept every dependent
// response inside the dead primary.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <map>
#include <ranges>

#include "net/bytes.h"

namespace sttcp::sttcp {

/// What kind of nondeterministic choice a record pins down. The log itself
/// is application-agnostic; these kinds belong to app::BlockStoreServer but
/// live here so the wire codec and tooling can name them.
enum class DecisionKind : std::uint8_t {
  kSession = 1,  // session-id draw (value = the id)
  kTime = 2,     // response timestamp (value = microseconds)
  kOrder = 3,    // cross-connection execution order (value = client key)
  kEvict = 4,    // cache eviction victim (value = block id)
  kFlush = 5,    // writeback batch (value = page count)
};

const char* to_string(DecisionKind k);

struct DecisionRecord {
  std::uint64_t seq = 0;  // 1-based, contiguous per primary incarnation
  std::uint8_t kind = 0;  // DecisionKind
  std::uint64_t value = 0;

  /// Wire size inside the heartbeat decision block.
  static constexpr std::size_t kWireSize = 17;  // seq(8) kind(1) value(8)
};

class DecisionLog {
 public:
  enum class Mode {
    kRecord,  // primary: generate choices, append, await acks
    kReplay,  // backup: ingest from heartbeats, consume in order
  };

  struct Stats {
    std::uint64_t appended = 0;  // records generated (record mode)
    std::uint64_t replayed = 0;  // records consumed (replay mode)
    std::uint64_t ingested = 0;  // records accepted from the peer
    std::uint64_t duplicates = 0;    // ingests dropped as already-seen
    std::uint64_t stale = 0;         // ingests below the replay cursor
    std::uint64_t promote_kept = 0;  // contiguous prefix kept at promotion
    std::uint64_t promote_dropped = 0;  // post-gap records dropped
  };

  explicit DecisionLog(Mode mode) : mode_(mode) { reset(mode); }

  Mode mode() const { return mode_; }
  bool recording() const { return mode_ == Mode::kRecord; }
  const Stats& stats() const { return stats_; }

  // --- record side -----------------------------------------------------------
  /// Make (or replay) one choice. In record mode with no pending replay
  /// backlog, `gen` runs and its value is appended. A freshly promoted
  /// primary still holding replayed-but-unconsumed records consumes those
  /// first — the dead primary may have released responses built on them.
  template <class Gen>
  std::uint64_t choose(DecisionKind kind, Gen&& gen) {
    std::uint64_t value = 0;
    if (try_take(kind, &value)) return value;
    return append(kind, gen());
  }
  /// Highest seq this side has appended.
  std::uint64_t last_seq() const { return next_seq_ - 1; }
  /// Highest seq whose dependents may be released to clients: everything
  /// (standalone) or the peer's cumulative ack.
  std::uint64_t commit_through() const {
    return standalone_ ? last_seq() : peer_acked_;
  }
  /// No live peer: commit everything immediately. `retain` keeps appended
  /// records queued for a (future) rejoiner — the reintegrating survivor
  /// sets it so decisions made while the snapshot streams still reach the
  /// rejoiner; a lone non-FT server drops them on append.
  void set_standalone(bool standalone, bool retain);
  bool standalone() const { return standalone_; }
  /// Peer acknowledged every seq <= cum (from the heartbeat decision block).
  void on_peer_ack(std::uint64_t cum);
  /// The oldest unacked records, at most `max` of them, viewed in place:
  /// the heartbeat retransmission window. Valid until the log next changes.
  using Window = std::ranges::subrange<std::deque<DecisionRecord>::const_iterator>;
  Window unacked(std::size_t max) const {
    const auto n = static_cast<std::ptrdiff_t>(std::min(max, unacked_.size()));
    return Window(unacked_.begin(), unacked_.begin() + n);
  }
  /// The application finished a batch of choices and wants them on the wire
  /// now instead of at the next periodic beat (fires the endpoint's hook).
  void request_flush() {
    if (flush_hook_) flush_hook_();
  }

  // --- replay side -----------------------------------------------------------
  /// Accept records from a heartbeat block — any range of DecisionRecord,
  /// such as a received beat's decision block read in place; duplicates and
  /// records below the replay cursor are dropped. Returns true when the
  /// contiguous rx cursor advanced (the endpoint acks promptly; the app
  /// re-pumps its executor).
  template <class Records>
  bool ingest(const Records& recs) {
    const std::uint64_t before = rx_cursor_;
    for (const DecisionRecord& r : recs) ingest_one(r);
    return ingest_done(before);
  }
  bool ingest(std::initializer_list<DecisionRecord> recs) {
    return ingest<std::initializer_list<DecisionRecord>>(recs);
  }
  /// Highest contiguously ingested-or-consumed seq: the cumulative ack.
  std::uint64_t rx_cursor() const { return rx_cursor_; }
  /// Next record due for consumption, or nullptr if it has not arrived.
  const DecisionRecord* peek() const;
  /// Like peek, but looking `offset` records past the next one — the
  /// executor pre-checks a request's full decision demand before mutating.
  const DecisionRecord* peek_ahead(std::size_t offset) const;
  /// Consume the next record iff it matches `kind`. Returns false (and
  /// leaves the queue untouched) on a kind mismatch or absence.
  bool try_take(DecisionKind kind, std::uint64_t* value);
  /// Replayed-but-unconsumed backlog (a promoted primary drains this first).
  std::size_t pending_replay() const { return queue_.size(); }

  // --- role transitions ------------------------------------------------------
  /// Backup -> primary at takeover: keep the contiguous queued prefix, drop
  /// everything past the first gap (see file comment), continue numbering
  /// above every seq ever seen.
  void promote();
  /// Fresh process (host boot hook) — everything forgotten.
  void reset(Mode mode);

  // --- checkpoint (reintegration snapshot payload) ---------------------------
  /// Record-side state a rejoiner needs: the next sequence number. Restored
  /// state below this seq is already folded into the application checkpoint.
  net::Bytes serialize() const;
  bool restore(net::BytesView data);

  // --- hooks -----------------------------------------------------------------
  /// Endpoint: request_flush() wants a decision heartbeat sent now.
  void set_flush_hook(std::function<void()> fn) { flush_hook_ = std::move(fn); }
  /// Application: commit_through() advanced — release gated responses.
  void set_commit_hook(std::function<void()> fn) { commit_hook_ = std::move(fn); }
  /// Application: replay records arrived — re-pump the executor.
  void set_ingest_hook(std::function<void()> fn) { ingest_hook_ = std::move(fn); }
  /// Application: the log switched replay -> record (takeover) — arm
  /// primary-side machinery (writeback timer, backlog drain).
  void set_promote_hook(std::function<void()> fn) { promote_hook_ = std::move(fn); }

 private:
  /// Record a freshly generated choice; returns `value`.
  std::uint64_t append(DecisionKind kind, std::uint64_t value);
  void ingest_one(const DecisionRecord& r);
  /// Settle one ingest: advance the cursor past `before`, fire the hook.
  bool ingest_done(std::uint64_t before);
  void advance_rx_cursor();

  Mode mode_;
  std::uint64_t next_seq_ = 1;     // record side: next seq to assign
  std::uint64_t peer_acked_ = 0;   // record side: peer's cumulative ack
  bool standalone_ = false;
  bool retain_ = true;
  std::deque<DecisionRecord> unacked_;  // record side, oldest first

  std::deque<DecisionRecord> queue_;  // replay side: in-order, contiguous
  /// Ingested out of order (a heartbeat gap): parked until the hole fills.
  std::map<std::uint64_t, DecisionRecord> parked_;
  std::uint64_t rx_cursor_ = 0;       // highest contiguous seq ingested/consumed
  std::uint64_t next_consume_ = 1;    // seq of the next record to consume
  std::uint64_t max_seen_ = 0;        // highest seq ever ingested

  std::function<void()> flush_hook_;
  std::function<void()> commit_hook_;
  std::function<void()> ingest_hook_;
  std::function<void()> promote_hook_;
  Stats stats_;
};

}  // namespace sttcp::sttcp
