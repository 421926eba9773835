#include "sttcp/messages.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "net/checksum.h"
#include "sim/random.h"

namespace sttcp::sttcp {
namespace {

HbRecord sample_record(std::uint16_t id) {
  HbRecord r;
  r.repl_id = id;
  r.bytes_received = 0x1'00000123ull;  // only low 32 bits travel
  r.acked_by_peer = 456;
  r.app_written = 789;
  r.app_read = 1011;
  return r;
}

/// One beat, written by HbWriter into a region sized by HbHeader::wire_size.
net::Bytes encode(const HbHeader& h, const std::vector<DecisionRecord>& decisions,
                  const std::vector<HbRecord>& records) {
  std::size_t record_bytes = 0;
  for (const HbRecord& r : records) record_bytes += r.wire_size();
  net::Bytes out(h.wire_size(decisions.size(), record_bytes));
  HbWriter w(out, h, decisions.size());
  for (const DecisionRecord& d : decisions) w.decision(d);
  w.records(records.size());
  for (const HbRecord& r : records) w.record(r);
  w.finish();
  return out;
}

net::Bytes encode(const HbHeader& h, const std::vector<HbRecord>& records = {}) {
  return encode(h, {}, records);
}

std::vector<HbRecord> records_of(const HbView& v) {
  std::vector<HbRecord> out;
  for (const HbRecord& r : v.records) out.push_back(r);
  return out;
}

std::vector<DecisionRecord> decisions_of(const HbView& v) {
  std::vector<DecisionRecord> out;
  for (const DecisionRecord& d : v.decisions) out.push_back(d);
  return out;
}

/// Recompute the checksum field after a deliberate edit, so a test reaches
/// the layout guard instead of the checksum guard.
void repatch_checksum(net::Bytes& w) {
  w[1] = 0;
  w[2] = 0;
  const std::uint16_t c = net::internet_checksum(net::BytesView(w).subspan(1));
  w[1] = static_cast<std::uint8_t>(c >> 8);
  w[2] = static_cast<std::uint8_t>(c);
}

void expect_every_truncation_rejected(const net::Bytes& full) {
  ASSERT_TRUE(HbView::parse(full).has_value());
  for (std::size_t n = 0; n < full.size(); ++n) {
    const net::Bytes cut(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(n));
    EXPECT_FALSE(HbView::parse(cut).has_value()) << "prefix length " << n;
  }
}

void expect_every_bit_flip_rejected(const net::Bytes& full) {
  for (std::size_t byte = 0; byte < full.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      net::Bytes flipped = full;
      flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_FALSE(HbView::parse(flipped).has_value())
          << "byte " << byte << " bit " << bit;
    }
  }
}

DecisionRecord decision(std::uint64_t seq, DecisionKind kind, std::uint64_t value) {
  DecisionRecord d;
  d.seq = seq;
  d.kind = static_cast<std::uint8_t>(kind);
  d.value = value;
  return d;
}

TEST(HeartbeatMsgTest, RoundTripEmpty) {
  HbHeader h;
  h.role = Role::kBackup;
  h.hb_seq = 42;
  const net::Bytes w = encode(h);
  const auto p = HbView::parse(w);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->header.role, Role::kBackup);
  EXPECT_EQ(p->header.hb_seq, 42u);
  EXPECT_TRUE(p->records.empty());
  EXPECT_TRUE(p->decisions.empty());
  EXPECT_FALSE(p->header.ping_valid);
  EXPECT_FALSE(p->header.app_suspect);
  EXPECT_FALSE(p->header.group_valid);
  EXPECT_FALSE(p->header.decisions_valid);
}

TEST(HeartbeatMsgTest, RoundTripRecords) {
  HbHeader h;
  h.role = Role::kPrimary;
  std::vector<HbRecord> recs{sample_record(1), sample_record(2)};
  recs[1].fin_generated = true;
  recs[1].closed = true;
  const net::Bytes w = encode(h, recs);
  const auto p = HbView::parse(w);
  ASSERT_TRUE(p.has_value());
  ASSERT_EQ(p->records.size(), 2u);
  const std::vector<HbRecord> got = records_of(*p);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].repl_id, 1);
  // Wire carries the low 32 bits.
  EXPECT_EQ(got[0].bytes_received, 0x123u);
  EXPECT_EQ(got[0].acked_by_peer, 456u);
  EXPECT_FALSE(got[0].fin_generated);
  EXPECT_TRUE(got[1].fin_generated);
  EXPECT_TRUE(got[1].closed);
  EXPECT_FALSE(got[1].rst_generated);
}

TEST(HeartbeatMsgTest, AnnounceFieldsRoundTrip) {
  HbRecord r = sample_record(7);
  r.announce = true;
  r.established = true;
  r.client_ip = net::Ipv4Addr(10, 0, 0, 1);
  r.client_port = 49152;
  r.local_port = 80;
  r.iss = 0xdeadbeef;
  r.irs = 0x12345678;
  // A plain record after the announce: the reader strides over 35 bytes.
  const net::Bytes w = encode(HbHeader{}, {r, sample_record(8)});
  const auto p = HbView::parse(w);
  ASSERT_TRUE(p.has_value());
  const std::vector<HbRecord> got = records_of(*p);
  ASSERT_EQ(got.size(), 2u);
  const HbRecord& q = got[0];
  EXPECT_TRUE(q.announce);
  EXPECT_TRUE(q.established);
  EXPECT_EQ(q.client_ip, net::Ipv4Addr(10, 0, 0, 1));
  EXPECT_EQ(q.client_port, 49152);
  EXPECT_EQ(q.local_port, 80);
  EXPECT_EQ(q.iss, 0xdeadbeefu);
  EXPECT_EQ(q.irs, 0x12345678u);
  EXPECT_EQ(got[1].repl_id, 8);
  EXPECT_FALSE(got[1].announce);
}

TEST(HeartbeatMsgTest, PingAndSuspectFlags) {
  HbHeader h;
  h.ping_valid = true;
  h.ping_ok = false;
  h.app_suspect = true;
  const net::Bytes w = encode(h);
  const auto p = HbView::parse(w);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->header.ping_valid);
  EXPECT_FALSE(p->header.ping_ok);
  EXPECT_TRUE(p->header.app_suspect);
}

TEST(HeartbeatMsgTest, SteadyStateRecordIsUnder20Bytes) {
  // The paper's sizing claim: "The HB is less than 20 bytes per TCP
  // connection" — that is what lets ~100 connections share a 115.2 kbps
  // serial link at a 200 ms heartbeat.
  const std::size_t empty = encode(HbHeader{}).size();
  const std::size_t one = encode(HbHeader{}, {sample_record(1)}).size();
  EXPECT_LT(one - empty, 20u);
  EXPECT_EQ(one - empty, sample_record(1).wire_size());
  EXPECT_EQ(empty, HbHeader{}.wire_size(0, 0));
  // 100 connections at 5 HB/s must fit in 115200/10 bytes/s.
  const std::size_t hb_100 = empty + 100 * (one - empty);
  EXPECT_LT(hb_100 * 5 * 10, 115200u);
}

TEST(HeartbeatMsgTest, GarbageRejected) {
  EXPECT_FALSE(HbView::parse(net::to_bytes("not a heartbeat")).has_value());
  EXPECT_FALSE(HbView::parse(net::Bytes{}).has_value());
  // Truncated records.
  net::Bytes w = encode(HbHeader{}, {sample_record(1)});
  w.resize(w.size() - 5);
  EXPECT_FALSE(HbView::parse(w).has_value());
}

TEST(HeartbeatMsgTest, EveryTruncationIsRejected) {
  // The RS-232 line can cut a message anywhere; no prefix of a valid
  // heartbeat may parse (the trailing checksum covers the full length).
  HbHeader h;
  h.role = Role::kPrimary;
  h.hb_seq = 7;
  HbRecord ann = sample_record(2);
  ann.announce = true;
  expect_every_truncation_rejected(encode(h, {sample_record(1), ann}));
}

TEST(HeartbeatMsgTest, EverySingleBitFlipIsRejected) {
  // A serial line has no FCS, so the codec's own checksum is the only thing
  // between line noise and garbage progress counters reaching arbitration.
  HbHeader h;
  h.role = Role::kBackup;
  h.hb_seq = 12345;
  h.ping_valid = true;
  expect_every_bit_flip_rejected(encode(h, {sample_record(3)}));
}

TEST(HeartbeatMsgTest, RandomGarbageNeverParsesOrThrows) {
  // Pure fuzz: no byte string that is not a well-formed heartbeat may crash,
  // throw, or (modulo the 1-in-2^16 checksum odds, which the fixed seed
  // pins) be accepted.
  sim::Rng rng(2026);
  for (int trial = 0; trial < 5000; ++trial) {
    net::Bytes junk(rng.below(64), 0);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    ASSERT_NO_THROW({
      const auto p = HbView::parse(junk);
      EXPECT_FALSE(p.has_value()) << "trial " << trial;
    });
  }
}

TEST(HeartbeatMsgTest, ImpossibleRecordCountRejected) {
  // A count field promising more records than the remaining bytes could ever
  // hold must be rejected before any record is read. The checksum is
  // re-patched so this exercises the count guard, not the checksum guard.
  net::Bytes w = encode(HbHeader{});
  w[w.size() - 2] = 0xff;  // count = 0xff00
  w[w.size() - 1] = 0x00;
  repatch_checksum(w);
  EXPECT_FALSE(HbView::parse(w).has_value());
}

// --- the decision block (flag 0x40) -------------------------------------------

HbHeader decision_header() {
  HbHeader h;
  h.role = Role::kPrimary;
  h.hb_seq = 77;
  h.decisions_valid = true;
  h.decision_ack = 0x0102030405060708ull;
  return h;
}

std::vector<DecisionRecord> sample_decisions() {
  return {decision(41, DecisionKind::kOrder, 7), decision(42, DecisionKind::kTime, 0xfedcba9876543210ull),
          decision(43, DecisionKind::kEvict, 0)};
}

TEST(HeartbeatMsgTest, DecisionBlockRoundTrip) {
  const net::Bytes w = encode(decision_header(), sample_decisions(), {sample_record(5)});
  EXPECT_EQ(w.size(), 11u + 10u + 3 * DecisionRecord::kWireSize + HbRecord::kWireSize);
  const auto p = HbView::parse(w);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->header.decisions_valid);
  EXPECT_EQ(p->header.decision_ack, 0x0102030405060708ull);
  ASSERT_EQ(p->decisions.size(), 3u);
  const std::vector<DecisionRecord> got = decisions_of(*p);
  ASSERT_EQ(got.size(), 3u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].seq, sample_decisions()[i].seq);
    EXPECT_EQ(got[i].kind, sample_decisions()[i].kind);
    EXPECT_EQ(got[i].value, sample_decisions()[i].value);
  }
  // The records still follow the block.
  ASSERT_EQ(records_of(*p).size(), 1u);
  EXPECT_EQ(records_of(*p)[0].repl_id, 5);

  // An ack-only block (the backup's decision beat) carries no records.
  const net::Bytes ack_bytes = encode(decision_header(), {}, {});
  const auto ack_only = HbView::parse(ack_bytes);
  ASSERT_TRUE(ack_only.has_value());
  EXPECT_TRUE(ack_only->header.decisions_valid);
  EXPECT_TRUE(ack_only->decisions.empty());
}

TEST(HeartbeatMsgTest, DecisionBlockEveryTruncationIsRejected) {
  expect_every_truncation_rejected(
      encode(decision_header(), sample_decisions(), {sample_record(5)}));
}

TEST(HeartbeatMsgTest, DecisionBlockEverySingleBitFlipIsRejected) {
  expect_every_bit_flip_rejected(encode(decision_header(), sample_decisions(), {}));
}

TEST(HeartbeatMsgTest, ImpossibleDecisionCountRejected) {
  // A decision count promising more records than the rest of the beat holds
  // is rejected before any record is read, checksum notwithstanding.
  net::Bytes w = encode(decision_header(), sample_decisions(), {});
  const std::size_t count_at = 11 - 2 + 8;  // header, then the 8-byte ack
  ASSERT_EQ(w[count_at + 1], 3);
  w[count_at] = 0xff;
  w[count_at + 1] = 0xff;
  repatch_checksum(w);
  EXPECT_FALSE(HbView::parse(w).has_value());
  // One record too many is impossible too.
  w[count_at] = 0;
  w[count_at + 1] = 4;
  repatch_checksum(w);
  EXPECT_FALSE(HbView::parse(w).has_value());
}

// --- the group-view block (flag 0x20) -----------------------------------------

const std::vector<std::uint8_t> kOrder{2, 0, 3, 1};

HbHeader view_header() {
  HbHeader h;
  h.role = Role::kBackup;
  h.hb_seq = 9;
  h.group_valid = true;
  h.member = 3;
  h.view_epoch = 0x80000002u;
  h.view_order = kOrder;
  return h;
}

TEST(HeartbeatMsgTest, ViewBlockRoundTrip) {
  const net::Bytes w = encode(view_header(), {sample_record(1)});
  EXPECT_EQ(w.size(), 11u + 6u + kOrder.size() + HbRecord::kWireSize);
  const auto p = HbView::parse(w);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->header.group_valid);
  EXPECT_EQ(p->header.member, 3);
  EXPECT_EQ(p->header.view_epoch, 0x80000002u);
  EXPECT_TRUE(std::equal(p->header.view_order.begin(), p->header.view_order.end(),
                         kOrder.begin(), kOrder.end()));
  ASSERT_EQ(records_of(*p).size(), 1u);
  // The view is read in place: it points into the received bytes.
  EXPECT_EQ(p->header.view_order.data(), w.data() + 11 - 2 + 6);
}

TEST(HeartbeatMsgTest, ViewBlockEveryTruncationIsRejected) {
  expect_every_truncation_rejected(encode(view_header(), {sample_record(1)}));
}

TEST(HeartbeatMsgTest, ViewBlockEverySingleBitFlipIsRejected) {
  expect_every_bit_flip_rejected(encode(view_header(), {sample_record(1)}));
}

TEST(HeartbeatMsgTest, ImpossibleViewSizeRejected) {
  net::Bytes w = encode(view_header());
  const std::size_t size_at = 11 - 2 + 5;  // header, member, view epoch
  ASSERT_EQ(w[size_at], kOrder.size());
  w[size_at] = 0xff;
  repatch_checksum(w);
  EXPECT_FALSE(HbView::parse(w).has_value());
}

// --- the writer against the field-by-field serializer it replaced ----------

HbRecord corpus_record(unsigned i) {
  HbRecord r;
  r.repl_id = static_cast<std::uint16_t>(i * 37 + 1);
  r.bytes_received = 0x1'0000'0000ull * i + i * 1000003ull;
  r.acked_by_peer = i * 999ull;
  r.app_written = i * 7777ull;
  r.app_read = i * 5ull;
  r.fin_generated = i % 3 == 0;
  r.rst_generated = i % 7 == 0;
  r.closed = i % 5 == 0;
  r.announce = i % 4 == 1;
  r.established = i % 8 == 1;
  if (r.announce) {
    r.client_ip = net::Ipv4Addr(10, 0, static_cast<std::uint8_t>(i >> 8),
                                static_cast<std::uint8_t>(i));
    r.client_port = static_cast<std::uint16_t>(40000 + i);
    r.local_port = 80;
    r.iss = i * 0x01000193u;
    r.irs = ~r.iss;
  }
  return r;
}

DecisionRecord corpus_decision(unsigned i) {
  DecisionRecord d;
  d.seq = 1000 + i;
  d.kind = static_cast<std::uint8_t>(i % 5 + 1);
  d.value = i * 0x9e3779b97f4a7c15ull;
  return d;
}

std::uint64_t fnv1a(net::BytesView b) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t c : b) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(HeartbeatMsgTest, WriterReproducesTheFieldByFieldSerializerByteForByte) {
  // Each case's size and FNV-1a digest were taken from the serializer the
  // writer replaced (HeartbeatMsg::serialize, which appended one field at a
  // time to a growing buffer) on the same inputs. Any wire change shows up
  // here before it shows up as a peer rejecting beats.
  struct Case {
    const char* name;
    HbHeader h;
    std::vector<std::uint8_t> order;
    std::vector<DecisionRecord> decisions;
    std::vector<HbRecord> records;
    std::size_t size;
    std::uint64_t digest;
  };
  std::vector<Case> cases;
  const auto add = [&cases](const char* name, std::size_t size, std::uint64_t digest) -> Case& {
    cases.push_back(Case{name, {}, {}, {}, {}, size, digest});
    return cases.back();
  };
  {
    Case& c = add("empty", 11, 0xb25c7e2819304199ull);
    c.h.role = Role::kBackup;
    c.h.hb_seq = 42;
  }
  {
    Case& c = add("records", 287, 0x0c99ca279e9debedull);
    c.h.hb_seq = 7;
    c.h.ping_valid = true;
    c.h.ping_ok = true;
    for (unsigned i = 0; i < 12; ++i) c.records.push_back(corpus_record(i));
  }
  {
    Case& c = add("rejoin_request", 50, 0x8c1379da55eab312ull);
    c.h.role = Role::kBackup;
    c.h.hb_seq = 0xfffffff0u;
    c.h.app_suspect = true;
    c.h.rejoin_request = true;
    c.h.rejoin_epoch = 0x01020304u;
    c.records.push_back(corpus_record(1));
  }
  {
    Case& c = add("rejoin_ready", 15, 0xf98f8b6546354bc7ull);
    c.h.hb_seq = 3;
    c.h.rejoin_ready = true;
    c.h.rejoin_epoch = 9;
    c.h.ping_valid = true;
  }
  {
    Case& c = add("view", 74, 0x9f61263514c14b1cull);
    c.h.hb_seq = 99;
    c.h.group_valid = true;
    c.h.member = 2;
    c.h.view_epoch = 5;
    c.order = {2, 0, 1};
    c.records = {corpus_record(4), corpus_record(5)};
  }
  {
    Case& c = add("decisions_0", 40, 0xf415eace8d2829b4ull);
    c.h.hb_seq = 11;
    c.h.decisions_valid = true;
    c.h.decision_ack = 123;
    c.records.push_back(corpus_record(2));
  }
  {
    Case& c = add("decisions_1", 38, 0x9a29112483cd0b80ull);
    c.h.role = Role::kBackup;
    c.h.hb_seq = 12;
    c.h.decisions_valid = true;
    c.decisions.push_back(corpus_decision(0));
  }
  {
    Case& c = add("decisions_512", 8725, 0x291039e1b327762eull);
    c.h.hb_seq = 13;
    c.h.decisions_valid = true;
    c.h.decision_ack = 0x1122334455667788ull;
    for (unsigned i = 0; i < 512; ++i) c.decisions.push_back(corpus_decision(i));
  }
  {
    Case& c = add("everything", 11039, 0x3337e435214d47e0ull);
    c.h.hb_seq = 14;
    c.h.ping_valid = true;
    c.h.app_suspect = true;
    c.h.rejoin_ready = true;
    c.h.rejoin_epoch = 77;
    c.h.group_valid = true;
    c.h.member = 1;
    c.h.view_epoch = 0x80000001u;
    c.order = {1, 3, 0, 2};
    c.h.decisions_valid = true;
    c.h.decision_ack = 4;
    for (unsigned i = 0; i < 512; ++i) c.decisions.push_back(corpus_decision(i));
    for (unsigned i = 0; i < 100; ++i) c.records.push_back(corpus_record(i));
  }
  for (Case& c : cases) {
    c.h.view_order = c.order;
    const net::Bytes w = encode(c.h, c.decisions, c.records);
    EXPECT_EQ(w.size(), c.size) << c.name;
    EXPECT_EQ(fnv1a(w), c.digest) << c.name;
    // And the reader gives back exactly what was written.
    const auto p = HbView::parse(w);
    ASSERT_TRUE(p.has_value()) << c.name;
    const std::vector<DecisionRecord> ds = decisions_of(*p);
    ASSERT_EQ(ds.size(), c.decisions.size()) << c.name;
    for (std::size_t i = 0; i < ds.size(); ++i) {
      EXPECT_EQ(ds[i].seq, c.decisions[i].seq);
      EXPECT_EQ(ds[i].kind, c.decisions[i].kind);
      EXPECT_EQ(ds[i].value, c.decisions[i].value);
    }
    const std::vector<HbRecord> rs = records_of(*p);
    ASSERT_EQ(rs.size(), c.records.size()) << c.name;
    for (std::size_t i = 0; i < rs.size(); ++i) {
      EXPECT_EQ(rs[i].repl_id, c.records[i].repl_id);
      EXPECT_EQ(rs[i].bytes_received, c.records[i].bytes_received & 0xffffffffu);
      EXPECT_EQ(rs[i].announce, c.records[i].announce);
      EXPECT_EQ(rs[i].iss, c.records[i].iss);
    }
  }
}

TEST(HeartbeatMsgTest, WriterRefusesARegionSizedForAnotherBeat) {
  HbHeader h;
  net::Bytes small(h.wire_size(0, HbRecord::kWireSize) - 1);
  HbWriter w(small, h, 0);
  w.records(1);
  EXPECT_THROW(w.record(sample_record(1)), std::logic_error);
  net::Bytes large(h.wire_size(0, 0) + 1);
  HbWriter v(large, h, 0);
  v.records(0);
  EXPECT_THROW(v.finish(), std::logic_error);
}

TEST(ControlMsgTest, RandomGarbageNeverParsesOrThrows) {
  sim::Rng rng(4242);
  for (int trial = 0; trial < 5000; ++trial) {
    net::Bytes junk(rng.below(64), 0);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    ASSERT_NO_THROW({ (void)ControlMsg::parse(junk); });
  }
}

TEST(CounterUnwrapTest, MonotonicAndWrapping) {
  EXPECT_EQ(unwrap_counter(100, 0), 100u);
  EXPECT_EQ(unwrap_counter(100, 50), 100u);
  // A stale (smaller) wire value never regresses the counter.
  EXPECT_EQ(unwrap_counter(40, 50), 50u);
  // Forward across the 32-bit wrap.
  EXPECT_EQ(unwrap_counter(5, 0xfffffff0ull), 0x1'00000005ull);
  // Large jumps (< 2^31) are accepted.
  EXPECT_EQ(unwrap_counter(0x40000000, 0), 0x40000000u);
}

TEST(ControlMsgTest, RequestRoundTrip) {
  MissedBytesRequest req;
  req.repl_id = 3;
  req.offset = 0x1122334455ull;
  req.length = 4096;
  auto p = ControlMsg::parse(req.serialize());
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->type, ControlType::kMissedBytesRequest);
  EXPECT_EQ(p->request.repl_id, 3);
  EXPECT_EQ(p->request.offset, 0x1122334455ull);
  EXPECT_EQ(p->request.length, 4096u);
}

TEST(ControlMsgTest, ReplyRoundTrip) {
  MissedBytesReply rep;
  rep.repl_id = 9;
  rep.offset = 777;
  rep.data = net::to_bytes("recovered payload");
  auto p = ControlMsg::parse(rep.serialize());
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->type, ControlType::kMissedBytesReply);
  EXPECT_EQ(p->reply.repl_id, 9);
  EXPECT_EQ(p->reply.offset, 777u);
  EXPECT_EQ(p->reply.data, net::to_bytes("recovered payload"));
}

TEST(ControlMsgTest, GarbageRejected) {
  EXPECT_FALSE(ControlMsg::parse(net::to_bytes("\x07junk")).has_value());
  EXPECT_FALSE(ControlMsg::parse(net::Bytes{}).has_value());
  MissedBytesReply rep;
  rep.data = net::Bytes(100, 0xaa);
  net::Bytes w = rep.serialize();
  w.resize(20);  // length field promises more data than present
  EXPECT_FALSE(ControlMsg::parse(w).has_value());
}

}  // namespace
}  // namespace sttcp::sttcp
