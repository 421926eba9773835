// Envelope codec tests: roundtrip, incremental reassembly, and the
// fail-closed guarantees ISSUE acceptance demands — no truncation ever
// yields a frame, no single-bit flip is ever accepted, random garbage never
// aliases into a well-formed envelope, and a poisoned stream stays poisoned.
#include <gtest/gtest.h>

#include <cstdint>

#include "app/envelope.h"
#include "sim/random.h"

namespace sttcp::app {
namespace {

// A deterministic non-trivial frame: all-ones payload so that no shortened
// checksum range can sum to the stored value (every omitted suffix of 40
// one-bytes changes the internet checksum by a nonzero amount < 0xffff).
Envelope sample_request() {
  net::Bytes payload(40, 0x01);
  return make_request(MsgType::kPut, 0xAABBCCDD, 17, std::move(payload));
}

TEST(EnvelopeTest, RequestRoundtrip) {
  const Envelope req = sample_request();
  const net::Bytes wire = req.serialize();
  ASSERT_EQ(wire.size(), Envelope::kHeaderSize + 40);

  Decoder dec;
  dec.feed(wire);
  Envelope out;
  ASSERT_EQ(dec.next(&out), Decoder::Result::kOk);
  EXPECT_EQ(out.type, req.type);
  EXPECT_FALSE(out.is_response());
  EXPECT_EQ(out.request_type(), MsgType::kPut);
  EXPECT_EQ(out.session, 0xAABBCCDDu);
  EXPECT_EQ(out.req_id, 17u);
  EXPECT_EQ(out.payload, req.payload);
  EXPECT_EQ(dec.next(&out), Decoder::Result::kNeedMore);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(EnvelopeTest, ResponseRoundtripAndBodyParse) {
  const Envelope req = make_request(MsgType::kGet, 9, 3, net::Bytes{1, 2, 3, 4});
  const net::Bytes data{0x10, 0x20, 0x30};
  net::Bytes wire{0xEE};  // appends after whatever the buffer holds
  write_response(wire, req, Status::kNotFound, 123456789, data);
  ASSERT_EQ(wire.size(), 1 + Envelope::kHeaderSize + 9 + data.size());

  Decoder dec;
  dec.feed(net::BytesView(wire).subspan(1));
  Envelope out;
  ASSERT_EQ(dec.next(&out), Decoder::Result::kOk);
  EXPECT_TRUE(out.is_response());
  EXPECT_EQ(out.request_type(), MsgType::kGet);
  EXPECT_EQ(out.session, req.session);
  EXPECT_EQ(out.req_id, req.req_id);
  const auto body = parse_response_body(out);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(body->status, Status::kNotFound);
  EXPECT_EQ(body->timestamp_us, 123456789u);
  EXPECT_EQ(net::Bytes(body->data.begin(), body->data.end()), data);

  // A response payload shorter than status+timestamp cannot parse.
  Envelope stub = out;
  stub.payload.resize(4);
  EXPECT_FALSE(parse_response_body(stub).has_value());
}

TEST(EnvelopeTest, ReassemblesFramesFedByteByByte) {
  const Envelope a = sample_request();
  const Envelope b = make_request(MsgType::kClose, 1, 2, {});
  net::Bytes wire = a.serialize();
  const net::Bytes wb = b.serialize();
  wire.insert(wire.end(), wb.begin(), wb.end());

  Decoder dec;
  Envelope out;
  int decoded = 0;
  for (const std::uint8_t byte : wire) {
    dec.feed(net::BytesView(&byte, 1));
    while (dec.next(&out) == Decoder::Result::kOk) ++decoded;
  }
  EXPECT_EQ(decoded, 2);
  EXPECT_FALSE(dec.poisoned());
}

TEST(EnvelopeTest, EveryTruncationIsNeedMoreNeverOk) {
  const net::Bytes wire = sample_request().serialize();
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    Decoder dec;
    dec.feed(net::BytesView(wire.data(), cut));
    Envelope out;
    EXPECT_EQ(dec.next(&out), Decoder::Result::kNeedMore)
        << "prefix of " << cut << " bytes";
  }
}

TEST(EnvelopeTest, EverySingleBitFlipIsRejected) {
  const net::Bytes wire = sample_request().serialize();
  for (std::size_t bit = 0; bit < wire.size() * 8; ++bit) {
    net::Bytes flipped = wire;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    Decoder dec;
    dec.feed(flipped);
    Envelope out;
    const auto r = dec.next(&out);
    // A flip that grows the length field legitimately parks as kNeedMore;
    // everything else must fail closed. Accepting a frame is the one
    // forbidden outcome.
    EXPECT_NE(r, Decoder::Result::kOk) << "bit " << bit;
  }
}

TEST(EnvelopeTest, RandomGarbageNeverDecodes) {
  sim::Rng rng(0xE77E10FEu);
  Envelope out;
  for (int trial = 0; trial < 5000; ++trial) {
    Decoder dec;
    const std::size_t n = 1 + rng.below(64);
    net::Bytes junk(n);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    dec.feed(junk);
    const auto r = dec.next(&out);
    EXPECT_NE(r, Decoder::Result::kOk) << "trial " << trial;
  }
}

TEST(EnvelopeTest, GarbagePrefixPoisonsDespiteValidFrameBehind) {
  // A desynced length-prefixed stream must NOT resync: one bad frame kills
  // the connection even if pristine bytes follow.
  net::Bytes wire{0xDE, 0xAD};  // wrong magic
  const net::Bytes good = sample_request().serialize();
  wire.insert(wire.end(), good.begin(), good.end());

  Decoder dec;
  dec.feed(wire);
  Envelope out;
  EXPECT_EQ(dec.next(&out), Decoder::Result::kBad);
  EXPECT_TRUE(dec.poisoned());
  // Sticky: more valid bytes cannot revive it.
  dec.feed(good);
  EXPECT_EQ(dec.next(&out), Decoder::Result::kBad);
}

TEST(EnvelopeTest, OversizedLengthFailsClosed) {
  // A frame honestly declaring a payload over the decoder's cap is rejected
  // before the payload arrives — a corrupted length cannot stall detection.
  Envelope big = make_request(MsgType::kPut, 1, 1, net::Bytes(128, 0x55));
  Decoder small(/*max_payload=*/64);
  small.feed(big.serialize());
  Envelope out;
  EXPECT_EQ(small.next(&out), Decoder::Result::kBad);
  EXPECT_TRUE(small.poisoned());
}

TEST(EnvelopeTest, BufferedBytesExposeUndecodedBacklog) {
  const net::Bytes wire = sample_request().serialize();
  Decoder dec;
  dec.feed(net::BytesView(wire.data(), 10));
  Envelope out;
  ASSERT_EQ(dec.next(&out), Decoder::Result::kNeedMore);
  ASSERT_EQ(dec.buffered(), 10u);
  const net::BytesView backlog = dec.buffered_bytes();
  // Re-feeding the backlog into a fresh decoder plus the rest decodes: the
  // checkpoint carries exactly these bytes across reintegration.
  Decoder fresh;
  fresh.feed(backlog);
  fresh.feed(net::BytesView(wire.data() + 10, wire.size() - 10));
  EXPECT_EQ(fresh.next(&out), Decoder::Result::kOk);
}

}  // namespace
}  // namespace sttcp::app
