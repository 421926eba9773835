#include "tcp/send_buffer.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace sttcp::tcp {
namespace {

net::Bytes seq_bytes(std::size_t n, std::uint8_t start = 0) {
  net::Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::uint8_t>(start + i);
  return b;
}

TEST(SendBufferTest, AppendRespectsCapacity) {
  SendBuffer sb(10);
  EXPECT_EQ(sb.append(seq_bytes(6)), 6u);
  EXPECT_EQ(sb.append(seq_bytes(6)), 4u);  // only 4 left
  EXPECT_EQ(sb.size(), 10u);
  EXPECT_EQ(sb.free_space(), 0u);
  EXPECT_EQ(sb.append(seq_bytes(1)), 0u);
}

TEST(SendBufferTest, AckReleasesAndAdvances) {
  SendBuffer sb(100);
  sb.append(seq_bytes(50));
  EXPECT_EQ(sb.ack_to(20), 20u);
  EXPECT_EQ(sb.una_offset(), 20u);
  EXPECT_EQ(sb.size(), 30u);
  EXPECT_EQ(sb.end_offset(), 50u);
  // Duplicate / old ack releases nothing.
  EXPECT_EQ(sb.ack_to(20), 0u);
  EXPECT_EQ(sb.ack_to(10), 0u);
  // Ack beyond end clamps.
  EXPECT_EQ(sb.ack_to(1000), 30u);
  EXPECT_TRUE(sb.empty());
  EXPECT_EQ(sb.una_offset(), 50u);
}

TEST(SendBufferTest, SliceReturnsCorrectBytes) {
  SendBuffer sb(100);
  sb.append(seq_bytes(60));
  sb.ack_to(10);
  const net::Bytes s = sb.slice(15, 5);
  ASSERT_EQ(s.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(s[static_cast<size_t>(i)], 15 + i);
}

TEST(SendBufferTest, SliceClampsAtEnd) {
  SendBuffer sb(100);
  sb.append(seq_bytes(20));
  EXPECT_EQ(sb.slice(15, 100).size(), 5u);
  EXPECT_TRUE(sb.slice(20, 5).empty());   // at end
  EXPECT_TRUE(sb.slice(99, 5).empty());   // beyond end
}

TEST(SendBufferTest, SliceBelowUnaIsEmpty) {
  SendBuffer sb(100);
  sb.append(seq_bytes(20));
  sb.ack_to(10);
  EXPECT_TRUE(sb.slice(5, 5).empty());
}

TEST(SendBufferTest, InterleavedAppendAckSlice) {
  SendBuffer sb(16);
  std::uint64_t acked = 0;
  std::uint8_t next_val = 0;
  std::uint64_t appended = 0;
  for (int round = 0; round < 50; ++round) {
    net::Bytes data(5);
    for (auto& b : data) b = next_val++;
    const std::size_t n = sb.append(data);
    appended += n;
    next_val = static_cast<std::uint8_t>(next_val - (5 - n));  // rewind unaccepted
    // Verify the buffer contents match the offset pattern.
    const net::Bytes view = sb.slice(sb.una_offset(), sb.size());
    for (std::size_t i = 0; i < view.size(); ++i) {
      EXPECT_EQ(view[i], static_cast<std::uint8_t>(sb.una_offset() + i));
    }
    acked += 3;
    sb.ack_to(acked);
  }
  EXPECT_EQ(sb.end_offset(), appended);
}

TEST(SendBufferTest, RingWrapsAndRegrowsAgainstAReferenceModel) {
  // Odd-sized appends and acks drive the ring through wrap-around, growth
  // while wrapped, and emptying (which frees storage) many times over; every
  // slice and both spans must match a plain byte-vector model.
  SendBuffer sb(5000);
  net::Bytes model;  // bytes [una, end)
  std::uint64_t una = 0;
  std::uint8_t next = 0;
  std::uint32_t x = 12345;
  const auto rnd = [&x](std::uint32_t n) {
    x = x * 1103515245u + 12345u;
    return (x >> 8) % n;
  };
  for (int step = 0; step < 4000; ++step) {
    const net::Bytes data = seq_bytes(rnd(1500), next);
    const std::size_t took = sb.append(data);
    ASSERT_EQ(took, std::min(data.size(), 5000 - model.size()));
    model.insert(model.end(), data.begin(), data.begin() + static_cast<long>(took));
    next = static_cast<std::uint8_t>(next + took);
    // Sometimes acknowledge everything, so the ring empties and restarts.
    const std::size_t ack = rnd(8) == 0 ? model.size() : rnd(static_cast<std::uint32_t>(model.size()) + 1);
    EXPECT_EQ(sb.ack_to(una + ack), ack);
    model.erase(model.begin(), model.begin() + static_cast<long>(ack));
    una += ack;
    ASSERT_EQ(sb.size(), model.size());
    ASSERT_EQ(sb.una_offset(), una);
    if (model.empty()) continue;
    const std::size_t from = rnd(static_cast<std::uint32_t>(model.size()));
    const std::size_t len = rnd(2000) + 1;
    const net::Bytes got = sb.slice(una + from, len);
    const std::size_t n = std::min(len, model.size() - from);
    ASSERT_EQ(got, net::Bytes(model.begin() + static_cast<long>(from),
                              model.begin() + static_cast<long>(from + n)));
    const auto [a, b] = sb.spans(una + from, len);
    net::Bytes joined(a.begin(), a.end());
    joined.insert(joined.end(), b.begin(), b.end());
    ASSERT_EQ(joined, got);
  }
}

}  // namespace
}  // namespace sttcp::tcp
