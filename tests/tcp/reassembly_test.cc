#include "tcp/reassembly.h"
#include "tests/tcp/read_bytes.h"

#include <gtest/gtest.h>

namespace sttcp::tcp {
namespace {

using testing::read_bytes;

net::Bytes pattern(std::uint64_t offset, std::size_t n) {
  net::Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>((offset + i) * 7 + 1);
  }
  return b;
}

TEST(ReassemblyTest, InOrderDelivery) {
  ReassemblyBuffer rb(100);
  EXPECT_EQ(rb.insert(0, pattern(0, 10)), 10u);
  EXPECT_EQ(rb.next_expected(), 10u);
  EXPECT_EQ(rb.readable(), 10u);
  EXPECT_EQ(read_bytes(rb, 100), pattern(0, 10));
}

TEST(ReassemblyTest, OutOfOrderHoleThenFill) {
  ReassemblyBuffer rb(100);
  EXPECT_EQ(rb.insert(10, pattern(10, 10)), 0u);
  EXPECT_TRUE(rb.has_gap());
  EXPECT_EQ(rb.gap_start(), 0u);
  EXPECT_EQ(rb.gap_end(), 10u);
  EXPECT_EQ(rb.readable(), 0u);
  EXPECT_EQ(rb.insert(0, pattern(0, 10)), 20u);  // hole filled, both delivered
  EXPECT_FALSE(rb.has_gap());
  EXPECT_EQ(read_bytes(rb, 100), pattern(0, 20));
}

TEST(ReassemblyTest, DuplicatesDiscarded) {
  ReassemblyBuffer rb(100);
  rb.insert(0, pattern(0, 10));
  EXPECT_EQ(rb.insert(0, pattern(0, 10)), 0u);
  EXPECT_EQ(rb.insert(5, pattern(5, 3)), 0u);
  EXPECT_EQ(rb.next_expected(), 10u);
  EXPECT_EQ(rb.readable(), 10u);
}

TEST(ReassemblyTest, PartialOverlapWithDelivered) {
  ReassemblyBuffer rb(100);
  rb.insert(0, pattern(0, 10));
  // Retransmission covering [5, 15): only [10, 15) is new.
  EXPECT_EQ(rb.insert(5, pattern(5, 10)), 5u);
  EXPECT_EQ(read_bytes(rb, 100), pattern(0, 15));
}

TEST(ReassemblyTest, WindowClipsBeyondCapacity) {
  ReassemblyBuffer rb(10);
  EXPECT_EQ(rb.insert(0, pattern(0, 20)), 10u);  // clipped at window
  EXPECT_EQ(rb.window(), 0u);
  EXPECT_EQ(read_bytes(rb, 100).size(), 10u);
  EXPECT_EQ(rb.window(), 10u);  // reading frees window
  EXPECT_EQ(rb.insert(10, pattern(10, 10)), 10u);
}

TEST(ReassemblyTest, WindowAccountsForOutOfOrderBytes) {
  ReassemblyBuffer rb(20);
  rb.insert(10, pattern(10, 5));
  EXPECT_EQ(rb.window(), 15u);
  rb.insert(0, pattern(0, 10));
  EXPECT_EQ(rb.window(), 5u);
  EXPECT_EQ(rb.readable(), 15u);
}

TEST(ReassemblyTest, OverlappingOutOfOrderFragments) {
  ReassemblyBuffer rb(100);
  rb.insert(10, pattern(10, 10));  // [10,20)
  rb.insert(15, pattern(15, 10));  // [15,25): only [20,25) is new
  rb.insert(5, pattern(5, 7));     // [5,12): only [5,10) is new
  EXPECT_EQ(rb.insert(0, pattern(0, 5)), 25u);
  EXPECT_EQ(read_bytes(rb, 100), pattern(0, 25));
}

TEST(ReassemblyTest, FragmentFullyCoveredByExisting) {
  ReassemblyBuffer rb(100);
  rb.insert(10, pattern(10, 20));  // [10,30)
  rb.insert(15, pattern(15, 5));   // fully inside
  rb.insert(0, pattern(0, 10));
  EXPECT_EQ(read_bytes(rb, 100), pattern(0, 30));
}

TEST(ReassemblyTest, NewFragmentAbsorbsSmallerOnes) {
  ReassemblyBuffer rb(100);
  rb.insert(12, pattern(12, 2));
  rb.insert(16, pattern(16, 2));
  rb.insert(10, pattern(10, 15));  // covers both
  rb.insert(0, pattern(0, 10));
  EXPECT_EQ(read_bytes(rb, 100), pattern(0, 25));
}

TEST(ReassemblyTest, ReadInChunks) {
  ReassemblyBuffer rb(100);
  rb.insert(0, pattern(0, 30));
  EXPECT_EQ(read_bytes(rb, 10), pattern(0, 10));
  EXPECT_EQ(read_bytes(rb, 10), pattern(10, 10));
  EXPECT_EQ(rb.readable(), 10u);
  EXPECT_EQ(read_bytes(rb, 100), pattern(20, 10));
  EXPECT_TRUE(read_bytes(rb, 10).empty());
}

TEST(ReassemblyTest, DeliverTapSeesEveryByteOnce) {
  ReassemblyBuffer rb(100);
  net::Bytes tapped;
  std::uint64_t expected_off = 0;
  rb.set_deliver_tap([&](std::uint64_t off, net::BytesView data) {
    EXPECT_EQ(off, expected_off);
    expected_off += data.size();
    tapped.insert(tapped.end(), data.begin(), data.end());
  });
  rb.insert(10, pattern(10, 10));
  EXPECT_TRUE(tapped.empty());  // nothing in-order yet
  rb.insert(0, pattern(0, 10));
  rb.insert(20, pattern(20, 5));
  EXPECT_EQ(tapped, pattern(0, 25));
}

TEST(ReassemblyTest, EmptyInsertIsNoop) {
  ReassemblyBuffer rb(100);
  EXPECT_EQ(rb.insert(0, {}), 0u);
  EXPECT_EQ(rb.next_expected(), 0u);
}

// Property sweep: random-ish segment arrival orders always reassemble the
// identical stream.
class ReassemblyOrderTest : public ::testing::TestWithParam<int> {};

TEST_P(ReassemblyOrderTest, AnyArrivalOrderYieldsSameStream) {
  const int perm = GetParam();
  // 6 segments of 10 bytes; apply a permutation derived from `perm`.
  std::vector<int> order = {0, 1, 2, 3, 4, 5};
  int p = perm;
  for (int i = 5; i > 0; --i) {
    std::swap(order[static_cast<size_t>(i)], order[static_cast<size_t>(p % (i + 1))]);
    p /= (i + 1);
  }
  ReassemblyBuffer rb(1000);
  for (int idx : order) {
    rb.insert(static_cast<std::uint64_t>(idx) * 10,
              pattern(static_cast<std::uint64_t>(idx) * 10, 10));
  }
  EXPECT_EQ(rb.next_expected(), 60u);
  EXPECT_EQ(read_bytes(rb, 1000), pattern(0, 60));
}

INSTANTIATE_TEST_SUITE_P(Permutations, ReassemblyOrderTest,
                         ::testing::Range(0, 720, 37));

}  // namespace
}  // namespace sttcp::tcp
