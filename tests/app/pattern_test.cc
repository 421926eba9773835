// The table-driven payload pattern must be byte-for-byte the per-offset
// definition: pattern_bytes, pattern_view and pattern_verify are checked
// against pattern_byte across the 65,536-byte period boundary, above 2^32,
// and for chunks longer than one period.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "app/pattern.h"

namespace sttcp::app {
namespace {

constexpr std::uint64_t kPeriod = kPatternPeriod;

net::Bytes reference(std::uint64_t offset, std::size_t n) {
  net::Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = pattern_byte(offset + i);
  return b;
}

TEST(PatternTest, PeriodIsSixtyFourKiB) {
  for (std::uint64_t o = 0; o < kPeriod; ++o) {
    ASSERT_EQ(pattern_byte(o), pattern_byte(o + kPeriod)) << o;
    ASSERT_EQ(pattern_byte(o), pattern_byte(o + (std::uint64_t{1} << 32))) << o;
  }
}

TEST(PatternTest, EveryOffsetMatchesPatternByte) {
  // [0, 2 x period + 16 KiB), one byte at a time and in one piece.
  const std::uint64_t end = 2 * kPeriod + 16384;
  const net::Bytes whole = pattern_bytes(0, end);
  ASSERT_EQ(whole.size(), end);
  for (std::uint64_t o = 0; o < end; ++o) {
    ASSERT_EQ(whole[o], pattern_byte(o)) << o;
    ASSERT_EQ(pattern_bytes(o, 1), net::Bytes{pattern_byte(o)}) << o;
    ASSERT_EQ(pattern_view(o, 1)[0], pattern_byte(o)) << o;
  }
  EXPECT_TRUE(pattern_verify(0, whole));
}

TEST(PatternTest, LengthsAndOffsetsAcrossThePeriodBoundary) {
  const std::vector<std::size_t> lengths = {0, 1, 1460, 16384, 65536, 65537, 1 << 20};
  const std::uint64_t high = (std::uint64_t{1} << 32) + 12345;
  const std::vector<std::uint64_t> offsets = {
      0,           1,        kPeriod - 1,        kPeriod - 700,   kPeriod,
      kPeriod + 1, 3 * kPeriod - 5, high,        high + kPeriod - 3,
      (std::uint64_t{1} << 40) - 1,  0xffff'ffff'ffff'0000ull};
  for (const std::uint64_t off : offsets) {
    for (const std::size_t n : lengths) {
      const net::Bytes want = reference(off, n);
      ASSERT_EQ(pattern_bytes(off, n), want) << "offset " << off << " n " << n;
      EXPECT_TRUE(pattern_verify(off, want)) << "offset " << off << " n " << n;
      if (n <= kPatternPeriod) {
        const net::BytesView v = pattern_view(off, n);
        ASSERT_EQ(v.size(), n);
        EXPECT_TRUE(std::equal(v.begin(), v.end(), want.begin()))
            << "offset " << off << " n " << n;
      }
    }
  }
}

TEST(PatternTest, OneFlippedByteIsRejected) {
  const std::vector<std::size_t> lengths = {1, 1460, 65536, 65537, 1 << 20};
  const std::vector<std::uint64_t> offsets = {0, kPeriod - 100, (std::uint64_t{1} << 32) + 7};
  for (const std::uint64_t off : offsets) {
    for (const std::size_t n : lengths) {
      // First byte, last byte, and the byte at the first period boundary
      // inside the chunk (where verification switches table windows).
      std::vector<std::size_t> positions = {0, n - 1};
      const std::size_t boundary = static_cast<std::size_t>(kPeriod - off % kPeriod);
      if (boundary < n) positions.push_back(boundary);
      if (n > kPatternPeriod) positions.push_back(kPatternPeriod);
      for (const std::size_t at : positions) {
        net::Bytes bad = pattern_bytes(off, n);
        bad[at] ^= 0x01;
        EXPECT_FALSE(pattern_verify(off, bad))
            << "offset " << off << " n " << n << " flipped at " << at;
      }
    }
  }
}

TEST(PatternTest, WrongOffsetIsRejected) {
  const net::Bytes chunk = pattern_bytes(1000, 1460);
  EXPECT_TRUE(pattern_verify(1000, chunk));
  EXPECT_FALSE(pattern_verify(1001, chunk));
  EXPECT_TRUE(pattern_verify(1000 + kPeriod, chunk));  // same phase
}

TEST(PatternTest, ViewLongerThanOnePeriodThrows) {
  EXPECT_EQ(pattern_view(5, kPatternPeriod).size(), kPatternPeriod);
  EXPECT_THROW(pattern_view(5, kPatternPeriod + 1), std::out_of_range);
}

}  // namespace
}  // namespace sttcp::app
