#include "app/pattern.h"

namespace sttcp::app::detail {

namespace {

constexpr std::array<std::uint8_t, 2 * kPatternPeriod> make_pattern_table() {
  std::array<std::uint8_t, 2 * kPatternPeriod> t{};
  for (std::size_t i = 0; i < kPatternPeriod; ++i) {
    t[i] = t[kPatternPeriod + i] = pattern_byte(i);
  }
  return t;
}

// Spot-check the period argument at the bit boundaries it rests on.
static_assert(pattern_byte(0x1234'5678) == pattern_byte(0x5678));
static_assert(pattern_byte(0xffff'ffff'ffff'ffff) == pattern_byte(0xffff));
static_assert(pattern_byte(0x1'00ff) == pattern_byte(0xff));

}  // namespace

constinit const std::array<std::uint8_t, 2 * kPatternPeriod> kPatternTable =
    make_pattern_table();

}  // namespace sttcp::app::detail
