// Table-driven conformance sweep of the descriptor wire format and limit
// semantics: every (base, size, flags) combination must round-trip through
// the 8-byte encoding, and the limit check must agree with a slow reference
// evaluation of the SDM rules.
#include <gtest/gtest.h>

#include <iomanip>
#include <ostream>

#include "x86seg/descriptor.hpp"

namespace cash::x86seg {
namespace {

struct DescriptorCase {
  std::uint32_t base;
  std::uint32_t size;      // bytes (G picked by for_array)
  bool writable;
  std::uint8_t dpl;
};

// Names each case by its fields; gtest's default byte dump would put the
// struct's uninitialised padding into the test name.
void PrintTo(const DescriptorCase& c, std::ostream* os) {
  *os << "base=0x" << std::hex << std::setw(8) << std::setfill('0') << c.base
      << std::dec << " size=" << c.size << (c.writable ? " rw" : " ro")
      << " dpl=" << static_cast<int>(c.dpl);
}

class RoundTrip : public testing::TestWithParam<DescriptorCase> {};

TEST_P(RoundTrip, EncodeDecodeIsIdentity) {
  const DescriptorCase& c = GetParam();
  const SegmentDescriptor d =
      SegmentDescriptor::for_array(c.base, c.size, c.writable, c.dpl);
  const auto decoded = SegmentDescriptor::decode(d.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, d);
  EXPECT_EQ(decoded->writable(), c.writable);
  EXPECT_EQ(decoded->dpl(), c.dpl);
  EXPECT_EQ(decoded->granularity(), c.size > (1U << 20));
}

TEST_P(RoundTrip, LimitCheckMatchesSlowReference) {
  const DescriptorCase& c = GetParam();
  const SegmentDescriptor d =
      SegmentDescriptor::for_array(c.base, c.size, c.writable, c.dpl);
  // Slow reference: the SDM rule, computed independently.
  const std::uint64_t effective =
      d.granularity()
          ? (static_cast<std::uint64_t>(d.raw_limit()) << 12 | 0xFFF)
          : d.raw_limit();
  for (std::int64_t probe :
       {std::int64_t{0}, std::int64_t{1}, std::int64_t{4},
        static_cast<std::int64_t>(effective) - 3,
        static_cast<std::int64_t>(effective),
        static_cast<std::int64_t>(effective) + 1,
        static_cast<std::int64_t>(effective) + 4096}) {
    if (probe < 0) {
      continue;
    }
    const std::uint32_t offset = static_cast<std::uint32_t>(probe);
    const bool expected =
        static_cast<std::uint64_t>(offset) + 4 - 1 <= effective;
    EXPECT_EQ(d.offset_in_limit(offset, 4), expected)
        << "offset " << offset << " effective " << effective;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RoundTrip,
    testing::Values(
        DescriptorCase{0x00000000, 1, true, 3},
        DescriptorCase{0x00001000, 16, false, 3},
        DescriptorCase{0x08048000, 100, true, 3},
        DescriptorCase{0x08048000, 4096, true, 0},
        DescriptorCase{0xFF000000, 4097, false, 0},
        DescriptorCase{0x12345678, 65536, true, 3},
        DescriptorCase{0x7FFFFFFF, (1U << 20) - 1, true, 3},
        DescriptorCase{0x10000000, 1U << 20, false, 3},
        DescriptorCase{0x10000000, (1U << 20) + 1, true, 3},
        DescriptorCase{0x10000123, (1U << 20) + 4095, true, 3},
        DescriptorCase{0x10000123, 2U << 20, false, 0},
        DescriptorCase{0x00000FFF, (64U << 20) + 17, true, 3},
        DescriptorCase{0xA0000000, 1U << 30, true, 3}));

// Structured sweep of raw bit patterns: flags must land in the right bits
// of the wire format (SDM Vol. 3 Figure 3-8).
TEST(WireFormat, BitPositions) {
  const SegmentDescriptor d = SegmentDescriptor::byte_granular_data(
      0xAABBCCDD, 0x54321 + 1, /*writable=*/true, /*dpl=*/3);
  const std::uint64_t raw = d.encode();
  // limit 15:0
  EXPECT_EQ(raw & 0xFFFF, 0x4321U);
  // base 15:0 at bits 16..31
  EXPECT_EQ((raw >> 16) & 0xFFFF, 0xCCDDU);
  // base 23:16 at bits 32..39
  EXPECT_EQ((raw >> 32) & 0xFF, 0xBBU);
  // P=1, DPL=3, S=1 at bits 47..44
  EXPECT_EQ((raw >> 44) & 0xF, 0xFU);
  // limit 19:16 at bits 48..51
  EXPECT_EQ((raw >> 48) & 0xF, 0x5U);
  // base 31:24 at bits 56..63
  EXPECT_EQ((raw >> 56) & 0xFF, 0xAAU);
}

TEST(WireFormat, GranularityBitIsBit55) {
  const SegmentDescriptor byte_g =
      SegmentDescriptor::byte_granular_data(0, 16);
  const SegmentDescriptor page_g =
      SegmentDescriptor::page_granular_data(0, 16);
  EXPECT_EQ((byte_g.encode() >> 55) & 1, 0U);
  EXPECT_EQ((page_g.encode() >> 55) & 1, 1U);
}

TEST(WireFormat, GarbageSystemDescriptorsFailToDecode) {
  // S=0 with a type that is neither LDT (0x2) nor call gate (0xC).
  for (std::uint8_t type : {0x0, 0x5, 0x9, 0xE}) {
    std::uint64_t raw = 0;
    raw |= (1ULL << 47);                         // present
    raw |= (static_cast<std::uint64_t>(type) << 40); // type, S=0
    EXPECT_FALSE(SegmentDescriptor::decode(raw).has_value())
        << "type " << static_cast<int>(type);
  }
}

} // namespace
} // namespace cash::x86seg
