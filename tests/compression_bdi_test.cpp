#include "compression/bdi.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace pcmsim {
namespace {

Block block_of_u64(std::uint64_t base, std::uint64_t stride) {
  Block b{};
  for (std::size_t i = 0; i < 8; ++i) {
    const std::uint64_t v = base + stride * i;
    std::memcpy(b.data() + i * 8, &v, 8);
  }
  return b;
}

TEST(Bdi, ZeroBlockCompressesToOneByte) {
  BdiCompressor c;
  const auto r = c.compress(zero_block());
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->size_bytes(), 1u);
  EXPECT_EQ(static_cast<BdiLayout>(r->encoding), BdiLayout::kZeros);
  EXPECT_EQ(c.decompress(*r), zero_block());
}

TEST(Bdi, RepeatedWordCompressesToEightBytes) {
  BdiCompressor c;
  const Block b = block_of_u64(0xDEADBEEFCAFEF00Dull, 0);
  const auto r = c.compress(b);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->size_bytes(), 8u);
  EXPECT_EQ(static_cast<BdiLayout>(r->encoding), BdiLayout::kRep8);
  EXPECT_EQ(c.decompress(*r), b);
}

TEST(Bdi, NarrowDeltasPickSmallLayout) {
  BdiCompressor c;
  const Block b = block_of_u64(0x7000'0000'0000'0000ull, 3);  // deltas fit 1 byte
  const auto r = c.compress(b);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(static_cast<BdiLayout>(r->encoding), BdiLayout::kB8D1);
  EXPECT_EQ(r->size_bytes(), bdi_layout_size(BdiLayout::kB8D1));
  EXPECT_EQ(c.decompress(*r), b);
}

TEST(Bdi, MixedSmallAndBaseValuesUseZeroBase) {
  BdiCompressor c;
  // Alternating small immediates and large near-base values: the dual-base
  // design (explicit base + implicit zero base) must capture both.
  Block b{};
  for (std::size_t i = 0; i < 8; ++i) {
    const std::uint64_t v = (i % 2 == 0) ? i : 0x0123'4567'89AB'0000ull + i;
    std::memcpy(b.data() + i * 8, &v, 8);
  }
  const auto r = c.compress(b);
  ASSERT_TRUE(r.has_value());
  EXPECT_LT(r->size_bytes(), kBlockBytes);
  EXPECT_EQ(c.decompress(*r), b);
}

TEST(Bdi, RandomDataDoesNotCompress) {
  BdiCompressor c;
  Rng rng(7);
  Block b{};
  for (auto& byte : b) byte = static_cast<std::uint8_t>(rng());
  EXPECT_FALSE(c.compress(b).has_value());
}

TEST(Bdi, LayoutSizesMatchGeometry) {
  EXPECT_EQ(bdi_layout_size(BdiLayout::kZeros), 1u);
  EXPECT_EQ(bdi_layout_size(BdiLayout::kRep8), 8u);
  EXPECT_EQ(bdi_layout_size(BdiLayout::kB8D1), 8u + 8u + 1u);
  EXPECT_EQ(bdi_layout_size(BdiLayout::kB8D2), 8u + 16u + 1u);
  EXPECT_EQ(bdi_layout_size(BdiLayout::kB8D4), 8u + 32u + 1u);
  EXPECT_EQ(bdi_layout_size(BdiLayout::kB4D1), 4u + 16u + 2u);
  EXPECT_EQ(bdi_layout_size(BdiLayout::kB4D2), 4u + 32u + 2u);
  EXPECT_EQ(bdi_layout_size(BdiLayout::kB2D1), 2u + 32u + 4u);
}

TEST(Bdi, CompressAlwaysReturnsSmallestApplicableLayout) {
  BdiCompressor c;
  const Block b = block_of_u64(0x1122'3344'5566'0000ull, 0x100);  // deltas fit 2 bytes
  const auto best = c.compress(b);
  ASSERT_TRUE(best.has_value());
  for (auto layout : {BdiLayout::kZeros, BdiLayout::kRep8, BdiLayout::kB8D1, BdiLayout::kB8D2,
                      BdiLayout::kB8D4, BdiLayout::kB4D1, BdiLayout::kB4D2, BdiLayout::kB2D1}) {
    const auto alt = c.compress_with_layout(b, layout);
    if (alt) {
      EXPECT_LE(best->size_bytes(), alt->size_bytes()) << to_string(layout);
    }
  }
}

// Exhaustive-scan reference for the early-exit compress(): try every layout,
// keep the strictly smaller image (the first of equal-size candidates wins),
// exactly what compress() did before the early exit.
std::optional<CompressedBlock> exhaustive_compress(const BdiCompressor& c, const Block& b) {
  static constexpr BdiLayout kSizeOrder[] = {
      BdiLayout::kZeros, BdiLayout::kRep8, BdiLayout::kB8D1, BdiLayout::kB4D1,
      BdiLayout::kB8D2,  BdiLayout::kB2D1, BdiLayout::kB4D2, BdiLayout::kB8D4,
  };
  std::optional<CompressedBlock> best;
  for (const auto layout : kSizeOrder) {
    auto cand = c.compress_with_layout(b, layout);
    if (cand && (!best || cand->size_bytes() < best->size_bytes())) best = std::move(cand);
  }
  return best;
}

void expect_matches_exhaustive(const BdiCompressor& c, const Block& b, const char* what) {
  const auto fast = c.compress(b);
  const auto ref = exhaustive_compress(c, b);
  const auto probed = c.probe_size(b);
  ASSERT_EQ(fast.has_value(), ref.has_value()) << what;
  EXPECT_EQ(probed.has_value(), ref.has_value()) << what;
  if (!ref) return;
  EXPECT_EQ(fast->encoding, ref->encoding) << what;
  EXPECT_EQ(fast->size_bytes(), ref->size_bytes()) << what;
  EXPECT_EQ(fast->bytes, ref->bytes) << what;
  EXPECT_EQ(*probed, ref->size_bytes()) << what;
}

TEST(Bdi, EarlyExitMatchesExhaustiveScanOnAdversarialBlocks) {
  BdiCompressor c;
  expect_matches_exhaustive(c, zero_block(), "zeros");
  expect_matches_exhaustive(c, block_of_u64(0xDEADBEEFCAFEF00Dull, 0), "rep8");
  expect_matches_exhaustive(c, block_of_u64(0x7000'0000'0000'0000ull, 3), "b8d1");

  // Only the late b2d1 layout applies: 2-byte words in one narrow cluster
  // around 0x0100, but 4- and 8-byte views need multi-byte deltas.
  Block late{};
  for (std::size_t i = 0; i < 32; ++i) {
    const std::uint16_t v = static_cast<std::uint16_t>(0x0100 + (i % 3) * 0x30);
    std::memcpy(late.data() + i * 2, &v, 2);
  }
  {
    ASSERT_TRUE(BdiCompressor::layout_applies(late, BdiLayout::kB2D1));
    ASSERT_FALSE(BdiCompressor::layout_applies(late, BdiLayout::kB4D2));
    const auto r = c.compress(late);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(static_cast<BdiLayout>(r->encoding), BdiLayout::kB2D1);
  }
  expect_matches_exhaustive(c, late, "late-layout");

  // Equal-size tie: b2d1 and b4d2 are both 38 bytes and both apply (odd
  // 16-bit words pinned to the b2d1 base, even words split between the zero
  // base and the b2d1 base); the tie must go to b2d1, the earlier layout.
  Block tie{};
  for (std::size_t i = 0; i < 32; ++i) {
    const std::uint16_t v = (i % 2 == 1) ? std::uint16_t{0x1234}
                            : (i % 4 == 0) ? static_cast<std::uint16_t>(5 + i / 4)
                                           : static_cast<std::uint16_t>(0x1234 + (i % 8));
    std::memcpy(tie.data() + i * 2, &v, 2);
  }
  {
    ASSERT_TRUE(BdiCompressor::layout_applies(tie, BdiLayout::kB2D1));
    ASSERT_TRUE(BdiCompressor::layout_applies(tie, BdiLayout::kB4D2));
    const auto r = c.compress(tie);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(static_cast<BdiLayout>(r->encoding), BdiLayout::kB2D1);
  }
  expect_matches_exhaustive(c, tie, "tie");

  Rng rng(99);
  Block incompressible{};
  for (auto& byte : incompressible) byte = static_cast<std::uint8_t>(rng());
  expect_matches_exhaustive(c, incompressible, "incompressible");
}

TEST(Bdi, EarlyExitMatchesExhaustiveScanOnRandomBlocks) {
  BdiCompressor c;
  Rng rng(0xB0D1);
  for (int iter = 0; iter < 2000; ++iter) {
    Block b{};
    // Random base with random-width deltas in 2/4/8-byte granularity, the
    // same family the round-trip sweep uses, plus fully random blocks.
    if (iter % 4 == 0) {
      for (auto& byte : b) byte = static_cast<std::uint8_t>(rng());
    } else {
      const std::size_t k = std::size_t{1} << (1 + rng.next_below(3));  // 2,4,8
      const std::uint64_t base = rng();
      const unsigned delta_bits = 1 + static_cast<unsigned>(rng.next_below(40));
      for (std::size_t i = 0; i < kBlockBytes / k; ++i) {
        const std::uint64_t v = base + (rng() & ((1ull << delta_bits) - 1));
        std::memcpy(b.data() + i * k, &v, k);
      }
    }
    expect_matches_exhaustive(c, b, "random");
  }
}

// Property: any compressible block round-trips exactly, across a large sweep
// of structured random content.
class BdiRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(BdiRoundTrip, StructuredRandomBlocksRoundTrip) {
  BdiCompressor c;
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  int compressed = 0;
  for (int iter = 0; iter < 400; ++iter) {
    Block b{};
    // Random base with random-width deltas, in 2/4/8-byte granularity.
    const std::size_t k = std::size_t{1} << (1 + rng.next_below(3));  // 2,4,8
    const std::uint64_t base = rng();
    const unsigned delta_bits = 1 + static_cast<unsigned>(rng.next_below(40));
    for (std::size_t i = 0; i < kBlockBytes / k; ++i) {
      const std::uint64_t delta = rng() & ((1ull << delta_bits) - 1);
      const std::uint64_t v = base + delta;
      std::memcpy(b.data() + i * k, &v, k);
    }
    const auto r = c.compress(b);
    if (r) {
      ++compressed;
      EXPECT_LT(r->size_bytes(), kBlockBytes);
      EXPECT_EQ(c.decompress(*r), b) << "layout " << int(r->encoding);
    }
  }
  EXPECT_GT(compressed, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BdiRoundTrip, ::testing::Range(0, 8));

}  // namespace
}  // namespace pcmsim
