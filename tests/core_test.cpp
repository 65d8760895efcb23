// Unit tests for the paper's core mechanisms: per-line metadata packing, the
// Figure-8 write heuristic, and compression-window placement.
#include <gtest/gtest.h>

#include <initializer_list>

#include "core/heuristic.hpp"
#include "core/line_meta.hpp"
#include "core/window.hpp"
#include "ecc/ecp.hpp"

namespace pcmsim {
namespace {

TEST(LineMeta, PackUnpackRoundTrips) {
  for (const std::uint8_t start : std::initializer_list<std::uint8_t>{0, 1, 33, 63}) {
    for (const std::uint8_t enc : std::initializer_list<std::uint8_t>{0, 5, 31}) {
      for (const std::uint8_t sc : std::initializer_list<std::uint8_t>{0, 1, 2, 3}) {
        for (bool comp : {false, true}) {
          LineMeta m;
          m.start_byte = start;
          m.encoding = enc;
          m.sc = sc;
          m.compressed = comp;
          const LineMeta back = unpack_meta(pack_meta(m));
          EXPECT_EQ(back.start_byte, start);
          EXPECT_EQ(back.encoding, enc);
          EXPECT_EQ(back.sc, sc);
          EXPECT_EQ(back.compressed, comp);
        }
      }
    }
  }
}

TEST(LineMeta, PackRejectsOutOfRangeFields) {
  LineMeta m;
  m.start_byte = 64;
  EXPECT_THROW((void)pack_meta(m), ContractViolation);
  m.start_byte = 0;
  m.encoding = 32;
  EXPECT_THROW((void)pack_meta(m), ContractViolation);
  m.encoding = 0;
  m.sc = 4;
  EXPECT_THROW((void)pack_meta(m), ContractViolation);
}

// ---------------------------------------------------------------------------
TEST(Heuristic, SmallDataAlwaysCompresses) {
  HeuristicConfig cfg;
  const auto d = decide_write(cfg, /*comp=*/8, /*old=*/64, /*sc=*/3);
  EXPECT_TRUE(d.store_compressed);  // below Threshold1 even with saturated SC
}

TEST(Heuristic, SaturatedCounterGoesUncompressed) {
  HeuristicConfig cfg;
  const auto d = decide_write(cfg, /*comp=*/40, /*old=*/20, /*sc=*/3);
  EXPECT_FALSE(d.store_compressed);
}

TEST(Heuristic, StableSizesDecrementCounter) {
  HeuristicConfig cfg;
  const auto d = decide_write(cfg, /*comp=*/40, /*old=*/42, /*sc=*/2);
  EXPECT_TRUE(d.store_compressed);
  EXPECT_EQ(d.new_sc, 1);
}

TEST(Heuristic, VolatileSizesIncrementCounter) {
  HeuristicConfig cfg;
  const auto d = decide_write(cfg, /*comp=*/40, /*old=*/20, /*sc=*/1);
  EXPECT_TRUE(d.store_compressed);
  EXPECT_EQ(d.new_sc, 2);
}

TEST(Heuristic, CounterSaturatesAtBothEnds) {
  HeuristicConfig cfg;
  EXPECT_EQ(decide_write(cfg, 40, 40, 0).new_sc, 0);
  EXPECT_EQ(decide_write(cfg, 60, 20, 3).new_sc, 3);
}

TEST(Heuristic, VolatileLineConvergesToUncompressed) {
  HeuristicConfig cfg;
  std::uint8_t sc = 0;
  std::uint8_t old_size = 20;
  bool went_uncompressed = false;
  for (int i = 0; i < 8; ++i) {
    const std::uint8_t comp = (i % 2) ? 20 : 50;  // churn
    const auto d = decide_write(cfg, comp, old_size, sc);
    sc = d.new_sc;
    old_size = comp;
    if (!d.store_compressed) went_uncompressed = true;
  }
  EXPECT_TRUE(went_uncompressed);
}

TEST(Heuristic, RecoveryAfterSizesSettle) {
  HeuristicConfig cfg;  // update_always = true
  std::uint8_t sc = 3;
  for (int i = 0; i < 3; ++i) {
    const auto d = decide_write(cfg, 40, 40, sc);
    sc = d.new_sc;
  }
  const auto d = decide_write(cfg, 40, 40, sc);
  EXPECT_TRUE(d.store_compressed) << "stable sizes must drain the counter";
}

TEST(Heuristic, UpperCapExtensionDivertsHugeImages) {
  HeuristicConfig cfg;
  cfg.threshold3_bytes = 52;
  EXPECT_FALSE(decide_write(cfg, /*comp=*/53, /*old=*/53, /*sc=*/0).store_compressed);
  EXPECT_TRUE(decide_write(cfg, /*comp=*/51, /*old=*/51, /*sc=*/0).store_compressed);
  cfg.threshold3_bytes = 0;  // off by default: paper-faithful behaviour
  EXPECT_TRUE(decide_write(cfg, 60, 60, 0).store_compressed);
}

TEST(Heuristic, DisabledAlwaysCompresses) {
  HeuristicConfig cfg;
  cfg.enabled = false;
  const auto d = decide_write(cfg, 63, 10, 3);
  EXPECT_TRUE(d.store_compressed);
  EXPECT_EQ(d.new_sc, 3) << "disabled heuristic must not touch SC";
}

// ---------------------------------------------------------------------------
TEST(WindowSegments, NonWrappingWindowIsOneSegment) {
  const auto segs = window_segments(10, 20);
  ASSERT_EQ(segs.count, 1u);
  EXPECT_EQ(segs.seg[0].bit_off, 80u);
  EXPECT_EQ(segs.seg[0].nbits, 160u);
}

TEST(WindowSegments, WrappingWindowSplitsAtLineEnd) {
  const auto segs = window_segments(60, 10);
  ASSERT_EQ(segs.count, 2u);
  EXPECT_EQ(segs.seg[0].bit_off, 480u);
  EXPECT_EQ(segs.seg[0].nbits, 32u);
  EXPECT_EQ(segs.seg[1].bit_off, 0u);
  EXPECT_EQ(segs.seg[1].nbits, 48u);
}

TEST(WindowSegments, FullLineWindow) {
  const auto segs = window_segments(0, 64);
  ASSERT_EQ(segs.count, 1u);
  EXPECT_EQ(segs.seg[0].nbits, kBlockBits);
}

class WindowPlacerTest : public ::testing::Test {
 protected:
  WindowPlacerTest() : array_(make_config()), placer_(scheme_) {}

  static PcmDeviceConfig make_config() {
    PcmDeviceConfig cfg;
    cfg.lines = 2;
    cfg.endurance_mean = 1000;
    cfg.endurance_cov = 0;
    return cfg;
  }

  void poison_range(std::size_t from_bit, std::size_t to_bit) {
    for (std::size_t b = from_bit; b < to_bit; ++b) array_.inject_fault(0, b, false);
  }

  EcpScheme scheme_{6};
  PcmArray array_;
  WindowPlacer placer_;
};

TEST_F(WindowPlacerTest, CleanLineFitsAnywhere) {
  for (const std::uint8_t start : std::initializer_list<std::uint8_t>{0, 17, 63}) {
    EXPECT_TRUE(placer_.fits(array_, 0, start, 16));
  }
}

TEST_F(WindowPlacerTest, WindowFaultsAreWindowRelative) {
  array_.inject_fault(0, 85, true);  // byte 10, bit 5
  const auto faults = window_faults(array_, 0, 10, 8);
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].pos, 5u);
  EXPECT_TRUE(faults[0].stuck_value);
}

TEST_F(WindowPlacerTest, WrappingWindowCollectsBothSegments) {
  array_.inject_fault(0, 500, false);  // inside first segment of a 60+10 window
  array_.inject_fault(0, 3, true);     // inside wrapped segment
  const auto faults = window_faults(array_, 0, 60, 10);
  ASSERT_EQ(faults.size(), 2u);
  EXPECT_EQ(faults[0].pos, 20u);   // 500 - 480
  EXPECT_EQ(faults[1].pos, 35u);   // 32 + 3
}

TEST_F(WindowPlacerTest, SlideUpFindsCleanRegionAboveFaults) {
  poison_range(0, 64);  // first 8 bytes fully worn
  const auto found = placer_.find(array_, 0, 16, /*preferred=*/0, SlidePolicy::kSlideUp);
  ASSERT_TRUE(found.has_value());
  EXPECT_GE(*found, 8);
  EXPECT_TRUE(placer_.fits(array_, 0, *found, 16));
}

TEST_F(WindowPlacerTest, SlideUpNeverWraps) {
  poison_range(128, 512);  // only bytes 0..15 healthy
  EXPECT_FALSE(placer_.find(array_, 0, 16, /*preferred=*/20, SlidePolicy::kSlideUp).has_value());
  // kAnywhere finds the healthy low region by wrapping the search.
  const auto found = placer_.find(array_, 0, 16, 20, SlidePolicy::kAnywhere);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, 0);
}

TEST_F(WindowPlacerTest, StayPolicyOnlyChecksPreferred) {
  poison_range(0, 64);
  EXPECT_FALSE(placer_.find(array_, 0, 16, 0, SlidePolicy::kStay).has_value());
  EXPECT_TRUE(placer_.find(array_, 0, 16, 8, SlidePolicy::kStay).has_value());
}

TEST_F(WindowPlacerTest, FitsToleratesUpToSchemeCapability) {
  for (std::size_t b = 0; b < 6; ++b) array_.inject_fault(0, b * 13, false);
  EXPECT_TRUE(placer_.fits(array_, 0, 0, 16));
  array_.inject_fault(0, 6 * 13, false);  // 7th fault in the window
  EXPECT_FALSE(placer_.fits(array_, 0, 0, 16));
}

TEST_F(WindowPlacerTest, DodgingFaultsBeatsNominalCapability) {
  // 30 faults clustered in bytes 0..9: far beyond ECP-6, yet a 16-byte
  // window placed above the cluster still works — the paper's key effect.
  for (std::size_t b = 0; b < 30; ++b) array_.inject_fault(0, b * 2, false);
  EXPECT_FALSE(placer_.fits(array_, 0, 0, 16));
  const auto found = placer_.find(array_, 0, 16, 0, SlidePolicy::kAnywhere);
  ASSERT_TRUE(found.has_value());
}

}  // namespace
}  // namespace pcmsim
