// Coherence test for the cached fault state behind window placement.
//
// WindowPlacer::fits/find consult data_stuck_count() and byte_stuck_prefix(),
// which PcmArray maintains incrementally at fault birth (wear-out writes and
// inject_fault). The reference here recomputes every answer definitionally —
// window_faults() scans the stuck bitmap directly and the scheme's
// can_tolerate() is asked for every candidate — so any stale or miscounted
// cache entry shows up as a fits/find divergence. Exercised three ways:
// injected faults, faults born by wear-out writes, and a live PcmSystem with
// Start-Gap moves and intra-line rotation churning the lines. Every window-
// composable line scheme runs: the count-exact codes (ECP, BCH), whose
// answers past the guarantee come from the prefix sums alone, and the
// partition codes (SAFER, Aegis), which still gather each window's faults.
#include "core/window.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/system.hpp"
#include "ecc/registry.hpp"

namespace pcmsim {
namespace {

constexpr std::uint8_t kSizes[] = {8, 17, 32, 64};
constexpr std::uint8_t kPreferred[] = {0, 13, 47, 63};

bool reference_fits(const HardErrorScheme& scheme, const PcmArray& array, std::size_t line,
                    std::uint8_t start, std::uint8_t size_bytes) {
  const auto faults = window_faults(array, line, start, size_bytes);
  return scheme.can_tolerate(faults, static_cast<std::size_t>(size_bytes) * 8);
}

std::optional<std::uint8_t> reference_find(const HardErrorScheme& scheme, const PcmArray& array,
                                           std::size_t line, std::uint8_t size_bytes,
                                           std::uint8_t preferred, SlidePolicy policy) {
  switch (policy) {
    case SlidePolicy::kStay:
      if (reference_fits(scheme, array, line, preferred, size_bytes)) return preferred;
      return std::nullopt;
    case SlidePolicy::kSlideUp:
      for (std::size_t start = preferred; start + size_bytes <= kBlockBytes; ++start) {
        if (reference_fits(scheme, array, line, static_cast<std::uint8_t>(start), size_bytes)) {
          return static_cast<std::uint8_t>(start);
        }
      }
      return std::nullopt;
    case SlidePolicy::kAnywhere:
      for (std::size_t i = 0; i < kBlockBytes; ++i) {
        const auto start = static_cast<std::uint8_t>((preferred + i) % kBlockBytes);
        if (reference_fits(scheme, array, line, start, size_bytes)) return start;
      }
      return std::nullopt;
  }
  return std::nullopt;
}

/// Checks every (start, size) fits and every (preferred, size, policy) find
/// against the uncached reference for one line.
void expect_line_coherent(const WindowPlacer& placer, const HardErrorScheme& scheme,
                          const PcmArray& array, std::size_t line) {
  for (const std::uint8_t size : kSizes) {
    for (std::size_t start = 0; start < kBlockBytes; ++start) {
      const auto s = static_cast<std::uint8_t>(start);
      ASSERT_EQ(placer.fits(array, line, s, size), reference_fits(scheme, array, line, s, size))
          << "fits mismatch line " << line << " start " << start << " size " << int{size}
          << " (line stuck count " << array.data_stuck_count(line) << ")";
    }
    for (const std::uint8_t preferred : kPreferred) {
      for (const SlidePolicy policy :
           {SlidePolicy::kStay, SlidePolicy::kSlideUp, SlidePolicy::kAnywhere}) {
        ASSERT_EQ(placer.find(array, line, size, preferred, policy),
                  reference_find(scheme, array, line, size, preferred, policy))
            << "find mismatch line " << line << " size " << int{size} << " preferred "
            << int{preferred} << " policy " << static_cast<int>(policy);
      }
    }
  }
}

/// The eagerly maintained per-line count and lazily rebuilt prefix sums must
/// both equal a direct scan of the stuck bitmap.
void expect_cache_matches_scan(const PcmArray& array, std::size_t line) {
  ASSERT_EQ(array.data_stuck_count(line), array.count_stuck(line, 0, kBlockBits));
  const auto prefix = array.byte_stuck_prefix(line);
  ASSERT_EQ(prefix.size(), kBlockBytes + 1);
  for (std::size_t b = 0; b <= kBlockBytes; ++b) {
    ASSERT_EQ(prefix[b], array.count_stuck(line, 0, b * 8))
        << "prefix mismatch line " << line << " byte " << b;
  }
}

class SchemePlacement : public ::testing::TestWithParam<const char*> {};

TEST_P(SchemePlacement, CoherentUnderInjectedFaults) {
  PcmDeviceConfig cfg;
  cfg.lines = 6;
  cfg.endurance_mean = 1e4;
  cfg.seed = 5;
  PcmArray array(cfg);
  const auto scheme = make_scheme(GetParam());
  const WindowPlacer placer(*scheme);

  Rng driver(404);
  // Densities from clean through "dodge-able" to saturated: the interesting
  // transitions are at guaranteed_correctable() per line and per window.
  for (std::size_t round = 0; round < 10; ++round) {
    for (std::size_t line = 0; line < cfg.lines; ++line) {
      const std::size_t births = 1 + driver.next_below(2 + round);
      for (std::size_t f = 0; f < births; ++f) {
        array.inject_fault(line, driver.next_below(kBlockBits), driver.next_bool(0.5));
      }
      expect_cache_matches_scan(array, line);
      expect_line_coherent(placer, *scheme, array, line);
    }
  }
}

TEST_P(SchemePlacement, CoherentUnderWearOutBirthsAndGapMoves) {
  // Faults born inside PcmSystem's write path (slow-path wear-out) with
  // Start-Gap copies and rotation moving windows around — the cache is
  // updated from on_fault_born, never rebuilt wholesale, so this catches any
  // birth site that forgets the bookkeeping.
  SystemConfig cfg;
  cfg.mode = SystemMode::kCompWF;
  cfg.device.lines = 33;  // 32 logical + gap line
  cfg.device.endurance_mean = 60;
  cfg.device.endurance_cov = 0.2;
  cfg.device.seed = 9;
  cfg.seed = 9;
  cfg.ecc_spec = GetParam();
  PcmSystem system(cfg);
  const auto scheme = make_scheme(GetParam());
  const WindowPlacer placer(*scheme);

  Rng driver(505);
  Block data{};
  const std::uint64_t logical_lines = system.logical_lines();
  for (std::size_t w = 0; w < 6000 && !system.failed(); ++w) {
    for (auto& b : data) b = static_cast<std::uint8_t>(driver.next_below(256));
    (void)system.write(driver.next_below(logical_lines), data);
    if (w % 500 == 0) {
      for (std::size_t line = 0; line < cfg.device.lines; ++line) {
        expect_cache_matches_scan(system.array(), line);
        expect_line_coherent(placer, *scheme, system.array(), line);
      }
    }
  }
  // Final sweep: by now many lines carry double-digit stuck counts.
  std::size_t total_stuck = 0;
  for (std::size_t line = 0; line < cfg.device.lines; ++line) {
    expect_cache_matches_scan(system.array(), line);
    expect_line_coherent(placer, *scheme, system.array(), line);
    total_stuck += system.array().data_stuck_count(line);
  }
  EXPECT_GT(total_stuck, 0u) << "run too short to birth any faults; weaken endurance";
}

INSTANTIATE_TEST_SUITE_P(WindowSchemes, SchemePlacement,
                         ::testing::Values("ecp6", "ecp12", "safer32", "aegis17x31", "bch-t2",
                                           "bch-t6"),
                         [](const ::testing::TestParamInfo<const char*>& param) {
                           std::string name = param.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(PlacementCache, SuiteCoversEveryWindowComposableLineScheme) {
  // The instantiation above must grow with the registry, and it must hold
  // both kinds of placement answer.
  std::size_t count_exact = 0;
  std::size_t gathered = 0;
  for (const auto& info : registered_schemes()) {
    if (!info.traits.composes_with_window ||
        info.traits.granularity != SchemeGranularity::kLine) {
      continue;
    }
    SCOPED_TRACE(std::string(info.spec));
    EXPECT_TRUE(info.spec == "ecp6" || info.spec == "ecp12" || info.spec == "safer32" ||
                info.spec == "aegis17x31" || info.spec == "bch-t2" || info.spec == "bch-t6");
    (info.traits.tolerance_is_count_exact ? count_exact : gathered) += 1;
  }
  EXPECT_EQ(count_exact, 4u);
  EXPECT_EQ(gathered, 2u);
}

TEST(PlacementCache, SlideUpRejectsOverhangEvenOnCleanLines) {
  // Regression guard for the clean-line fast path: kSlideUp must still refuse
  // a window that overhangs the line end, even with zero faults (the old loop
  // never ran its body in that case and returned nullopt).
  PcmDeviceConfig cfg;
  cfg.lines = 1;
  cfg.seed = 2;
  PcmArray array(cfg);
  const auto scheme = make_scheme("ecp6");
  const WindowPlacer placer(*scheme);
  EXPECT_EQ(placer.find(array, 0, 32, 40, SlidePolicy::kSlideUp), std::nullopt);
  EXPECT_EQ(placer.find(array, 0, 32, 32, SlidePolicy::kSlideUp), std::optional<std::uint8_t>{32});
  EXPECT_EQ(placer.find(array, 0, 32, 40, SlidePolicy::kAnywhere),
            std::optional<std::uint8_t>{40});
}

}  // namespace
}  // namespace pcmsim
