// System-level invariants checked across modes and seeds: accounting must
// balance, dead fractions stay bounded, runs are reproducible, and the
// per-mode feature switches derived from SystemMode hold.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "core/system.hpp"
#include "workload/trace.hpp"

namespace pcmsim {
namespace {

SystemConfig cfg_for(SystemMode mode, std::uint64_t seed, double endurance = 120.0) {
  SystemConfig cfg;
  cfg.mode = mode;
  cfg.device.lines = 96;
  cfg.device.endurance_mean = endurance;
  cfg.device.endurance_cov = 0.15;
  cfg.device.seed = seed;
  cfg.banks = 4;
  cfg.gap_interval = 50;
  cfg.seed = seed;
  return cfg;
}

class AllModes : public ::testing::TestWithParam<SystemMode> {};

TEST_P(AllModes, AccountingBalances) {
  PcmSystem sys(cfg_for(GetParam(), 3));
  const auto& app = profile_by_name("gcc");
  TraceGenerator gen(app, sys.logical_lines(), 3);
  for (int i = 0; i < 40000 && !sys.failed(); ++i) {
    const auto ev = gen.next();
    (void)sys.write(ev.line, ev.data);
  }
  const auto& st = sys.stats();
  // Every accepted write is stored exactly once; drops and deaths cover the rest.
  EXPECT_LE(st.compressed_writes + st.uncompressed_writes + st.dropped_writes, st.writes);
  const std::uint64_t failed_writes =
      st.writes - st.compressed_writes - st.uncompressed_writes - st.dropped_writes;
  // Failed writes are first deaths or failed recycle attempts on dead lines;
  // either way at least one uncorrectable event must have been recorded.
  if (failed_writes > 0) {
    EXPECT_GT(st.uncorrectable_events, 0u);
  }
  // Dead-line count must match a direct scan.
  std::uint64_t dead_scan = 0;
  for (std::uint64_t p = 0; p < sys.config().device.lines; ++p) {
    dead_scan += sys.line_meta(p).dead ? 1u : 0u;
  }
  EXPECT_EQ(dead_scan, st.lines_dead);
  EXPECT_GE(sys.dead_fraction(), 0.0);
  EXPECT_LE(sys.dead_fraction(), 1.0);
}

TEST_P(AllModes, RunsAreReproducible) {
  const auto mode = GetParam();
  auto run = [&](std::uint64_t seed) {
    PcmSystem sys(cfg_for(mode, seed));
    const auto& app = profile_by_name("milc");
    TraceGenerator gen(app, sys.logical_lines(), seed);
    for (int i = 0; i < 20000 && !sys.failed(); ++i) {
      const auto ev = gen.next();
      (void)sys.write(ev.line, ev.data);
    }
    return std::tuple(sys.stats().writes, sys.stats().lines_dead,
                      sys.array().total_programmed_bits(), sys.array().total_faults());
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(std::get<2>(run(7)), std::get<2>(run(8)));
}

TEST_P(AllModes, FeatureSwitchesMatchMode) {
  const auto cfg = cfg_for(GetParam(), 1);
  switch (cfg.mode) {
    case SystemMode::kBaseline:
      EXPECT_FALSE(cfg.compression_enabled());
      EXPECT_FALSE(cfg.rotation_enabled());
      EXPECT_FALSE(cfg.heuristic_enabled());
      EXPECT_FALSE(cfg.recycling_enabled());
      break;
    case SystemMode::kComp:
      EXPECT_TRUE(cfg.compression_enabled());
      EXPECT_FALSE(cfg.rotation_enabled());
      EXPECT_FALSE(cfg.heuristic_enabled());
      EXPECT_FALSE(cfg.recycling_enabled());
      break;
    case SystemMode::kCompW:
      EXPECT_TRUE(cfg.compression_enabled());
      EXPECT_TRUE(cfg.rotation_enabled());
      EXPECT_FALSE(cfg.heuristic_enabled());
      EXPECT_FALSE(cfg.recycling_enabled());
      break;
    case SystemMode::kCompWF:
      EXPECT_TRUE(cfg.compression_enabled());
      EXPECT_TRUE(cfg.rotation_enabled());
      EXPECT_TRUE(cfg.heuristic_enabled());
      EXPECT_TRUE(cfg.recycling_enabled());
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, AllModes,
                         ::testing::Values(SystemMode::kBaseline, SystemMode::kComp,
                                           SystemMode::kCompW, SystemMode::kCompWF),
                         [](const ::testing::TestParamInfo<SystemMode>& param_info) {
                           std::string n(to_string(param_info.param));
                           n.erase(std::remove(n.begin(), n.end(), '+'), n.end());
                           return n;
                         });

TEST(SystemInvariants, NonRecyclingModesNeverRevive) {
  for (auto mode : {SystemMode::kBaseline, SystemMode::kComp, SystemMode::kCompW}) {
    PcmSystem sys(cfg_for(mode, 5, /*endurance=*/60.0));
    const auto& app = profile_by_name("lbm");
    TraceGenerator gen(app, sys.logical_lines(), 5);
    std::uint64_t max_dead = 0;
    for (int i = 0; i < 120000 && !sys.failed(); ++i) {
      const auto ev = gen.next();
      (void)sys.write(ev.line, ev.data);
      // Without recycling the dead count is monotone non-decreasing.
      EXPECT_GE(sys.stats().lines_dead, max_dead) << to_string(mode);
      max_dead = std::max(max_dead, sys.stats().lines_dead);
    }
    EXPECT_EQ(sys.stats().recycled_lines, 0u) << to_string(mode);
  }
}

TEST(SystemInvariants, FlipsNeverExceedWindowBits) {
  PcmSystem sys(cfg_for(SystemMode::kCompWF, 9, 1e4));
  const auto& app = profile_by_name("bzip2");
  TraceGenerator gen(app, sys.logical_lines(), 9);
  for (int i = 0; i < 5000; ++i) {
    const auto ev = gen.next();
    const auto out = sys.write(ev.line, ev.data);
    if (out.stored) {
      EXPECT_LE(out.flips, static_cast<std::size_t>(out.size_bytes) * 8 + kBlockBits)
          << "flips bounded by window plus one gap-move copy";
    }
  }
}

TEST(SystemInvariants, GapMovesHappenAtConfiguredInterval) {
  auto cfg = cfg_for(SystemMode::kBaseline, 2, 1e4);
  cfg.gap_interval = 25;
  PcmSystem sys(cfg);
  const auto& app = profile_by_name("astar");
  TraceGenerator gen(app, sys.logical_lines(), 2);
  for (int i = 0; i < 1000; ++i) {
    const auto ev = gen.next();
    (void)sys.write(ev.line, ev.data);
  }
  EXPECT_EQ(sys.stats().gap_moves, 1000u / 25u);
}

}  // namespace
}  // namespace pcmsim
