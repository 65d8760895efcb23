// End-to-end data-integrity sweeps: PcmSystem in functional-verify mode over
// every hard-error scheme and every system mode — each stored line must read
// back bit-exactly even while cells wear out mid-run.
#include <gtest/gtest.h>

#include <map>

#include "core/system.hpp"
#include "workload/trace.hpp"

namespace pcmsim {
namespace {

struct Case {
  const char* ecc;  ///< registry scheme spec (ecc/registry.hpp)
  SystemMode mode;
  const char* app;
  double endurance;
};

class FunctionalSweep : public ::testing::TestWithParam<Case> {};

TEST_P(FunctionalSweep, ReadBackIsExactUnderWear) {
  const auto& param = GetParam();
  SystemConfig cfg;
  cfg.mode = param.mode;
  cfg.ecc_spec = param.ecc;
  cfg.device.lines = 48;
  cfg.device.endurance_mean = param.endurance;
  cfg.device.endurance_cov = 0.15;
  cfg.device.seed = 21;
  cfg.banks = 4;
  cfg.gap_interval = 40;
  cfg.seed = 21;
  cfg.functional_verify = true;
  PcmSystem sys(cfg);

  const auto& app = profile_by_name(param.app);
  TraceGenerator gen(app, sys.logical_lines(), 31);

  std::map<LineAddr, Block> expected;
  for (int i = 0; i < 12000 && !sys.failed(); ++i) {
    const auto ev = gen.next();
    const auto out = sys.write(ev.line, ev.data);
    if (out.stored) {
      expected[ev.line] = ev.data;
    } else {
      expected.erase(ev.line);
    }
    // Migration (gap moves) can kill or drop lines; prune stale entries.
    for (auto it = expected.begin(); it != expected.end();) {
      const auto& meta = sys.line_meta(sys.physical_of(it->first));
      it = (meta.dead || !meta.ever_written) ? expected.erase(it) : std::next(it);
    }
    // Spot-check a line every 50 writes to catch corruption early.
    if (i % 50 == 0 && !expected.empty()) {
      const auto& [line, data] = *expected.begin();
      ASSERT_EQ(sys.read(line), data) << "iteration " << i;
    }
  }
  ASSERT_FALSE(expected.empty());
  for (const auto& [line, data] : expected) {
    EXPECT_EQ(sys.read(line), data);
  }
  if (param.endurance < 120) {
    EXPECT_GT(sys.array().total_faults(), 0u) << "low-endurance case must exercise faults";
  }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndModes, FunctionalSweep,
    ::testing::Values(
        // Every scheme on the full proposal, with wear.
        Case{"ecp6", SystemMode::kCompWF, "milc", 80},
        Case{"safer32", SystemMode::kCompWF, "milc", 80},
        Case{"aegis17x31", SystemMode::kCompWF, "milc", 80},
        // Every mode on ECP-6.
        Case{"ecp6", SystemMode::kBaseline, "gcc", 100},
        Case{"ecp6", SystemMode::kComp, "gcc", 100},
        Case{"ecp6", SystemMode::kCompW, "gcc", 100},
        // SECDED only protects whole lines (Baseline).
        Case{"secded", SystemMode::kBaseline, "astar", 200},
        // High-endurance smoke on the volatile workload (heuristic active).
        Case{"ecp6", SystemMode::kCompWF, "bzip2", 5000},
        Case{"aegis17x31", SystemMode::kCompWF, "zeusmp", 60},
        // Registry extensions: BCH-t erasure correction (10t metadata bits,
        // 2t guaranteed) and word-level coset coding (consumes per-word
        // compression slack, so it needs a compression-enabled mode).
        Case{"ecp12", SystemMode::kCompWF, "milc", 80},
        Case{"bch-t2", SystemMode::kCompWF, "milc", 80},
        Case{"bch-t6", SystemMode::kCompWF, "milc", 80},
        Case{"bch-t6", SystemMode::kCompW, "gcc", 100},
        Case{"coset-w4", SystemMode::kCompWF, "milc", 80},
        Case{"coset-w4", SystemMode::kComp, "gcc", 100},
        Case{"coset-w8", SystemMode::kCompWF, "gcc", 100}),
    [](const ::testing::TestParamInfo<Case>& param_info) {
      std::string n = std::string(make_scheme(param_info.param.ecc)->name()) + "_" +
                      std::string(to_string(param_info.param.mode)) + "_" + param_info.param.app;
      for (auto& c : n) {
        if (c == '-' || c == '+' || c == '.') c = '_';
      }
      return n;
    });

TEST(FunctionalEcc, SecdedWithCompressionIsRejected) {
  SystemConfig cfg;
  cfg.ecc_spec = "secded";
  cfg.mode = SystemMode::kCompWF;
  cfg.device.lines = 8;
  EXPECT_THROW(PcmSystem sys(cfg), ContractViolation);
}

TEST(FunctionalEcc, CosetWithoutCompressionIsRejected) {
  SystemConfig cfg;
  cfg.ecc_spec = "coset-w4";
  cfg.mode = SystemMode::kBaseline;
  cfg.device.lines = 8;
  EXPECT_THROW(PcmSystem sys(cfg), ContractViolation);
}

TEST(FunctionalEcc, SpecStringIsTheOnlySelector) {
  SystemConfig cfg;
  cfg.device.lines = 8;
  EXPECT_EQ(cfg.ecc_spec, "ecp6");  // the paper's default scheme
  EXPECT_EQ(PcmSystem(cfg).scheme().name(), make_scheme("ecp6")->name());
  cfg.ecc_spec = "bch-t2";
  EXPECT_EQ(PcmSystem(cfg).scheme().name(), make_scheme("bch-t2")->name());
  // An empty or unknown spec fails loudly instead of falling back.
  for (const char* bad : {"", "ECP6", "ecp13"}) {
    cfg.ecc_spec = bad;
    EXPECT_THROW(PcmSystem sys(cfg), ContractViolation) << bad;
  }
}

}  // namespace
}  // namespace pcmsim
