#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/types.hpp"
#include "common/zipf.hpp"

namespace pcmsim {
namespace {

// ---------------------------------------------------------------- RNG
TEST(Rng, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
  Rng c(124);
  EXPECT_NE(a(), c());
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
  EXPECT_THROW((void)rng.next_below(0), ContractViolation);
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng(11);
  int counts[10] = {};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.next_below(10)];
  for (int c : counts) {
    EXPECT_GT(c, n / 10 - 600);
    EXPECT_LT(c, n / 10 + 600);
  }
}

TEST(Rng, NormalHasRequestedMoments) {
  Rng rng(13);
  RunningStat s;
  for (int i = 0; i < 200000; ++i) s.add(rng.next_normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, LognormalMatchesMeanAndCov) {
  Rng rng(17);
  RunningStat s;
  for (int i = 0; i < 200000; ++i) s.add(rng.next_lognormal_mean_cov(1000.0, 0.15));
  EXPECT_NEAR(s.mean(), 1000.0, 5.0);
  EXPECT_NEAR(s.stddev() / s.mean(), 0.15, 0.01);
  EXPECT_GT(s.min(), 0.0);
}

TEST(Rng, LognormalZeroCovIsDegenerate) {
  Rng rng(19);
  EXPECT_DOUBLE_EQ(rng.next_lognormal_mean_cov(42.0, 0.0), 42.0);
}

// ---------------------------------------------------------------- Zipf
TEST(Zipf, PmfDecreasesWithRank) {
  ZipfSampler z(100, 0.8);
  for (std::uint64_t k = 1; k < 100; ++k) EXPECT_GE(z.pmf(k - 1), z.pmf(k));
}

TEST(Zipf, ThetaZeroIsUniform) {
  ZipfSampler z(50, 0.0);
  for (std::uint64_t k = 0; k < 50; ++k) EXPECT_NEAR(z.pmf(k), 1.0 / 50, 1e-12);
}

TEST(Zipf, HigherThetaConcentratesMass) {
  Rng rng(3);
  ZipfSampler flat(1000, 0.2);
  ZipfSampler steep(1000, 1.2);
  int flat_top = 0;
  int steep_top = 0;
  for (int i = 0; i < 20000; ++i) {
    flat_top += flat.sample(rng) < 10 ? 1 : 0;
    steep_top += steep.sample(rng) < 10 ? 1 : 0;
  }
  EXPECT_GT(steep_top, flat_top * 3);
}

TEST(Zipf, SamplesCoverUniverse) {
  Rng rng(5);
  ZipfSampler z(8, 0.5);
  bool seen[8] = {};
  for (int i = 0; i < 5000; ++i) seen[z.sample(rng)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

// ---------------------------------------------------------------- Stats
TEST(RunningStat, MatchesClosedForm) {
  RunningStat s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.variance(), 1.25);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(RunningStat, MergeEqualsSingleAccumulator) {
  Rng rng(9);
  RunningStat whole;
  RunningStat a;
  RunningStat b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double() * 10;
    whole.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
}

TEST(Histogram, QuantileAndCdfAgree) {
  Histogram h(0, 100, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.cdf(50.0), 0.5, 0.02);
  EXPECT_NEAR(h.cdf(100.0), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(h.cdf(0.0), 0.0);
}

TEST(Histogram, OutOfRangeClampsToEdges) {
  Histogram h(0, 10, 10);
  h.add(-5);
  h.add(15);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(9), 1u);
  EXPECT_EQ(h.total(), 2u);
}

TEST(EmpiricalCdf, QuantilesInterpolate) {
  EmpiricalCdf c;
  for (double x : {10.0, 20.0, 30.0, 40.0}) c.add(x);
  EXPECT_DOUBLE_EQ(c.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(c.quantile(1.0), 40.0);
  EXPECT_DOUBLE_EQ(c.quantile(0.5), 25.0);
  EXPECT_DOUBLE_EQ(c.at(20.0), 0.5);
  EXPECT_DOUBLE_EQ(c.at(9.0), 0.0);
  EXPECT_DOUBLE_EQ(c.at(45.0), 1.0);
}

// ---------------------------------------------------------------- types.hpp
TEST(Bits, HammingDistanceCountsDifferences) {
  Block a{};
  Block b{};
  EXPECT_EQ(hamming_distance(a, b), 0u);
  b[0] = 0xFF;
  b[63] = 0x0F;
  EXPECT_EQ(hamming_distance(a, b), 12u);
}

TEST(Bits, GetSetBitRoundTrips) {
  std::vector<std::uint8_t> buf(8, 0);
  for (std::size_t i : {0u, 1u, 7u, 8u, 35u, 63u}) {
    set_bit(buf, i, true);
    EXPECT_TRUE(get_bit(buf, i));
    set_bit(buf, i, false);
    EXPECT_FALSE(get_bit(buf, i));
  }
}

TEST(Bits, LoadStoreLittleEndian) {
  std::vector<std::uint8_t> buf(16, 0);
  store_le<std::uint32_t>(buf, 4, 0xA1B2C3D4u);
  EXPECT_EQ(buf[4], 0xD4);
  EXPECT_EQ(buf[7], 0xA1);
  EXPECT_EQ(load_le<std::uint32_t>(buf, 4), 0xA1B2C3D4u);
}

// ---------------------------------------------------------------- table/CLI
TEST(Table, RendersAlignedAndCsv) {
  TablePrinter t({"a", "bb"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print(os, "T");
  EXPECT_NE(os.str().find("| a | bb |"), std::string::npos);
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_EQ(csv.str(), "a,bb\n1,2\n");
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(Cli, ParsesFlagsAndValues) {
  const char* argv[] = {"prog", "--csv", "--writes", "100", "--rate=0.5", "--name", "milc"};
  CliArgs args(7, argv);
  EXPECT_TRUE(args.get_bool("csv"));
  EXPECT_EQ(args.get_int("writes", 0), 100);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0), 0.5);
  EXPECT_EQ(args.get("name", ""), "milc");
  EXPECT_EQ(args.get_int("absent", 7), 7);
  EXPECT_FALSE(args.get_bool("absent"));
}

TEST(Cli, NumbersParseTheWholeTokenAndCountsRejectNegatives) {
  const char* argv[] = {"prog", "--junk", "16x", "--exp", "2e4", "--neg", "-5",
                        "--big", "18446744073709551615", "--huge", "18446744073709551616",
                        "--empty=", "--rate", "1e-3"};
  const CliArgs args(14, argv);
  EXPECT_THROW((void)args.get_int("junk", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_uint("junk", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_int("exp", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_int("empty", 0), std::invalid_argument);
  EXPECT_EQ(args.get_int("neg", 0), -5);
  EXPECT_THROW((void)args.get_uint("neg", 0), std::invalid_argument);
  EXPECT_EQ(args.get_uint("big", 0), 18446744073709551615ull);
  EXPECT_THROW((void)args.get_uint("huge", 0), std::out_of_range);
  EXPECT_THROW((void)args.get_int("big", 0), std::out_of_range);
  EXPECT_DOUBLE_EQ(args.get_double("exp", 0), 2e4);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0), 1e-3);
  EXPECT_THROW((void)args.get_double("junk", 0), std::invalid_argument);
  EXPECT_EQ(args.get_uint("absent", 9), 9u);
  // The message names the flag and echoes the offending token.
  try {
    (void)args.get_uint("neg", 0);
    FAIL() << "negative count accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--neg"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("'-5'"), std::string::npos) << e.what();
  }
  EXPECT_EQ(parse_uint("12", "list"), 12u);
  EXPECT_THROW((void)parse_uint("12,", "list"), std::invalid_argument);
}

TEST(Cli, RejectsStrayPositionals) {
  const char* argv[] = {"prog", "oops"};
  EXPECT_THROW(CliArgs(2, argv), std::invalid_argument);
}

}  // namespace
}  // namespace pcmsim
