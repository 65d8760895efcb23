// SampledTraceSource calibration against TraceGenerator, plus the value-model
// decomposition identity the sampler's incremental advance relies on.
//
// The two sources share fold_rank / initial_line_shape / ClassAssigner and
// the (line, shape, version) -> Block value function, so class assignment is
// exactly equal and value trajectories are identical functions of state. Only
// the RNG consumption order differs, which leaves the *distributions* —
// line popularity, shape-redraw rate, per-line rewrite counts — equivalent
// without the streams being bit-identical. The Zipf alias table the sampler
// draws from is shared across live sources of one app; the ZipfAliasTable
// suite pins its contents, sharing and lifetime.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/zipf.hpp"
#include "trace/sampled_source.hpp"
#include "trace/trace_source.hpp"
#include "workload/app_profile.hpp"
#include "workload/value_model.hpp"

namespace pcmsim {
namespace {

constexpr std::uint64_t kRegion = 512;
constexpr std::uint64_t kSeed = 97;

std::vector<WritebackEvent> drain(TraceSource& source, std::size_t n,
                                  std::size_t batch_size = 256) {
  std::vector<WritebackEvent> out(n);
  std::size_t done = 0;
  while (done < n) {
    const std::size_t want = std::min(batch_size, n - done);
    done += source.next_batch(std::span(out.data() + done, want));
  }
  return out;
}

// The decomposition contract: generate_static_base + apply_dynamic must equal
// generate_value at every version, and reverting the touched words of version
// v then applying version v+1 must equal generate_value at v+1. This is
// precisely the incremental step SampledTraceSource::produce runs.
TEST(ValueModelDecomposition, MatchesFromScratchGenerationIncrementally) {
  for (const char* name : {"gcc", "milc", "lbm", "zeusmp", "mcf"}) {
    const AppProfile& app = profile_by_name(name);
    for (std::uint64_t line = 0; line < 40; ++line) {
      const ValueClassSpec& spec = app.classes[line % app.classes.size()];
      const auto shape = initial_line_shape(line, kSeed);
      const ValueGenContext ctx = make_gen_context(spec, line, shape);
      Block base{};
      generate_static_base(spec, ctx, base);

      Block incremental = base;
      std::uint16_t touched = apply_dynamic(spec, ctx, line, shape, 0, incremental);
      for (std::uint32_t version = 0; version < 24; ++version) {
        ASSERT_EQ(incremental, generate_value(spec, line, shape, version))
            << name << " line " << line << " version " << version;
        // Advance: revert touched words to base, overlay the next version.
        std::uint16_t m = touched;
        while (m != 0) {
          const unsigned w = static_cast<unsigned>(std::countr_zero(m));
          m = static_cast<std::uint16_t>(m & (m - 1));
          std::memcpy(incremental.data() + w * 4, base.data() + w * 4, 4);
        }
        touched = apply_dynamic(spec, ctx, line, shape, version + 1, incremental);
      }
    }
  }
}

TEST(SampledTraceSource, ClassAssignmentMatchesGeneratorExactly) {
  const AppProfile& app = profile_by_name("gcc");
  TraceGenerator gen(app, kRegion, kSeed);
  SampledTraceSource sampled(app, kRegion, kSeed);
  for (std::uint64_t line = 0; line < kRegion; ++line) {
    EXPECT_EQ(&gen.class_of(line) - gen.app().classes.data(),
              &sampled.class_of(line) - sampled.app().classes.data())
        << "line " << line;
  }
}

TEST(SampledTraceSource, PopularityDistributionMatchesGenerator) {
  const AppProfile& app = profile_by_name("milc");
  constexpr std::size_t kEvents = 200000;

  TraceGenerator gen(app, kRegion, kSeed);
  std::vector<std::uint64_t> gen_counts(kRegion, 0);
  for (std::size_t i = 0; i < kEvents; ++i) ++gen_counts[gen.next().line];

  SampledTraceSource sampled(app, kRegion, kSeed);
  std::vector<std::uint64_t> sam_counts(kRegion, 0);
  for (const auto& ev : drain(sampled, kEvents)) ++sam_counts[ev.line];

  // Two-sample KS over the line-index ordering: both sources draw ranks from
  // the same Zipf pmf and fold them with the same hash, so their per-line
  // distributions agree. D_crit at alpha=0.001 for n=m=200k is ~0.0062; 0.02
  // leaves wide margin while still catching any real miscalibration (e.g. a
  // wrong theta changes head mass by far more).
  double cdf_gap = 0.0;
  double cg = 0.0;
  double cs = 0.0;
  for (std::uint64_t line = 0; line < kRegion; ++line) {
    cg += static_cast<double>(gen_counts[line]) / kEvents;
    cs += static_cast<double>(sam_counts[line]) / kEvents;
    cdf_gap = std::max(cdf_gap, std::abs(cg - cs));
  }
  EXPECT_LT(cdf_gap, 0.02);

  // The popular-head mass must also agree pointwise (relative), not just in
  // the aggregate CDF: compare every line that holds >=1% of the traffic.
  for (std::uint64_t line = 0; line < kRegion; ++line) {
    const double pg = static_cast<double>(gen_counts[line]) / kEvents;
    const double ps = static_cast<double>(sam_counts[line]) / kEvents;
    if (pg >= 0.01) {
      EXPECT_NEAR(ps / pg, 1.0, 0.15) << "line " << line;
    }
  }
}

TEST(SampledTraceSource, RedrawAndTouchRatesMatchGenerator) {
  const AppProfile& app = profile_by_name("gcc");
  constexpr std::size_t kEvents = 200000;

  TraceGenerator gen(app, kRegion, kSeed);
  for (std::size_t i = 0; i < kEvents; ++i) (void)gen.next();
  SampledTraceSource sampled(app, kRegion, kSeed);
  (void)drain(sampled, kEvents);

  // Shape redraws happen per *rewrite* with probability shape_redraw_prob in
  // both sources; at 200k events over 512 lines nearly every event is a
  // rewrite, so both rates concentrate tightly around the configured value.
  const double gen_rate = static_cast<double>(gen.shape_redraws()) / kEvents;
  const double sam_rate = static_cast<double>(sampled.shape_redraws()) / kEvents;
  EXPECT_NEAR(gen_rate, app.shape_redraw_prob, 0.2 * app.shape_redraw_prob + 1e-4);
  EXPECT_NEAR(sam_rate, app.shape_redraw_prob, 0.2 * app.shape_redraw_prob + 1e-4);
  EXPECT_NEAR(sam_rate, gen_rate, 0.25 * gen_rate + 1e-4);

  // Both working sets fold onto the same region with the same hash, so the
  // set of lines ever touched is the same size (every fold target is hit
  // eventually; at 200k events both have saturated the reachable set).
  EXPECT_EQ(gen.touched_lines(), sampled.touched_lines());
}

TEST(SampledTraceSource, ValueStreamIsDistributionallyCalibrated) {
  // Same-class lines produce values from the same model, so summary
  // statistics of the value stream — here mean zero-byte fraction, the main
  // driver of compressibility — must agree between sources.
  const AppProfile& app = profile_by_name("zeusmp");
  constexpr std::size_t kEvents = 50000;

  TraceGenerator gen(app, kRegion, kSeed);
  std::uint64_t gen_zeros = 0;
  for (std::size_t i = 0; i < kEvents; ++i) {
    for (const auto b : gen.next().data) gen_zeros += (b == 0);
  }
  SampledTraceSource sampled(app, kRegion, kSeed);
  std::uint64_t sam_zeros = 0;
  for (const auto& ev : drain(sampled, kEvents)) {
    for (const auto b : ev.data) sam_zeros += (b == 0);
  }
  const double gen_frac = static_cast<double>(gen_zeros) / (kEvents * kBlockBytes);
  const double sam_frac = static_cast<double>(sam_zeros) / (kEvents * kBlockBytes);
  EXPECT_NEAR(sam_frac, gen_frac, 0.03) << "gen " << gen_frac << " sam " << sam_frac;
}

TEST(SampledTraceSource, DeterministicAcrossBatchSizesAndReset) {
  const AppProfile& app = profile_by_name("gcc");
  constexpr std::size_t kEvents = 5000;

  SampledTraceSource a(app, kRegion, kSeed);
  SampledTraceSource b(app, kRegion, kSeed);
  const auto ea = drain(a, kEvents, 256);
  const auto eb = drain(b, kEvents, 17);  // ragged batches: same stream
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    ASSERT_EQ(ea[i].line, eb[i].line) << i;
    ASSERT_EQ(ea[i].data, eb[i].data) << i;
  }

  a.reset();
  EXPECT_EQ(a.events(), 0u);
  const auto again = drain(a, kEvents, 64);
  for (std::size_t i = 0; i < ea.size(); ++i) {
    ASSERT_EQ(ea[i].line, again[i].line) << i;
    ASSERT_EQ(ea[i].data, again[i].data) << i;
  }
  EXPECT_EQ(a.events(), kEvents);
}

TEST(SampledTraceSource, CurrentValueTracksLastEvent) {
  const AppProfile& app = profile_by_name("milc");
  SampledTraceSource sampled(app, kRegion, kSeed);
  std::vector<Block> last(kRegion);
  bool seen[kRegion] = {};
  for (const auto& ev : drain(sampled, 20000)) {
    last[ev.line] = ev.data;
    seen[ev.line] = true;
  }
  for (std::uint64_t line = 0; line < kRegion; ++line) {
    if (seen[line]) {
      EXPECT_EQ(sampled.current_value(line), last[line]) << "line " << line;
    } else {
      EXPECT_EQ(sampled.current_value(line), zero_block()) << "line " << line;
    }
  }
}

void expect_same_stream(const std::vector<WritebackEvent>& a,
                        const std::vector<WritebackEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].line, b[i].line) << i;
    ASSERT_EQ(a[i].data, b[i].data) << i;
  }
}

// The per-source Walker/Vose construction the shared table replaced, kept
// verbatim (separate weight array, two growing vector stacks) as the oracle
// for the in-place, single-buffer build.
ZipfAliasTable oracle_alias(std::uint64_t n, double theta) {
  std::vector<double> w(n);
  double total = 0.0;
  for (std::uint64_t k = 0; k < n; ++k) {
    w[k] = 1.0 / std::pow(static_cast<double>(k + 1), theta);
    total += w[k];
  }
  ZipfAliasTable t;
  t.prob.assign(n, 1.0);
  t.alias.resize(n);
  for (std::uint64_t k = 0; k < n; ++k) t.alias[k] = static_cast<std::uint32_t>(k);
  const double scale = static_cast<double>(n) / total;
  std::vector<std::uint32_t> small;
  std::vector<std::uint32_t> large;
  for (std::uint64_t k = 0; k < n; ++k) {
    t.prob[k] = w[k] * scale;
    (t.prob[k] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(k));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    large.pop_back();
    t.alias[s] = l;
    t.prob[l] -= 1.0 - t.prob[s];
    (t.prob[l] < 1.0 ? small : large).push_back(l);
  }
  for (const std::uint32_t k : small) t.prob[k] = 1.0;
  for (const std::uint32_t k : large) t.prob[k] = 1.0;
  return t;
}

TEST(ZipfAliasTable, MatchesPerSourceBuildBitForBit) {
  std::vector<std::pair<std::uint64_t, double>> cases = {{1, 0.8}, {2, 0.8}, {2, 0.0}};
  for (const AppProfile& app : spec2006_profiles()) {
    cases.emplace_back(app.working_set_lines, app.zipf_theta);
  }
  for (const auto& [n, theta] : cases) {
    SCOPED_TRACE(testing::Message() << "n " << n << " theta " << theta);
    const auto table = ZipfAliasTable::shared(n, theta);
    const ZipfAliasTable want = oracle_alias(n, theta);
    ASSERT_EQ(table->prob.size(), n);
    ASSERT_EQ(table->alias.size(), n);
    for (std::uint64_t k = 0; k < n; ++k) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(table->prob[k]),
                std::bit_cast<std::uint64_t>(want.prob[k]))
          << "prob[" << k << "]";
      ASSERT_EQ(table->alias[k], want.alias[k]) << "alias[" << k << "]";
    }
  }
}

TEST(ZipfAliasTable, SourcesOfOneAppShareOneTable) {
  const AppProfile& gcc = profile_by_name("gcc");
  const SampledTraceSource a(gcc, kRegion, kSeed);
  const SampledTraceSource b(gcc, kRegion * 2, kSeed + 1);
  EXPECT_EQ(a.alias_table().get(), b.alias_table().get());

  AppProfile other_theta = gcc;
  other_theta.zipf_theta += 0.05;
  AppProfile other_n = gcc;
  other_n.working_set_lines /= 2;
  const SampledTraceSource c(other_theta, kRegion, kSeed);
  const SampledTraceSource d(other_n, kRegion, kSeed);
  const SampledTraceSource e(profile_by_name("milc"), kRegion, kSeed);
  for (const SampledTraceSource* s : {&c, &d, &e}) {
    EXPECT_NE(a.alias_table().get(), s->alias_table().get()) << s->app().name;
  }
  EXPECT_EQ(d.alias_table()->prob.size(), other_n.working_set_lines);
}

TEST(ZipfAliasTable, FreedWithItsLastSourceAndRebuiltIdentically) {
  const AppProfile& app = profile_by_name("lbm");
  constexpr std::size_t kEvents = 4000;
  std::weak_ptr<const ZipfAliasTable> weak;
  std::vector<WritebackEvent> while_alive;
  {
    const SampledTraceSource holder(app, kRegion, kSeed + 1);
    SampledTraceSource source(app, kRegion, kSeed);
    weak = source.alias_table();
    while_alive = drain(source, kEvents);
    EXPECT_FALSE(weak.expired());
  }
  EXPECT_TRUE(weak.expired()) << "the table outlived every source of its app";

  SampledTraceSource rebuilt(app, kRegion, kSeed);
  expect_same_stream(drain(rebuilt, kEvents), while_alive);
}

TEST(ZipfAliasTable, ConcurrentConstructionSharesOneTable) {
  const AppProfile& app = profile_by_name("milc");
  constexpr std::size_t kSources = 8;
  constexpr std::size_t kEvents = 2000;
  set_parallel_threads(4);
  std::vector<std::unique_ptr<SampledTraceSource>> sources(kSources);
  parallel_for(kSources, [&](std::size_t i) {
    sources[i] = std::make_unique<SampledTraceSource>(app, kRegion, kSeed);
  });
  std::vector<std::vector<WritebackEvent>> streams(kSources);
  parallel_for(kSources, [&](std::size_t i) { streams[i] = drain(*sources[i], kEvents); });
  set_parallel_threads(0);
  for (std::size_t i = 1; i < kSources; ++i) {
    EXPECT_EQ(sources[i]->alias_table().get(), sources[0]->alias_table().get()) << i;
    expect_same_stream(streams[i], streams[0]);
  }
}

TEST(GeneratorTraceSource, MatchesRawGeneratorBitExactly) {
  const AppProfile& app = profile_by_name("gcc");
  TraceGenerator gen(app, kRegion, kSeed);
  GeneratorTraceSource source(app, kRegion, kSeed);
  const auto events = drain(source, 3000, 100);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const WritebackEvent expect = gen.next();
    ASSERT_EQ(events[i].line, expect.line) << i;
    ASSERT_EQ(events[i].data, expect.data) << i;
  }
  // reset() restores the stream from the top.
  source.reset();
  std::vector<WritebackEvent> head(10);
  (void)source.next_batch(head);
  for (std::size_t i = 0; i < head.size(); ++i) {
    ASSERT_EQ(head[i].line, events[i].line);
    ASSERT_EQ(head[i].data, events[i].data);
  }
}

}  // namespace
}  // namespace pcmsim
