// Write-path microbenchmark: times the steady-state stages of one serviced
// write-back in isolation — best-of(BDI,FPC) size planning (the fused-scan
// probe the write path runs per write), legacy full compression, Flip-N-Write
// encoding — and the full PcmSystem::write loop, emitting machine-readable
// JSON (see BENCH_writepath.json for committed before/after numbers).
//
// The system.write stage runs a wear-free steady state: the region is large
// and endurance high relative to the measured write count, so the loop
// exercises exactly the path every lifetime/MC experiment spends its time in
// (compress -> heuristic -> place -> differential write), not fault handling.
// A separate aged-array stage measures window placement at 0/8/32 stuck
// cells per line, the regime the fault-state caches accelerate.
//
// The aged phase covers what the fresh loop cannot reach: a milc stream wears
// a small CompWF + ECP-6 array to failure (50 % dead capacity), and an
// identical second run times a window of writes at 0/25/50/75 % of that
// lifetime — near end of life lines carry dozens of stuck cells and every
// write searches for a window that dodges them. It reports ns/op per point
// (plus the stage table under `--profile`) and its own work checksum.
//
// `--profile` adds the per-stage cycle counters (common/profiler.hpp) to the
// JSON; `--expect_checksum N` / `--expect_aged_checksum N` exit non-zero when
// the deterministic work checksum of the fresh / aged phase deviates — CI
// runs these to catch perf refactors that silently change behaviour (see
// bench/CMakeLists.txt).
#include <algorithm>
#include <array>
#include <chrono>
#include <iostream>
#include <sstream>
#include <vector>

#include "common/cli.hpp"
#include "common/profiler.hpp"
#include "common/rng.hpp"
#include "compression/best_of.hpp"
#include "core/system.hpp"
#include "pcm/flip_n_write.hpp"
#include "trace/sampled_source.hpp"
#include "trace/trace_source.hpp"
#include "workload/trace.hpp"

using namespace pcmsim;

namespace {

using Clock = std::chrono::steady_clock;

double ns_per_op(Clock::time_point t0, Clock::time_point t1, std::size_t ops) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
  return static_cast<double>(ns) / static_cast<double>(ops);
}

/// Placement cost on lines aged to `faults_per_line` stuck cells: kAnywhere
/// find() of a 32-byte window (the median compressed size) over every line.
double place_ns_per_find(std::size_t faults_per_line, std::uint64_t seed) {
  PcmDeviceConfig cfg;
  cfg.lines = 256;
  cfg.seed = seed;
  PcmArray array(cfg);
  Rng rng(mix64(seed, faults_per_line));
  for (std::size_t line = 0; line < cfg.lines; ++line) {
    for (std::size_t f = 0; f < faults_per_line; ++f) {
      array.inject_fault(line, rng.next_below(kBlockBits), rng.next_bool(0.5));
    }
  }
  const auto scheme = make_scheme("ecp6");
  const WindowPlacer placer(*scheme);
  constexpr std::size_t kIters = 200;
  std::size_t sink = 0;
  const auto t0 = Clock::now();
  for (std::size_t it = 0; it < kIters; ++it) {
    for (std::size_t line = 0; line < cfg.lines; ++line) {
      const auto preferred = static_cast<std::uint8_t>((line * 7 + it) % kBlockBytes);
      const auto start = placer.find(array, line, 32, preferred, SlidePolicy::kAnywhere);
      sink += start ? *start : kBlockBytes;
    }
  }
  const auto t1 = Clock::now();
  const double ns = ns_per_op(t0, t1, kIters * cfg.lines);
  return sink == 0 ? ns + 1e-9 : ns;  // sink defeats dead-code elimination
}

/// Aged-phase shape: small and short-lived enough that the wear-out run and
/// its timed replay take well under a second; its lines still die carrying
/// ~25 stuck cells (~30 in the full-size lifetime runs), far past ECP-6's
/// guarantee, so placement searches as it does near end of life.
constexpr std::uint64_t kAgedLines = 64;
constexpr double kAgedEndurance = 200;
constexpr std::size_t kAgedWindow = 4096;  ///< writes timed per point
constexpr std::array<double, 4> kAgedPoints = {0.0, 0.25, 0.5, 0.75};

struct StageSnapshot {
  std::array<std::uint64_t, prof::kStageCount> ticks{};
  std::array<std::uint64_t, prof::kStageCount> calls{};

  static StageSnapshot now() {
    StageSnapshot snap;
    for (std::size_t i = 0; i < prof::kStageCount; ++i) {
      snap.ticks[i] = prof::stage_ticks(static_cast<prof::Stage>(i));
      snap.calls[i] = prof::stage_calls(static_cast<prof::Stage>(i));
    }
    return snap;
  }
};

struct AgedPoint {
  double consumed = 0;
  double ns_per_op = 0;
  StageSnapshot stages;  ///< stage deltas over the timed window
};

struct AgedResult {
  std::uint64_t lifetime_writes = 0;
  double faults_at_death = 0;  ///< mean stuck cells per dead line (replay)
  std::size_t window = 0;
  std::vector<AgedPoint> points;
  std::uint64_t checksum = 0;
};

AgedResult run_aged(std::uint64_t seed) {
  SystemConfig cfg;
  cfg.device.lines = kAgedLines + 1;  // + gap line
  cfg.device.endurance_mean = kAgedEndurance;
  cfg.device.seed = seed;
  cfg.seed = seed;

  const AppProfile& milc = profile_by_name("milc");
  AgedResult out;
  {
    // Wear-out run: the lifetime every point is a fraction of.
    PcmSystem system(cfg);
    SampledTraceSource source(milc, kAgedLines, seed);
    TraceCursor stream(source);
    while (!system.failed()) {
      const WritebackEvent ev = stream.next();
      (void)system.write(ev.line, ev.data);
      ++out.lifetime_writes;
    }
  }
  out.window = std::min<std::size_t>(kAgedWindow, out.lifetime_writes / 4);

  // Replay: the same stream on the same array, timing `window` writes at each
  // point. Events of a window are drawn before its clock starts.
  PcmSystem system(cfg);
  SampledTraceSource source(milc, kAgedLines, seed);
  TraceCursor stream(source);
  std::uint64_t written = 0;
  std::uint64_t flips = 0;
  std::vector<WritebackEvent> window(out.window);
  for (const double consumed : kAgedPoints) {
    const auto target =
        static_cast<std::uint64_t>(consumed * static_cast<double>(out.lifetime_writes));
    for (; written < target; ++written) {
      const WritebackEvent ev = stream.next();
      flips += system.write(ev.line, ev.data).flips;
    }
    for (auto& ev : window) ev = stream.next();
    const StageSnapshot before = StageSnapshot::now();
    const auto t0 = Clock::now();
    for (const auto& ev : window) flips += system.write(ev.line, ev.data).flips;
    const auto t1 = Clock::now();
    const StageSnapshot after = StageSnapshot::now();
    written += window.size();
    AgedPoint point;
    point.consumed = consumed;
    point.ns_per_op = ns_per_op(t0, t1, window.size());
    for (std::size_t i = 0; i < prof::kStageCount; ++i) {
      point.stages.ticks[i] = after.ticks[i] - before.ticks[i];
      point.stages.calls[i] = after.calls[i] - before.calls[i];
    }
    out.points.push_back(point);
  }

  // The work checksum: lifetime, programmed bits, placement outcomes and
  // the fault map the replay left behind.
  const SystemStats& st = system.stats();
  std::uint64_t stuck = 0;
  for (std::uint64_t line = 0; line < cfg.device.lines; ++line) {
    stuck += system.array().data_stuck_count(line);
  }
  std::uint64_t h = mix64(out.lifetime_writes, flips);
  for (const std::uint64_t v : {st.compressed_writes, st.window_slides, st.recycled_lines,
                                st.lines_dead, st.uncorrectable_events, stuck}) {
    h = mix64(h, v);
  }
  out.checksum = h;
  out.faults_at_death = st.faults_at_death.mean();
  return out;
}

void print_aged(std::ostream& os, const AgedResult& aged) {
  os << "  \"aged\": {\n"
     << "    \"lines\": " << kAgedLines << ", \"endurance\": " << kAgedEndurance
     << ", \"app\": \"milc\", \"ecc\": \"ecp6\", \"mode\": \"CompWF\",\n"
     << "    \"lifetime_writes\": " << aged.lifetime_writes
     << ", \"faults_at_death\": " << aged.faults_at_death
     << ", \"window_writes\": " << aged.window << ",\n"
     << "    \"points\": [";
  for (std::size_t p = 0; p < aged.points.size(); ++p) {
    const AgedPoint& pt = aged.points[p];
    os << (p ? "," : "") << "\n      {\"consumed\": " << pt.consumed
       << ", \"ns_per_op\": " << pt.ns_per_op;
    if (prof::enabled()) {
      os << ", \"stages\": {";
      bool first = true;
      for (std::size_t i = 0; i < prof::kStageCount; ++i) {
        if (pt.stages.calls[i] == 0) continue;
        os << (first ? "" : ", ") << "\"" << prof::stage_name(static_cast<prof::Stage>(i))
           << "\": {\"ticks\": " << pt.stages.ticks[i] << ", \"calls\": " << pt.stages.calls[i]
           << "}";
        first = false;
      }
      os << "}";
    }
    os << "}";
  }
  os << "\n    ],\n    \"checksum\": " << aged.checksum << "\n  }";
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const auto writes = static_cast<std::size_t>(args.get_uint("writes", 200000));
  const auto lines = args.get_uint("lines", 4096);
  const std::uint64_t seed = args.get_uint("seed", 42);
  const auto expect_checksum = args.get_int("expect_checksum", -1);
  const bool check_aged = args.has("expect_aged_checksum");
  const std::uint64_t expect_aged = args.get_uint("expect_aged_checksum", 0);
  if (args.get_bool("profile")) prof::set_enabled(true);

  // Pre-generate a mixed corpus so trace generation stays out of every timed
  // loop. Three apps spanning the compressibility spectrum (Table III),
  // batch-generated per app and interleaved i % 3 from the default sampled
  // source — the per-source subsequences are independent streams, so the
  // corpus is independent of batching. The work checksum pins this exact
  // corpus (it was re-pinned when the default source flipped to sampled).
  std::vector<WritebackEvent> events(writes);
  {
    SampledTraceSource gcc(profile_by_name("gcc"), lines, seed);
    SampledTraceSource milc(profile_by_name("milc"), lines, seed + 1);
    SampledTraceSource lbm(profile_by_name("lbm"), lines, seed + 2);
    SampledTraceSource* gens[] = {&gcc, &milc, &lbm};
    std::vector<WritebackEvent> lane;
    for (std::size_t g = 0; g < 3; ++g) {
      const std::size_t count = writes / 3 + (g < writes % 3 ? 1 : 0);
      lane.resize(count);
      (void)gens[g]->next_batch(lane);
      for (std::size_t i = 0; i < count; ++i) events[g + i * 3] = lane[i];
    }
  }

  // --- Stage 1: best-of compression --------------------------------------
  // 1a: the plan (probe-only) pass the write path now runs on every write;
  // 1b: legacy full materialization of the winner, kept for before/after
  // comparability. Their byte totals must agree (checked below), so the work
  // checksum is identical to the pre-plan pipeline's.
  BestOfCompressor best;
  std::size_t comp_bytes = 0;  // sink: defeats dead-code elimination
  const auto p0 = Clock::now();
  for (const auto& ev : events) {
    const auto p = best.plan(ev.data);
    comp_bytes += p ? p->size_bytes() : kBlockBytes;
  }
  const auto p1 = Clock::now();

  std::size_t legacy_bytes = 0;
  const auto c0 = Clock::now();
  for (const auto& ev : events) {
    const auto c = best.compress(ev.data);
    legacy_bytes += c ? c->size_bytes() : kBlockBytes;
  }
  const auto c1 = Clock::now();
  if (legacy_bytes != comp_bytes) {
    std::cerr << "plan/compress size divergence: plan " << comp_bytes << " vs compress "
              << legacy_bytes << "\n";
    return 1;
  }

  // --- Stage 2: Flip-N-Write encode (fused flip count) --------------------
  FlipNWriteCodec codec(64);
  Block stored{};
  std::uint64_t flags = 0;
  std::size_t fnw_flips = 0;
  const auto f0 = Clock::now();
  for (const auto& ev : events) {
    fnw_flips += codec.encoded_flips(ev.data, stored, flags);
    const auto enc = codec.encode(ev.data, stored, flags);
    stored = enc.payload;
    flags = enc.invert_mask;
  }
  const auto f1 = Clock::now();

  // --- Stage 3: full steady-state system.write ----------------------------
  SystemConfig cfg;
  cfg.device.lines = lines + 1;  // + gap line
  cfg.device.endurance_mean = 1e4;
  cfg.device.seed = seed;
  cfg.seed = seed;
  PcmSystem system(cfg);
  // Warm-up: every line written at least once so steady state has no
  // first-touch effects (metadata init, trace map growth is already done).
  std::size_t flips = 0;
  for (const auto& ev : events) flips += system.write(ev.line, ev.data).flips;
  const auto w0 = Clock::now();
  for (const auto& ev : events) flips += system.write(ev.line, ev.data).flips;
  const auto w1 = Clock::now();

  // --- Stage 4: placement search on aged lines ----------------------------
  const double place_f0 = place_ns_per_find(0, seed);
  const double place_f8 = place_ns_per_find(8, seed);
  const double place_f32 = place_ns_per_find(32, seed);
  // The fresh-memory profile is reported on its own; the aged phase reports
  // per-point deltas.
  std::ostringstream fresh_profile;
  if (prof::enabled()) prof::dump_json(fresh_profile, "  ");

  // --- Stage 5: the write path on aged memory -----------------------------
  const AgedResult aged = run_aged(seed);

  const double write_ns = ns_per_op(w0, w1, writes);
  const std::size_t checksum = comp_bytes ^ fnw_flips ^ flips;
  std::cout << "{\n"
            << "  \"writes\": " << writes << ",\n"
            << "  \"plan_ns_per_op\": " << ns_per_op(p0, p1, writes) << ",\n"
            << "  \"compress_ns_per_op\": " << ns_per_op(c0, c1, writes) << ",\n"
            << "  \"fnw_encode_ns_per_op\": " << ns_per_op(f0, f1, writes) << ",\n"
            << "  \"system_write_ns_per_op\": " << write_ns << ",\n"
            << "  \"system_writes_per_sec\": " << 1e9 / write_ns << ",\n"
            << "  \"place_find_ns_faults0\": " << place_f0 << ",\n"
            << "  \"place_find_ns_faults8\": " << place_f8 << ",\n"
            << "  \"place_find_ns_faults32\": " << place_f32 << ",\n"
            << "  \"checksum\": " << checksum;
  if (prof::enabled()) std::cout << ",\n  \"profile\": " << fresh_profile.str();
  std::cout << ",\n";
  print_aged(std::cout, aged);
  std::cout << "\n}\n";

  if (expect_checksum >= 0 && static_cast<std::size_t>(expect_checksum) != checksum) {
    std::cerr << "checksum mismatch: expected " << expect_checksum << ", got " << checksum
              << " — the write path's observable behaviour changed\n";
    return 1;
  }
  if (check_aged && expect_aged != aged.checksum) {
    std::cerr << "aged checksum mismatch: expected " << expect_aged << ", got "
              << aged.checksum << " — the aged write path's observable behaviour changed\n";
    return 1;
  }
  return 0;
}
