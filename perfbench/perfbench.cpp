// Repository benchmark binary: runs one workload for a fixed host-time budget
// and prints one JSON object per line — one per set-up sample and per
// simulation run ("rep"), then a closing record. perfbench/run.py turns
// these records into the benchmark's metrics and checks every rep.
//
//   perfbench --workload aged_milc --seed 42 --seconds 30 --trace 0 [--threads N]
//
// The simulator is driven only through its public entry points:
// run_lifetime(TraceSource&, LifetimeConfig), ShardedPcmEngine (ctor,
// add_tenant, run), the SampledTraceSource constructor and next_batch, and
// the result structs. Host spans are taken here, around those calls, with
// std::chrono::steady_clock; stages the benchmark cannot wrap come from the
// simulator's own prof:: counters, which are switched on only in traced reps.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/parallel.hpp"
#include "common/profiler.hpp"
#include "common/rng.hpp"
#include "controller/controller.hpp"
#include "sim/lifetime.hpp"
#include "sim/sharded_engine.hpp"
#include "trace/sampled_source.hpp"
#include "workload/app_profile.hpp"

using namespace pcmsim;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

/// Workload parameters. Every workload is one closed loop: a single process
/// pulls the next batch of write-backs as soon as the previous one is
/// serviced, on a fixed thread count.
struct Workload {
  std::string name;
  bool engine = false;
  std::vector<std::string> apps;  ///< engine tenants cycle through these
  std::uint64_t lines = 0;        ///< PCM lines (per shard for the engine)
  double endurance = 0;
  std::size_t tier_lines = 0;     ///< front-tier capacity, 0 = no tier
  std::uint64_t events = 0;       ///< engine event budget
  std::size_t threads = 1;
  /// Distinct inputs an untraced run cycles through, derived from the seed.
  /// A single-stream rep's speed depends on its input (how often placement
  /// hits the fault-heavy path), so each run covers several inputs.
  std::uint32_t inputs = 1;
};

/// The input one rep simulates: the seed every stream of the rep derives
/// from, and its index among the run's inputs.
struct Input {
  std::uint64_t seed = 0;
  std::uint32_t index = 0;
  bool warmup = false;  ///< checked, but not part of any host-time figure
};

Input input_of(const Workload& w, std::uint64_t seed, std::uint32_t index, bool warmup = false) {
  return {w.inputs > 1 ? mix64(seed, index) : seed, index, warmup};
}

// The regimes the benchmark covers; perfbench/README.md records why each was
// chosen and which layers it loads.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"aged_milc", false, {"milc"}, 768, 600, 0, 0, 1, 4},
      {"multitenant_fresh", true, {"gcc", "milc", "lbm"}, 257, 20000, 0, 4'000'000, 4, 1},
      {"tiered_gcc", false, {"gcc"}, 192, 600, 192, 0, 1, 8},
  };
  return all;
}

/// Process CPU time (user + system, every thread). The guest kernel does not
/// charge a task for time the hypervisor stole from its vCPU, so on a shared
/// host this clock, unlike the wall clock, advances only while the program
/// runs.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Stamp {
  Clock::time_point wall = Clock::now();
  double cpu_s = process_cpu_s();
};

/// Busy and stolen CPU ticks of the whole (virtual) machine, from /proc/stat.
struct HostTicks {
  std::uint64_t busy = 0;
  std::uint64_t steal = 0;

  static HostTicks read() {
    HostTicks h;
    std::ifstream in("/proc/stat");
    std::string cpu;
    std::uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0, softirq = 0;
    if (in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> h.steal) {
      h.busy = user + nice + system + irq + softirq;
    }
    return h;
  }
  /// Share of the CPU time the machine's vCPUs wanted since `start` that the
  /// hypervisor gave to someone else.
  [[nodiscard]] double steal_frac_since(const HostTicks& start) const {
    const std::uint64_t stolen = steal - start.steal;
    const std::uint64_t wanted = busy - start.busy + stolen;
    return wanted > 0 ? static_cast<double>(stolen) / static_cast<double>(wanted) : 0.0;
  }
};

/// TraceSource decorator: stamps the consumer's first request for events (the
/// end of set-up) and, in traced reps, sums the host time spent inside the
/// wrapped source's next_batch.
class TimedSource final : public TraceSource {
 public:
  TimedSource(std::unique_ptr<TraceSource> inner, bool traced)
      : inner_(std::move(inner)), traced_(traced) {}

  std::size_t next_batch(std::span<WritebackEvent> out) override {
    if (!first_call_) first_call_.emplace();
    if (!traced_) return inner_->next_batch(out);
    const auto t0 = Clock::now();
    const std::size_t n = inner_->next_batch(out);
    busy_s_ += seconds_between(t0, Clock::now());
    return n;
  }
  [[nodiscard]] std::uint64_t events() const override { return inner_->events(); }
  void reset() override {
    inner_->reset();
    first_call_.reset();
    busy_s_ = 0;
  }

  [[nodiscard]] const std::optional<Stamp>& first_call() const { return first_call_; }
  [[nodiscard]] double busy_s() const { return busy_s_; }

 private:
  std::unique_ptr<TraceSource> inner_;
  bool traced_;
  std::optional<Stamp> first_call_;
  double busy_s_ = 0;
};

/// One output line: a flat JSON object. Doubles keep all 17 significant
/// digits; 64-bit digests are written as strings so no reader rounds them.
class Record {
 public:
  explicit Record(std::string_view kind) { os_ << "{\"kind\": \"" << kind << '"'; }
  Record& num(std::string_view key, double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os_ << ", \"" << key << "\": " << buf;
    return *this;
  }
  Record& count(std::string_view key, std::uint64_t v) {
    os_ << ", \"" << key << "\": " << v;
    return *this;
  }
  Record& str(std::string_view key, std::string_view v) {
    os_ << ", \"" << key << "\": \"" << v << '"';
    return *this;
  }
  void emit() {
    os_ << "}\n";
    std::cout << os_.str() << std::flush;
  }

 private:
  std::ostringstream os_;
};

/// Host spans of one set-up and run. Set-up spans are process CPU seconds
/// (see process_cpu_s); `setup_wall_s` is the same span on the wall clock.
struct Spans {
  double trace_s = 0;       ///< trace source construction
  double array_s = 0;       ///< PCM array(s), engine and tier, up to the first next_batch
  double setup_wall_s = 0;
  double run_s = 0;         ///< wall clock, first next_batch to the end of the run
  double run_cpu_s = 0;
  double steal_frac = 0;    ///< host steal share over the whole rep
  long faults = 0;          ///< minor page faults during set-up

  void record(Record& r) const {
    r.num("setup_s", trace_s + array_s)
        .num("trace_s", trace_s)
        .num("array_s", array_s)
        .num("setup_wall_s", setup_wall_s)
        .num("run_s", run_s)
        .num("run_cpu_s", run_cpu_s)
        .num("steal_frac", steal_frac)
        .count("faults", static_cast<std::uint64_t>(faults));
  }
};

void add_stage_counters(Record& r) {
  for (std::size_t i = 0; i < prof::kStageCount; ++i) {
    const auto s = static_cast<prof::Stage>(i);
    const std::string name(prof::stage_name(s));
    r.count("prof." + name + ".ticks", prof::stage_ticks(s));
    r.count("prof." + name + ".calls", prof::stage_calls(s));
  }
}

// ---- single stream: run_lifetime over a sampled source --------------------

LifetimeConfig lifetime_config(const Workload& w, std::uint64_t seed) {
  LifetimeConfig lc;
  lc.system.mode = SystemMode::kCompWF;
  lc.system.ecc_spec = "ecp6";
  lc.system.device.lines = w.lines;
  lc.system.device.endurance_mean = w.endurance;
  lc.system.device.seed = mix64(seed, 0xde7);
  lc.system.seed = mix64(seed, 0x5a9);
  if (w.tier_lines > 0) {
    lc.tier.capacity_lines = w.tier_lines;
    lc.tier.policy = TierPolicy::kComp;
  }
  return lc;
}

std::uint64_t lifetime_digest(const LifetimeResult& r) {
  // Integer observables only, like ShardedRunResult::checksum.
  std::uint64_t h = 0x504552464c494645ull;  // "PERFLIFE"
  for (const std::uint64_t v :
       {r.writes_to_failure, std::uint64_t{r.reached_failure}, r.programmed_bits,
        r.uncorrectable_events, r.recycled_lines, r.offered_writes, r.tier.offered, r.tier.hits,
        r.tier.silent_hits, r.tier.silent_drops, r.tier.inserts, r.tier.evictions,
        r.tier.words_forwarded, r.tier.words_touched}) {
    h = mix64(h, v);
  }
  return h;
}

/// Builds the source and runs the lifetime study on it. With `max_writes`
/// set, the run stops after that many write-backs: a set-up sample.
LifetimeResult run_single(const Workload& w, const Input& in, bool traced, Spans& sp,
                          std::unique_ptr<TimedSource>& source, std::uint64_t max_writes = 0) {
  const std::uint64_t seed = in.seed;
  LifetimeConfig lc = lifetime_config(w, seed);
  if (max_writes > 0) lc.max_writes = max_writes;
  const HostTicks h0 = HostTicks::read();
  const long f0 = minor_faults();
  const Stamp s0;
  // Same fold as run_lifetime(app, ...): device.lines minus the Start-Gap spare.
  source = std::make_unique<TimedSource>(
      std::make_unique<SampledTraceSource>(profile_by_name(w.apps[0]), w.lines - 1, seed),
      traced);
  const Stamp s1;
  const LifetimeResult r = run_lifetime(*source, lc);
  const Stamp s2;
  const Stamp first = source->first_call().value_or(s2);
  sp.trace_s = s1.cpu_s - s0.cpu_s;
  sp.array_s = first.cpu_s - s1.cpu_s;
  sp.setup_wall_s = seconds_between(s0.wall, first.wall);
  sp.run_s = seconds_between(first.wall, s2.wall);
  sp.run_cpu_s = s2.cpu_s - first.cpu_s;
  sp.steal_frac = HostTicks::read().steal_frac_since(h0);
  sp.faults = minor_faults() - f0;  // set-up samples only: a full rep adds its run's faults
  return r;
}

/// A run capped at `max_writes` write-backs: a set-up sample (one write-back)
/// or the warm-up that precedes a run's first rep.
void single_capped(const Workload& w, const Input& in, std::string_view kind,
                   std::uint64_t max_writes) {
  Spans sp;
  std::unique_ptr<TimedSource> source;
  const LifetimeResult r = run_single(w, in, false, sp, source, max_writes);
  Record rec(kind);
  rec.count("input", in.index).count("warmup", in.warmup);
  sp.record(rec);
  rec.count("offered", r.offered_writes).count("cap", max_writes).emit();
}

void single_rep(const Workload& w, const Input& in, bool traced) {
  prof::reset();
  prof::set_enabled(traced);
  Spans sp;
  std::unique_ptr<TimedSource> source;
  const LifetimeResult r = run_single(w, in, traced, sp, source);
  prof::set_enabled(false);

  Record rec("rep");
  rec.count("traced", traced).count("input", in.index).count("warmup", in.warmup);
  sp.record(rec);
  rec.str("digest", std::to_string(lifetime_digest(r)))
      .count("offered", r.offered_writes)
      .count("pcm_writes", r.writes_to_failure)
      .count("reached_failure", r.reached_failure)
      .count("programmed_bits", r.programmed_bits)
      .num("flips_per_write", r.mean_flips_per_write)
      .num("compressed_fraction", r.compressed_fraction)
      .num("faults_at_death", r.mean_faults_at_death)
      .count("deaths", r.uncorrectable_events)
      .count("tier", w.tier_lines > 0)
      .count("tier.offered", r.tier.offered)
      .count("tier.hits", r.tier.hits)
      .count("tier.silent_drops", r.tier.silent_drops)
      .count("tier.inserts", r.tier.inserts)
      .count("tier.evictions", r.tier.evictions)
      .count("tier.absorbed", r.tier.absorbed())
      .num("tier.latency_cycles", r.tier_write_latency_cycles);
  if (traced) {
    rec.num("trace.busy_s", source->busy_s())
        .count("trace.events", source->events());
    add_stage_counters(rec);
  }
  rec.emit();
}

// ---- multi-tenant: the sharded engine ------------------------------------

void engine_rep(const Workload& w, const Input& in, bool traced) {
  const std::uint64_t seed = in.seed;
  ShardedEngineConfig cfg;
  cfg.shard_system.mode = SystemMode::kCompWF;
  cfg.shard_system.ecc_spec = "ecp6";
  cfg.shard_system.device.lines = w.lines;
  cfg.shard_system.device.endurance_mean = w.endurance;
  cfg.map.channels = 2;
  cfg.map.banks_per_channel = 4;
  cfg.tenants = 16;
  cfg.seed = seed;

  const HostTicks h0 = HostTicks::read();
  const long f0 = minor_faults();
  const Stamp s0;
  ShardedPcmEngine engine(cfg);
  const Stamp s1;
  // The tenants add_sampled_tenants would build (same apps, region and
  // seeds), each behind a TimedSource.
  std::vector<const TimedSource*> tenants;
  const std::uint64_t region = engine.tenant_region_lines();
  for (std::uint32_t t = 0; t < cfg.tenants; ++t) {
    auto timed = std::make_unique<TimedSource>(
        std::make_unique<SampledTraceSource>(profile_by_name(w.apps[t % w.apps.size()]), region,
                                             mix64(seed, ShardedPcmEngine::kTenantSeedSalt, t)),
        traced);
    tenants.push_back(timed.get());
    engine.add_tenant(std::move(timed));
  }
  const long f1 = minor_faults();
  prof::reset();
  prof::set_enabled(traced);
  const Stamp s2;
  const ShardedRunResult r = engine.run(w.events);
  const Stamp s3;
  prof::set_enabled(false);

  Stamp first = s3;
  double dispatch_busy = 0;
  std::uint64_t trace_events = 0;
  for (const TimedSource* t : tenants) {
    if (t->first_call() && t->first_call()->wall < first.wall) first = *t->first_call();
    dispatch_busy += t->busy_s();
    trace_events += t->events();
  }
  Spans sp;
  sp.trace_s = s2.cpu_s - s1.cpu_s;
  sp.array_s = (s1.cpu_s - s0.cpu_s) + (first.cpu_s - s2.cpu_s);
  sp.setup_wall_s = seconds_between(s0.wall, s2.wall) + seconds_between(s2.wall, first.wall);
  sp.run_s = seconds_between(first.wall, s3.wall);
  sp.run_cpu_s = s3.cpu_s - first.cpu_s;
  sp.steal_frac = HostTicks::read().steal_frac_since(h0);
  sp.faults = f1 - f0;

  std::uint64_t tenant_writes = 0;
  std::uint64_t tenant_accounted = 0;
  std::uint64_t tenants_failed = 0;
  for (const ShardedTenantResult& t : r.tenants) {
    tenant_writes += t.writes;
    tenant_accounted += t.stored_writes + t.dropped_writes + t.absorbed_writes;
    tenants_failed += t.failed;
  }
  std::uint64_t shard_events = 0;
  double util_max = 0;
  double latency_sum = 0;
  for (const ShardedShardResult& s : r.shards) {
    shard_events += s.events;
    util_max = std::max(util_max, s.utilization);
    // Mean over every write: weight each shard's controller mean by its writes.
    latency_sum += s.write_latency_mean * static_cast<double>(s.events);
  }
  const SystemStats& st = r.total;
  const double stored = static_cast<double>(st.compressed_writes + st.uncompressed_writes);

  Record rec("rep");
  rec.count("traced", traced).count("input", in.index).count("warmup", in.warmup);
  sp.record(rec);
  rec.num("engine.run_s", seconds_between(s2.wall, s3.wall))
      .str("digest", std::to_string(r.checksum))
      .count("offered", r.events)
      .count("pcm_writes", st.writes)
      .count("budget", w.events)
      .count("programmed_bits", static_cast<std::uint64_t>(st.flips_per_write.sum()))
      .num("flips_per_write", st.flips_per_write.mean())
      .num("compressed_fraction",
           stored > 0 ? static_cast<double>(st.compressed_writes) / stored : 0.0)
      .num("faults_at_death", st.faults_at_death.mean())
      .count("deaths", st.uncorrectable_events)
      .count("lines_dead", st.lines_dead)
      .count("window_slides", st.window_slides)
      .count("gap_moves", st.gap_moves)
      .num("latency_cycles",
           shard_events > 0 ? latency_sum / static_cast<double>(shard_events) : 0.0)
      .count("epochs", r.epochs)
      .num("shard_util_max", util_max)
      .count("shard_events", shard_events)
      .count("tenant_writes", tenant_writes)
      .count("tenant_accounted", tenant_accounted)
      .count("tenants_failed", tenants_failed)
      .count("tier", 0);
  if (traced) {
    rec.num("trace.busy_s", dispatch_busy)
        .count("trace.events", trace_events);
    add_stage_counters(rec);
  }
  rec.emit();
}

int usage(const char* msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--threads N]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double budget_s = 0;
  int trace = -1;
  std::size_t threads = 0;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        budget_s = std::stod(value);
      } else if (flag == "--trace") {
        trace = std::stoi(value);
      } else if (flag == "--threads") {
        threads = std::stoul(value);
      } else {
        return usage("unknown flag");
      }
    } catch (const std::exception&) {
      return usage("malformed flag value");
    }
  }
  if (argc % 2 != 1) return usage("every flag takes one value");
  const auto it = std::find_if(workloads().begin(), workloads().end(),
                               [&](const Workload& w) { return w.name == workload; });
  if (it == workloads().end()) return usage("unknown workload");
  if (!have_seed || budget_s <= 0 || (trace != 0 && trace != 1)) {
    return usage("need --seed, --seconds > 0 and --trace 0|1");
  }
  const Workload& w = *it;

  // glibc adapts its mmap threshold upward after the first large free, so a
  // process's first set-up would map (and page-fault) its big tables afresh
  // while later ones reuse heap pages. Pinning the threshold at its default
  // makes every set-up sample pay the first-touch cost a fresh process pays.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  set_parallel_threads(threads > 0 ? threads : w.threads);
  prof::set_enabled(false);

  // Closed loop for the whole budget. A warm-up comes first: the host takes a
  // while to schedule freshly woken vCPUs, so the first rep of a process runs
  // slow. Single-stream set-up is short, so two extra set-up samples precede
  // every rep; the engine's reps give enough. Untraced runs cycle through the
  // workload's inputs and cover each at least once; traced runs stay on input
  // 0 and alternate untraced and traced reps, so tracing overhead is measured
  // on one input under the same host conditions.
  constexpr std::uint64_t kWarmupWrites = 1'000'000;
  const std::uint32_t inputs = trace == 1 ? 1 : w.inputs;
  const auto start = Clock::now();
  if (w.engine) {
    engine_rep(w, input_of(w, seed, 0, true), false);
  } else {
    single_capped(w, input_of(w, seed, 0, true), "warmup", kWarmupWrites);
  }
  for (std::uint32_t rep = 0; rep < inputs || seconds_between(start, Clock::now()) < budget_s;
       ++rep) {
    const Input in = input_of(w, seed, rep % inputs);
    for (const bool traced : {false, true}) {
      if (traced && trace == 0) continue;
      if (w.engine) {
        engine_rep(w, in, traced);
      } else {
        if (!traced) {
          single_capped(w, in, "setup", 1);
          single_capped(w, in, "setup", 1);
        }
        single_rep(w, in, traced);
      }
    }
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Record("end")
      .num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0)
      .count("pcm_write_service_cycles",
             MemoryController(ControllerConfig{}).write_service_cycles())
      .emit();
  return 0;
}
