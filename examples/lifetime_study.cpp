// Lifetime study: compare the paper's four system configurations on one
// SPEC-2006-calibrated workload and report normalized lifetimes plus the
// Table-IV-style months conversion.
//
//   ./build/examples/lifetime_study --app milc [--endurance 600] [--lines 768]
//
// The write-back stream is selectable:
//   (default)          the batched SampledTraceSource (statistically
//                      calibrated against the legacy generator, ~4x+ cheaper
//                      per event)
//   --source legacy    the original TraceGenerator (bit-identical to PR <= 4
//                      runs; the quarantined calibration oracle)
//   --trace FILE       loop a captured v1/v2 trace file (values re-versioned
//                      each pass so differential writes keep flipping cells)
//   --decode parallel  fan v2 chunk decode over the thread pool (--trace only;
//                      byte-identical stream, lower decode latency)
//   --prefetch         fill trace batches on a background thread, overlapping
//                      generation/decode with write execution
//   --ecc SPEC         hard-error scheme by registry spec ("ecp6", "bch-t6",
//                      "coset-w4", ... — see ecc/registry.hpp); the scheme's
//                      traits prune the mode list to legal combinations
//
// `--profile` appends the write-path stage counters (trace-gen, compress,
// heuristic, place, program, ECC, gap-move) as JSON, attributing the run's
// time per stage — see common/profiler.hpp.
//
// Multi-tenant mode (`--tenants N`, optional `--shards S`): instead of the
// four-mode comparison, drive the sharded multi-bank engine with N sampled
// tenant streams (cycling --apps) over S = channels x banks shards, and
// report per-tenant lifetime (writes until the tenant's logical slice hit
// the capacity-death criterion) plus per-shard utilization. `--lines` is
// then per shard. See sim/sharded_engine.hpp and EXPERIMENTS.md.
//
//   ./build/examples/lifetime_study --tenants 32 --shards 8 --endurance 100
#include <iostream>
#include <mutex>

#include "common/assert.hpp"
#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/profiler.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "sim/experiments.hpp"
#include "sim/sharded_engine.hpp"
#include "trace/file_source.hpp"

using namespace pcmsim;

namespace {

/// Shared `--tier-kb N --tier-policy lru|silent|comp` parsing; returns a
/// disabled config when --tier-kb is absent, so every pre-tier invocation
/// behaves (and checksums) exactly as before. The policy is parsed either way
/// so a bad value never runs silently.
FrontTierConfig tier_config_from_cli(const CliArgs& args) {
  const auto tier_kb = static_cast<std::size_t>(args.get_uint("tier-kb", 0));
  const TierPolicy policy = tier_policy_from_string(args.get("tier-policy", "lru"));
  if (tier_kb == 0) return {};
  return FrontTierConfig::for_kb(tier_kb, policy);
}

int run_multi_tenant(const CliArgs& args) {
  const auto tenants = static_cast<std::uint32_t>(args.get_uint("tenants", 16));
  const auto shards = static_cast<std::uint32_t>(args.get_uint("shards", 8));

  ShardedEngineConfig cfg;
  cfg.shard_system.device.lines = args.get_uint("lines", 257);
  cfg.shard_system.device.endurance_mean = args.get_double("endurance", 100);
  cfg.shard_system.device.endurance_cov = args.get_double("cov", 0.15);
  const auto channels = static_cast<std::uint32_t>(args.get_uint("channels", 2));
  cfg.map.channels = (shards % channels == 0 && shards >= channels) ? channels : 1;
  cfg.map.banks_per_channel = shards / cfg.map.channels;
  cfg.tenants = tenants;
  cfg.seed = args.get_uint("seed", 42);
  cfg.arrival_gap_cycles = args.get_uint("gap_cycles", 16);
  cfg.prefetch = args.get_bool("prefetch");
  cfg.tier = tier_config_from_cli(args);

  std::vector<AppProfile> apps;
  {
    const std::string csv = args.get("apps", args.get("app", "gcc,milc,lbm"));
    std::size_t pos = 0;
    while (pos < csv.size()) {
      const std::size_t comma = csv.find(',', pos);
      const std::size_t end = comma == std::string::npos ? csv.size() : comma;
      apps.push_back(profile_by_name(csv.substr(pos, end - pos)));
      pos = end + 1;
    }
  }

  ShardedPcmEngine engine(cfg);
  engine.add_sampled_tenants(apps);
  std::cout << "Multi-tenant mode: " << tenants << " tenants over " << engine.shards()
            << " shards (" << cfg.map.channels << " channels x "
            << cfg.map.banks_per_channel << " banks), "
            << engine.tenant_region_lines() << " logical lines per tenant\n";
  if (cfg.tier.enabled()) {
    std::cout << "Front tier: " << cfg.tier.capacity_lines
              << " lines/shard, policy " << to_string(cfg.tier.policy) << "\n";
  }

  const auto events = args.get_uint("events", 2'000'000);
  const ShardedRunResult result = engine.run(events);

  TablePrinter shard_table({"shard", "events", "utilization", "write_lat_cycles",
                            "lines_dead"});
  for (std::size_t s = 0; s < result.shards.size(); ++s) {
    const auto& row = result.shards[s];
    shard_table.add_row({TablePrinter::fmt(s), TablePrinter::fmt(row.events),
                         TablePrinter::fmt(row.utilization, 3),
                         TablePrinter::fmt(row.write_latency_mean, 1),
                         TablePrinter::fmt(row.stats.lines_dead)});
  }
  shard_table.print(std::cout, "Per-shard utilization");

  TablePrinter tenant_table({"tenant", "app", "writes", "absorbed", "dropped",
                             "line_deaths", "writes_to_failure"});
  RunningStat life;
  for (std::size_t t = 0; t < result.tenants.size(); ++t) {
    const auto& row = result.tenants[t];
    if (row.failed) life.add(static_cast<double>(row.writes_at_failure));
    tenant_table.add_row({TablePrinter::fmt(t), std::string(apps[t % apps.size()].name),
                          TablePrinter::fmt(row.writes),
                          TablePrinter::fmt(row.absorbed_writes),
                          TablePrinter::fmt(row.dropped_writes),
                          TablePrinter::fmt(row.line_deaths),
                          row.failed ? TablePrinter::fmt(row.writes_at_failure)
                                     : std::string("alive")});
  }
  tenant_table.print(std::cout, "Per-tenant lifetime");
  std::cout << "events: " << result.events << "  epochs: " << result.epochs
            << "  tenants_failed: " << life.count();
  if (life.count() > 0) std::cout << "  mean_writes_to_failure: " << life.mean();
  if (cfg.tier.enabled()) {
    std::cout << "  tier_absorbed: " << result.tier.absorbed() << "/"
              << result.tier.offered;
  }
  std::cout << "  checksum: " << result.checksum << "\n";
  return 0;
}

int run(const CliArgs& args) {
  set_threads_from_cli(args);
  if (args.has("tenants") || args.has("shards")) return run_multi_tenant(args);
  if (args.get_bool("profile")) prof::set_enabled(true);
  const ScopedTimer timer("lifetime_study");
  const std::string app_name = args.get("app", "milc");
  const AppProfile& app = profile_by_name(app_name);

  LifetimeConfig lc;
  lc.system.device.lines = args.get_uint("lines", 768);
  lc.system.device.endurance_mean = args.get_double("endurance", 600);
  lc.system.device.endurance_cov = args.get_double("cov", 0.15);
  lc.max_writes = 4'000'000'000ull;

  // `--ecc <spec>` swaps the hard-error scheme (ECC registry grammar). The
  // scheme's traits prune the mode list to legal combinations: line-only
  // codes (SECDED) run Baseline alone; slack-consuming word codes (coset)
  // need compression and drop the Baseline row.
  const std::string ecc_spec = args.get("ecc", "ecp6");
  const SchemeTraits ecc_traits = scheme_traits(ecc_spec);
  lc.system.ecc_spec = ecc_spec;

  const std::string trace_path = args.get("trace", "");
  const std::string source_kind = args.get("source", "sampled");
  const std::string decode_kind = args.get("decode", "serial");
  expects(decode_kind == "serial" || decode_kind == "parallel",
          "--decode must be 'serial' or 'parallel'");
  const TraceDecode decode =
      decode_kind == "parallel" ? TraceDecode::kParallel : TraceDecode::kSerial;
  lc.prefetch = args.get_bool("prefetch");
  lc.tier = tier_config_from_cli(args);

  std::cout << "Workload: " << app.name << " (WPKI " << app.wpki << ", Table III CR "
            << app.table_cr << ", bucket " << to_string(app.bucket) << ")\n";
  if (!trace_path.empty()) {
    std::cout << "Source: looped trace replay of " << trace_path << " (" << decode_kind
              << " decode)\n";
  } else if (source_kind == "legacy") {
    std::cout << "Source: legacy TraceGenerator (calibration oracle)\n";
  }
  if (lc.prefetch) std::cout << "Prefetch: background batch fill enabled\n";
  if (lc.tier.enabled()) {
    std::cout << "Front tier: " << lc.tier.capacity_lines << " lines ("
              << lc.tier.capacity_lines * kBlockBytes / 1024 << " KB), policy "
              << to_string(lc.tier.policy) << "\n";
  }
  if (ecc_spec != "ecp6") {
    std::cout << "ECC: " << ecc_spec << " (guarantees " << ecc_traits.guaranteed_correctable
              << " faults in " << ecc_traits.metadata_bits << " metadata bits)\n";
  }

  // The four system configurations are independent runs on the same seeds —
  // simulate them concurrently, then print in the paper's order. Each run
  // constructs its own source so the streams are identical across modes.
  std::vector<SystemMode> modes = {SystemMode::kBaseline, SystemMode::kComp,
                                   SystemMode::kCompW, SystemMode::kCompWF};
  if (ecc_traits.baseline_only) {
    modes = {SystemMode::kBaseline};
  } else if (ecc_traits.requires_compression) {
    modes = {SystemMode::kComp, SystemMode::kCompW, SystemMode::kCompWF};
  }
  std::mutex log_m;
  const auto results = parallel_map(modes, [&](const SystemMode mode) {
    {
      const std::lock_guard lk(log_m);
      std::cerr << "running " << to_string(mode) << "...\n";
    }
    LifetimeConfig run_lc = lc;
    run_lc.system.mode = mode;
    if (!trace_path.empty()) {
      LoopedFileTraceSource source(trace_path, decode);
      return run_lifetime(source, run_lc);
    }
    if (source_kind == "legacy") {
      return run_lifetime_legacy(app, run_lc, 42);
    }
    expects(source_kind == "sampled", "--source must be 'sampled' or 'legacy'");
    // run_lifetime's default path constructs the sampled source folded onto
    // system.logical_lines() (device.lines - 1: StartGap keeps a spare slot).
    return run_lifetime(app, run_lc, 42);
  });

  TablePrinter table({"system", "writes_to_failure", "normalized", "months@1e7",
                      "faults_at_death", "flips/write"});
  const double base_writes = static_cast<double>(results[0].writes_to_failure);
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const auto& r = results[i];
    table.add_row({std::string(to_string(modes[i])),
                   TablePrinter::fmt(r.writes_to_failure),
                   TablePrinter::fmt(static_cast<double>(r.writes_to_failure) / base_writes, 2),
                   TablePrinter::fmt(lifetime_months(r, lc, app), 1),
                   TablePrinter::fmt(r.mean_faults_at_death, 1),
                   TablePrinter::fmt(r.mean_flips_per_write, 1)});
  }
  table.print(std::cout, "Lifetime comparison — " + app.name +
                             (ecc_spec == "ecp6" ? "" : " (" + ecc_spec + ")"));
  if (lc.tier.enabled()) {
    // Lifetime amplification: offered write-backs the workload got through
    // before PCM death, relative to the PCM-serviced count — what the DRAM
    // tier buys on top of the compression/ECC machinery below it.
    TablePrinter tier_table({"system", "offered", "absorbed", "absorb_%",
                             "amplification", "tier_lat_cycles"});
    for (std::size_t i = 0; i < modes.size(); ++i) {
      const auto& r = results[i];
      const double absorbed_pct =
          r.tier.offered > 0
              ? 100.0 * static_cast<double>(r.tier.absorbed()) /
                    static_cast<double>(r.tier.offered)
              : 0.0;
      const double amp = r.writes_to_failure > 0
                             ? static_cast<double>(r.offered_writes) /
                                   static_cast<double>(r.writes_to_failure)
                             : 0.0;
      tier_table.add_row({std::string(to_string(modes[i])),
                          TablePrinter::fmt(r.offered_writes),
                          TablePrinter::fmt(r.tier.absorbed()),
                          TablePrinter::fmt(absorbed_pct, 1), TablePrinter::fmt(amp, 2),
                          TablePrinter::fmt(r.tier_write_latency_cycles, 1)});
    }
    tier_table.print(std::cout, "Front tier — " + std::string(to_string(lc.tier.policy)));
  }
  std::cout << "Paper (Fig 10): Comp can shorten lifetime for volatile/low-CR apps;\n"
            << "Comp+W never hurts; Comp+WF is best and grows with compressibility.\n";
  if (prof::enabled()) {
    std::cout << "profile: ";
    prof::dump_json(std::cout, "");
    std::cout << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return cli_main(argc, argv, run); }
