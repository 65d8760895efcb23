// Multi-tenant sharded-engine benchmark: many concurrent write-back streams
// driving the channels x banks sharded execution spine (sim/sharded_engine).
//
// Reports aggregate serviced-write throughput (wall clock), the modeled
// per-shard bank utilization and write latency from the DDR-style controller
// charge, and per-tenant lifetime (writes until the tenant's logical slice
// crossed the capacity-death criterion). Endurance defaults are scaled far
// down, exactly like the lifetime studies, so tenants age visibly within a
// bench-sized run.
//
// Determinism: the engine's result digest is byte-identical at any
// `--threads` (see sharded_engine.hpp for the argument); CI pins it with
// `--expect_checksum`. Wall-clock rows, by contrast, measure whatever the
// host gives us — on the 1-CPU CI container the parallel rows measure pool
// overhead, not speedup (see BENCH_multitenant.json's caveat).
//
//   ./build/bench/multi_tenant --tenants 64 --shards 8 --threads 8
//   ./build/bench/multi_tenant --tenants 16 --events 20000 --expect_checksum <pinned>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "sim/sharded_engine.hpp"
#include "workload/app_profile.hpp"

using namespace pcmsim;

namespace {

std::vector<AppProfile> parse_apps(const std::string& csv) {
  std::vector<AppProfile> apps;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    apps.push_back(profile_by_name(csv.substr(pos, end - pos)));
    pos = end + 1;
  }
  expects(!apps.empty(), "--apps must name at least one profile");
  return apps;
}

int run(const CliArgs& args) {
  const std::size_t threads = set_threads_from_cli(args);

  const auto tenants = static_cast<std::uint32_t>(args.get_uint("tenants", 16));
  const auto shards = static_cast<std::uint32_t>(args.get_uint("shards", 8));
  const auto events = args.get_uint("events", 200000);
  const auto lines = args.get_uint("lines", 257);
  const std::uint64_t seed = args.get_uint("seed", 42);
  const std::vector<AppProfile> apps = parse_apps(args.get("apps", "gcc,milc,lbm"));

  ShardedEngineConfig cfg;
  cfg.shard_system.device.lines = lines;
  cfg.shard_system.device.endurance_mean = args.get_double("endurance", 300);
  cfg.shard_system.device.endurance_cov = args.get_double("cov", 0.15);
  // Geometry: channels divide the shard count when possible (Table II has 2
  // channels); odd shard counts fall back to a single channel.
  const auto channels = static_cast<std::uint32_t>(args.get_uint("channels", 2));
  cfg.map.channels = (shards % channels == 0 && shards >= channels) ? channels : 1;
  cfg.map.banks_per_channel = shards / cfg.map.channels;
  cfg.tenants = tenants;
  cfg.seed = seed;
  cfg.queue_capacity = static_cast<std::size_t>(args.get_uint("queue_capacity", 4096));
  cfg.tenant_batch = static_cast<std::size_t>(args.get_uint("tenant_batch", 256));
  cfg.arrival_gap_cycles = args.get_uint("gap_cycles", 16);
  cfg.prefetch = args.get_bool("prefetch");
  // `--tier-kb N --tier-policy lru|silent|comp` fronts every shard with a
  // content-aware DRAM tier (capacity is per shard). Off by default, which
  // keeps the pre-tier pinned checksum byte-identical. The policy is parsed
  // even without --tier-kb so a bad value never runs silently.
  const auto tier_kb = static_cast<std::size_t>(args.get_uint("tier-kb", 0));
  const TierPolicy tier_policy = tier_policy_from_string(args.get("tier-policy", "lru"));
  if (tier_kb > 0) cfg.tier = FrontTierConfig::for_kb(tier_kb, tier_policy);

  ShardedPcmEngine engine(cfg);
  engine.add_sampled_tenants(apps);

  const ScopedTimer timer("");  // empty label: silent; we report elapsed ourselves
  const ShardedRunResult result = engine.run(events);
  const double wall = timer.elapsed_seconds();

  RunningStat util;
  RunningStat lat;
  for (const auto& s : result.shards) {
    util.add(s.utilization);
    lat.add(s.write_latency_mean);
  }
  RunningStat tenant_life;
  std::uint64_t tenants_failed = 0;
  for (const auto& t : result.tenants) {
    if (t.failed) {
      ++tenants_failed;
      tenant_life.add(static_cast<double>(t.writes_at_failure));
    }
  }

  std::cout << "{\n"
            << "  \"tenants\": " << tenants << ",\n"
            << "  \"shards\": " << engine.shards() << ",\n"
            << "  \"channels\": " << cfg.map.channels << ",\n"
            << "  \"threads\": " << threads << ",\n"
            << "  \"events\": " << result.events << ",\n"
            << "  \"epochs\": " << result.epochs << ",\n"
            << "  \"wall_seconds\": " << wall << ",\n"
            << "  \"aggregate_writes_per_sec\": "
            << (wall > 0 ? static_cast<double>(result.events) / wall : 0) << ",\n"
            << "  \"total\": {\n"
            << "    \"writes\": " << result.total.writes << ",\n"
            << "    \"compressed_writes\": " << result.total.compressed_writes << ",\n"
            << "    \"dropped_writes\": " << result.total.dropped_writes << ",\n"
            << "    \"uncorrectable_events\": " << result.total.uncorrectable_events << ",\n"
            << "    \"recycled_lines\": " << result.total.recycled_lines << ",\n"
            << "    \"lines_dead\": " << result.total.lines_dead << ",\n"
            << "    \"mean_flips_per_write\": " << result.total.flips_per_write.mean() << ",\n"
            << "    \"mean_compressed_size\": " << result.total.compressed_size.mean() << "\n"
            << "  },\n"
            << "  \"tier\": {\n"
            << "    \"enabled\": " << (cfg.tier.enabled() ? "true" : "false") << ",\n"
            << "    \"policy\": \"" << (cfg.tier.enabled() ? to_string(cfg.tier.policy)
                                                           : std::string_view("off"))
            << "\",\n"
            << "    \"capacity_lines_per_shard\": " << cfg.tier.capacity_lines << ",\n"
            << "    \"offered\": " << result.tier.offered << ",\n"
            << "    \"absorbed\": " << result.tier.absorbed() << ",\n"
            << "    \"silent_drops\": " << result.tier.silent_drops << ",\n"
            << "    \"evictions\": " << result.tier.evictions << "\n"
            << "  },\n"
            << "  \"modeled_write_latency_cycles_mean\": " << lat.mean() << ",\n"
            << "  \"shard_utilization_mean\": " << util.mean() << ",\n"
            << "  \"shard_utilization_min\": " << util.min() << ",\n"
            << "  \"shard_utilization_max\": " << util.max() << ",\n"
            << "  \"tenants_failed\": " << tenants_failed << ",\n"
            << "  \"tenant_lifetime_writes_mean\": " << tenant_life.mean() << ",\n"
            << "  \"shards_detail\": [";
  for (std::size_t s = 0; s < result.shards.size(); ++s) {
    const auto& row = result.shards[s];
    std::cout << (s ? "," : "") << "\n    {\"events\": " << row.events
              << ", \"writes_per_sec\": "
              << (wall > 0 ? static_cast<double>(row.events) / wall : 0)
              << ", \"utilization\": " << row.utilization
              << ", \"write_latency_mean\": " << row.write_latency_mean
              << ", \"lines_dead\": " << row.stats.lines_dead << "}";
  }
  std::cout << "\n  ],\n  \"tenants_detail\": [";
  for (std::size_t t = 0; t < result.tenants.size(); ++t) {
    const auto& row = result.tenants[t];
    std::cout << (t ? "," : "") << "\n    {\"app\": \"" << apps[t % apps.size()].name
              << "\", \"writes\": " << row.writes << ", \"absorbed\": " << row.absorbed_writes
              << ", \"dropped\": " << row.dropped_writes
              << ", \"line_deaths\": " << row.line_deaths
              << ", \"writes_at_failure\": " << row.writes_at_failure
              << ", \"failed\": " << (row.failed ? "true" : "false") << "}";
  }
  std::cout << "\n  ],\n  \"checksum\": " << result.checksum << "\n}\n";

  if (args.has("expect_checksum")) {
    const std::uint64_t expect = args.get_uint("expect_checksum", 0);
    if (expect != result.checksum) {
      std::cerr << "checksum mismatch: expected " << expect << ", got " << result.checksum
                << " — the sharded engine's observable behaviour changed\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return cli_main(argc, argv, run); }
