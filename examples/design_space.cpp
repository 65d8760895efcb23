// Design-space sweep: lifetime of every (system mode x hard-error scheme)
// combination on one workload — the kind of exploration a memory architect
// would run before committing to a configuration. Schemes come from the ECC
// registry; combinations a scheme's traits forbid (SECDED outside Baseline,
// coset coding without compression) print "n/a" instead of running.
//
//   ./build/examples/design_space --app gcc [--endurance 400] [--lines 512]
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "ecc/registry.hpp"
#include "sim/experiments.hpp"

using namespace pcmsim;

namespace {

/// True when the scheme's traits allow it to run in `mode`.
bool legal_combo(const SchemeTraits& traits, SystemMode mode) {
  if (traits.baseline_only && mode != SystemMode::kBaseline) return false;
  if (traits.requires_compression && mode == SystemMode::kBaseline) return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string app_name = args.get("app", "gcc");
  const AppProfile& app = profile_by_name(app_name);

  LifetimeConfig lc;
  lc.system.device.lines = args.get_uint("lines", 512);
  lc.system.device.endurance_mean = args.get_double("endurance", 400);
  lc.system.device.endurance_cov = 0.15;
  lc.max_writes = 4'000'000'000ull;

  const std::vector<std::string> specs = {"ecp6",   "safer32", "aegis17x31", "secded",
                                          "bch-t6", "coset-w4"};

  // Baseline ECP-6 is the reference cell.
  lc.system.mode = SystemMode::kBaseline;
  lc.system.ecc_spec = "ecp6";
  std::cerr << "reference: Baseline/ECP-6...\n";
  const double ref = static_cast<double>(run_lifetime(app, lc, 7).writes_to_failure);

  std::vector<std::string> header = {"mode"};
  for (const auto& spec : specs) {
    const auto* info = find_scheme_info(spec);
    header.push_back(info ? std::string(info->name) : spec);
  }
  TablePrinter table(header);
  for (auto mode : {SystemMode::kBaseline, SystemMode::kComp, SystemMode::kCompW,
                    SystemMode::kCompWF}) {
    std::vector<std::string> row = {std::string(to_string(mode))};
    for (const auto& spec : specs) {
      if (!legal_combo(scheme_traits(spec), mode)) {
        row.push_back("n/a");
        continue;
      }
      lc.system.mode = mode;
      lc.system.ecc_spec = spec;
      std::cerr << "running " << to_string(mode) << " / " << spec << "...\n";
      const auto r = run_lifetime(app, lc, 7);
      row.push_back(TablePrinter::fmt(static_cast<double>(r.writes_to_failure) / ref, 2));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout, "Design space — " + app_name +
                             " lifetime normalized to Baseline/ECP-6");
  std::cout << "Stronger partition-based schemes pay off most once compression\n"
            << "collocates the faults (Comp+WF rows; paper Section III-A.4).\n";
  return 0;
}
