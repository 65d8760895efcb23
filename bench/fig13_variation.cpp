// Figure 13: Comp+WF lifetime normalized to Baseline under higher process
// variation (endurance CoV = 0.25 instead of 0.15). The paper's point: the
// proposed design's advantage grows when variation worsens (milc/zeusmp/
// cactusADM reach 10-15x).
#include <iostream>

#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "sim/experiments.hpp"

using namespace pcmsim;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  set_threads_from_cli(args);
  const ScopedTimer timer("fig13_variation");
  auto scale = ExperimentScale::from_flag(
      args.get_bool("paper") ? "paper" : (args.get_bool("fast") ? "fast" : "default"));
  scale.seed = args.get_uint("seed", 1);
  scale.endurance_cov = args.get_double("cov", 0.25);

  const auto apps = all_app_names();
  const auto cells =
      run_lifetime_matrix(apps, {SystemMode::kBaseline, SystemMode::kCompWF}, scale);

  TablePrinter table({"app", "Comp+WF_norm(CoV=" + TablePrinter::fmt(scale.endurance_cov, 2) + ")"});
  double sum = 0;
  for (const auto& name : apps) {
    const double base =
        static_cast<double>(matrix_cell(cells, name, SystemMode::kBaseline).result.writes_to_failure);
    const double wf =
        static_cast<double>(matrix_cell(cells, name, SystemMode::kCompWF).result.writes_to_failure);
    sum += wf / base;
    table.add_row({name, TablePrinter::fmt(wf / base, 2)});
  }
  table.add_row({"Average", TablePrinter::fmt(sum / 15.0, 2)});

  if (args.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout, "Figure 13 — Comp+WF lifetime vs Baseline at CoV=0.25");
    std::cout << "Paper: gains exceed the CoV=0.15 results of Fig 10 (high-CR apps reach "
                 "10-15x) because weak-cell variation punishes the baseline hardest.\n";
  }
  return 0;
}
