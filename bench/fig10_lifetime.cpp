// Figure 10: lifetime of Comp, Comp+W and Comp+WF normalized to the Baseline
// system, per application and on average (the paper's headline result:
// Comp 1.35x avg but harmful for low-CR apps; Comp+W 3.2x; Comp+WF 4.3x).
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
  const ScopedTimer timer("fig10_lifetime");
  auto scale = ExperimentScale::from_flag(
      args.get_bool("paper") ? "paper" : (args.get_bool("fast") ? "fast" : "default"));
  scale.seed = args.get_uint("seed", 1);

  std::vector<std::string> apps = all_app_names();
  if (args.has("apps")) {
    apps.clear();
    std::string list = args.get("apps", "");
    std::size_t pos = 0;
    while (pos != std::string::npos) {
      const auto comma = list.find(',', pos);
      apps.push_back(list.substr(pos, comma == std::string::npos ? comma : comma - pos));
      pos = comma == std::string::npos ? comma : comma + 1;
    }
  }

  const std::vector<SystemMode> modes = {SystemMode::kBaseline, SystemMode::kComp,
                                         SystemMode::kCompW, SystemMode::kCompWF};
  const auto cells = run_lifetime_matrix(apps, modes, scale);

  TablePrinter table({"app", "Comp", "Comp+W", "Comp+WF"});
  double gm[3] = {0, 0, 0};
  for (const auto& name : apps) {
    const double base =
        static_cast<double>(matrix_cell(cells, name, SystemMode::kBaseline).result.writes_to_failure);
    const double c =
        static_cast<double>(matrix_cell(cells, name, SystemMode::kComp).result.writes_to_failure) / base;
    const double w =
        static_cast<double>(matrix_cell(cells, name, SystemMode::kCompW).result.writes_to_failure) / base;
    const double wf =
        static_cast<double>(matrix_cell(cells, name, SystemMode::kCompWF).result.writes_to_failure) / base;
    gm[0] += c;
    gm[1] += w;
    gm[2] += wf;
    table.add_row({name, TablePrinter::fmt(c, 2), TablePrinter::fmt(w, 2),
                   TablePrinter::fmt(wf, 2)});
  }
  const double n = static_cast<double>(apps.size());
  table.add_row({"Average", TablePrinter::fmt(gm[0] / n, 2), TablePrinter::fmt(gm[1] / n, 2),
                 TablePrinter::fmt(gm[2] / n, 2)});

  if (args.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout, "Figure 10 — lifetime normalized to Baseline");
    std::cout << "Paper averages: Comp 1.35x (but ~0.5x for bzip2/gcc), Comp+W 3.2x, "
                 "Comp+WF 4.3x.\nExpected shape: Comp hurts volatile/low-CR apps; W never "
                 "hurts; WF best, largest for high-CR apps (milc, zeusmp, cactusADM).\n";
  }
  return 0;
}
