// Figure 11: CDF over memory addresses of the LARGEST compressed size ever
// written to that address, for gcc (uniform spread — little recycling
// headroom) and milc (bimodal 80/20 split — dead blocks stay useful).
#include <iostream>
#include <unordered_map>

#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "compression/best_of.hpp"
#include "trace/sampled_source.hpp"

using namespace pcmsim;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const auto writes = static_cast<int>(args.get_uint("writes", 200000));
  const std::uint64_t seed = args.get_uint("seed", 13);
  const bool csv = args.get_bool("csv");

  BestOfCompressor best;
  for (const std::string name : {"gcc", "milc"}) {
    const AppProfile& app = profile_by_name(name);
    SampledTraceSource src(app, 1 << 14, seed);
    TraceCursor gen(src);
    std::unordered_map<LineAddr, std::size_t> max_size;
    for (int i = 0; i < writes; ++i) {
      const auto ev = gen.next();
      const auto c = best.probe_size(ev.data);
      const std::size_t size = c ? *c : kBlockBytes;
      auto& m = max_size[ev.line];
      m = std::max(m, size);
    }
    EmpiricalCdf cdf;
    for (const auto& [_, s] : max_size) cdf.add(static_cast<double>(s));

    TablePrinter table({"size_B", "CDF"});
    for (std::size_t s = 0; s <= 64; s += 4) {
      table.add_row({TablePrinter::fmt(static_cast<std::uint64_t>(s)),
                     TablePrinter::fmt(cdf.at(static_cast<double>(s)), 3)});
    }
    if (csv) {
      std::cout << name << "\n";
      table.print_csv(std::cout);
    } else {
      table.print(std::cout, "Figure 11 (" + name +
                                 ") — CDF of max compressed size per memory address");
      std::cout << "fraction of addresses <= 25B: " << TablePrinter::fmt(cdf.at(25.0), 2)
                << "   (paper: milc ~0.8, gcc ~0.1)\n";
    }
  }
  return 0;
}
