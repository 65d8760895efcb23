// Figure 5: percentage of write-backs whose post-DW bit-flip count increases,
// stays within +/-5%, or decreases when data is stored compressed (naive
// Comp layout: window at the least-significant bytes) instead of raw.
//
// Also reports the paper's Section I claim that ~20% of writes see MORE
// flips under blind compression.
#include <iostream>
#include <unordered_map>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "compression/best_of.hpp"
#include "trace/sampled_source.hpp"

using namespace pcmsim;

namespace {

struct ShadowLine {
  Block raw{};        // what an uncompressed PCM line would hold
  Block comp{};       // what a Comp-style line holds (image + stale tail)
  bool seen = false;
};

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const auto writes = static_cast<int>(args.get_uint("writes", 60000));
  const std::uint64_t seed = args.get_uint("seed", 42);

  BestOfCompressor best;
  TablePrinter table({"app", "increased%", "untouched%", "decreased%"});
  double total_increased = 0;
  for (const auto& app : spec2006_profiles()) {
    SampledTraceSource src(app, 1 << 14, seed);
    TraceCursor gen(src);
    std::unordered_map<LineAddr, ShadowLine> lines;
    std::uint64_t inc = 0;
    std::uint64_t same = 0;
    std::uint64_t dec = 0;
    for (int i = 0; i < writes; ++i) {
      const auto ev = gen.next();
      auto& sh = lines[ev.line];
      if (!sh.seen) {  // first write: no old data to diff against
        sh.seen = true;
        sh.raw = ev.data;
        const auto c0 = best.compress(ev.data);
        sh.comp = zero_block();
        if (c0) {
          std::copy(c0->bytes.begin(), c0->bytes.end(), sh.comp.begin());
        } else {
          sh.comp = ev.data;
        }
        continue;
      }
      const auto flips_raw = hamming_distance(sh.raw, ev.data);
      const auto c = best.compress(ev.data);
      std::size_t flips_comp;
      Block next_comp = sh.comp;
      if (c) {
        flips_comp = hamming_distance(
            std::span<const std::uint8_t>(sh.comp.data(), c->size_bytes()),
            std::span<const std::uint8_t>(c->bytes.data(), c->size_bytes()));
        std::copy(c->bytes.begin(), c->bytes.end(), next_comp.begin());
      } else {
        flips_comp = hamming_distance(sh.comp, ev.data);
        next_comp = ev.data;
      }
      sh.raw = ev.data;
      sh.comp = next_comp;

      const double lo = 0.95 * static_cast<double>(flips_raw);
      const double hi = 1.05 * static_cast<double>(flips_raw);
      const auto fc = static_cast<double>(flips_comp);
      if (fc > hi) {
        ++inc;
      } else if (fc < lo) {
        ++dec;
      } else {
        ++same;
      }
    }
    const double n = static_cast<double>(inc + same + dec);
    total_increased += 100.0 * static_cast<double>(inc) / n;
    table.add_row({app.name, TablePrinter::fmt(100.0 * static_cast<double>(inc) / n, 1),
                   TablePrinter::fmt(100.0 * static_cast<double>(same) / n, 1),
                   TablePrinter::fmt(100.0 * static_cast<double>(dec) / n, 1)});
  }
  table.add_row({"Average", TablePrinter::fmt(total_increased / 15.0, 1), "-", "-"});

  if (args.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout,
                "Figure 5 — write-backs with increased / untouched / decreased bit flips "
                "after compression (+/-5% band)");
    std::cout << "Paper: ~20% of writes increase on average; high-CR apps (sjeng, milc,\n"
                 "cactusADM) mostly decrease; low-CR lbm/GemsFDTD mostly increase;\n"
                 "bzip2/gcc increase despite decent CR (size churn); leslie3d untouched.\n";
  }
  return 0;
}
