// Trace capture & replay: run core streams through the real L1/L2 hierarchy
// (the gem5 substitute), capture the LLC write-back trace to disk, then
// replay the file against a PCM system — the paper's two-stage methodology
// (Section IV: "we collect traces of main memory accesses in Gem5, which are
// then fed to a lightweight memory simulator").
//
// Captures use the chunked v2 container (src/trace/trace_file.hpp): values
// are stored through the best-of(BDI,FPC) compressor, chunks carry CRCs, and
// the replay goes through FileTraceSource. As a self-check, the same events
// are also kept in memory and replayed against a second identically-seeded
// system; the two runs must agree write-for-write — the file round-trip is
// lossless by construction, and this exercises it end to end.
//
//   ./build/examples/trace_capture --app gcc --instructions 60000
#include <cstdio>
#include <iostream>
#include <vector>

#include "cache/hierarchy.hpp"
#include "common/assert.hpp"
#include "common/cli.hpp"
#include "core/system.hpp"
#include "trace/file_source.hpp"
#include "trace/trace_file.hpp"

using namespace pcmsim;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string app_name = args.get("app", "gcc");
  const auto instructions = args.get_uint("instructions", 60000);
  const std::string path = args.get("out", "/tmp/pcmsim_" + app_name + ".trace");
  const bool keep = args.get_bool("keep");
  const AppProfile& app = profile_by_name(app_name);

  // Stage 1: capture LLC write-backs from the cache hierarchy — to the v2
  // file and to an in-memory copy used to cross-check the replay below.
  std::vector<WritebackEvent> captured;
  {
    TraceFileWriter writer(path, /*chunk_records=*/512);
    CmpSimulator sim(app, HierarchyConfig{}, 1, [&](const Writeback& wb) {
      const WritebackEvent ev{wb.line, wb.data};
      writer.append(ev);
      captured.push_back(ev);
    });
    sim.run(instructions);
    writer.close();
    std::cout << "Stage 1: " << sim.instructions() << " instructions -> " << captured.size()
              << " write-backs (WPKI " << sim.wpki() << ", Table III says " << app.wpki
              << ") captured to " << path << "\n";
  }

  // Stage 2: replay the trace file against a Comp+WF PCM region.
  SystemConfig cfg;
  cfg.mode = SystemMode::kCompWF;
  cfg.device.lines = 1024;
  cfg.device.endurance_mean = 1e4;
  PcmSystem from_file(cfg);

  FileTraceSource source(path);
  expects(source.total_records() == captured.size(),
          "v2 capture lost or invented records");
  std::vector<WritebackEvent> batch(256);
  std::uint64_t replayed = 0;
  while (const std::size_t n = source.next_batch(batch)) {
    for (std::size_t i = 0; i < n; ++i) {
      (void)from_file.write(batch[i].line % from_file.logical_lines(), batch[i].data);
    }
    replayed += n;
  }
  const auto& st = from_file.stats();
  std::cout << "Stage 2: replayed " << replayed << " write-backs; "
            << st.compressed_writes << " stored compressed (mean "
            << st.compressed_size.mean() << " B), mean flips/write "
            << st.flips_per_write.mean() << "\n";

  // Stage 3: cross-check — the in-memory events driven through an
  // identically-configured system must produce identical write stats.
  PcmSystem from_memory(cfg);
  for (const auto& ev : captured) {
    (void)from_memory.write(ev.line % from_memory.logical_lines(), ev.data);
  }
  const auto& mt = from_memory.stats();
  ensures(replayed == captured.size() && mt.writes == st.writes &&
              mt.compressed_writes == st.compressed_writes &&
              mt.flips_per_write.sum() == st.flips_per_write.sum() &&
              mt.compressed_size.sum() == st.compressed_size.sum(),
          "file replay diverged from in-memory replay");
  std::cout << "Stage 3: file replay matches in-memory replay ("
            << mt.writes << " writes, " << mt.flips_per_write.sum() << " total flips)\n";

  if (!keep) std::remove(path.c_str());
  return 0;
}
