// Trace file layer: v2 chunked container round-trips, corruption/truncation
// rejection, v1 hardening, and looped-replay re-versioning.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <thread>
#include <vector>

#include "common/assert.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "trace/file_source.hpp"
#include "trace/trace_file.hpp"
#include "workload/trace.hpp"

namespace pcmsim {
namespace {

class TraceFileTest : public ::testing::Test {
 protected:
  std::string temp_path(const std::string& name) {
    const auto p = std::filesystem::temp_directory_path() / ("pcmsim_test_" + name);
    paths_.push_back(p.string());
    return p.string();
  }

  void TearDown() override {
    for (const auto& p : paths_) std::remove(p.c_str());
  }

  std::vector<std::string> paths_;
};

/// Mixed corpus: compressible patterns (zeros, narrow ints) and random
/// (incompressible) blocks, with line addresses that exercise both small and
/// large deltas in both directions.
std::vector<WritebackEvent> make_events(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<WritebackEvent> events(n);
  for (std::size_t i = 0; i < n; ++i) {
    WritebackEvent& ev = events[i];
    ev.line = (i % 3 == 0) ? i : rng.next_below(std::uint64_t{1} << 40);
    switch (i % 4) {
      case 0: ev.data = zero_block(); break;
      case 1: {  // narrow values: BDI/FPC-friendly
        for (std::size_t w = 0; w < kBlockBytes / 8; ++w) {
          const std::uint64_t v = rng.next_below(256);
          std::memcpy(ev.data.data() + w * 8, &v, 8);
        }
        break;
      }
      default:  // random: incompressible, forces the raw-value fallback
        for (auto& b : ev.data) b = static_cast<std::uint8_t>(rng());
        break;
    }
  }
  return events;
}

void write_v2(const std::string& path, const std::vector<WritebackEvent>& events,
              std::uint32_t chunk_records) {
  TraceFileWriter writer(path, chunk_records);
  for (const auto& ev : events) writer.append(ev);
  writer.close();
}

std::vector<WritebackEvent> read_v2(const std::string& path) {
  TraceFileReader reader(path);
  std::vector<WritebackEvent> out;
  WritebackEvent ev;
  while (reader.next(ev)) out.push_back(ev);
  return out;
}

void expect_same(const std::vector<WritebackEvent>& a, const std::vector<WritebackEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].line, b[i].line) << "record " << i;
    EXPECT_EQ(a[i].data, b[i].data) << "record " << i;
  }
}

TEST_F(TraceFileTest, EmptyRoundTrip) {
  const auto path = temp_path("v2_empty.trace");
  write_v2(path, {}, 64);
  TraceFileReader reader(path);
  EXPECT_EQ(reader.total_records(), 0u);
  EXPECT_EQ(reader.chunk_count(), 0u);
  WritebackEvent ev;
  EXPECT_FALSE(reader.next(ev));
}

TEST_F(TraceFileTest, SingleEventRoundTrip) {
  const auto path = temp_path("v2_one.trace");
  const auto events = make_events(1, 7);
  write_v2(path, events, 64);
  expect_same(events, read_v2(path));
}

TEST_F(TraceFileTest, MultiChunkRoundTrip) {
  const auto path = temp_path("v2_multi.trace");
  const auto events = make_events(1000, 11);  // 1000 records, 128/chunk -> 8 chunks
  write_v2(path, events, 128);
  TraceFileReader reader(path);
  EXPECT_EQ(reader.total_records(), 1000u);
  EXPECT_EQ(reader.chunk_count(), 8u);
  expect_same(events, read_v2(path));
}

TEST_F(TraceFileTest, IncompressibleValuesRoundTripRaw) {
  const auto path = temp_path("v2_raw.trace");
  Rng rng(99);
  std::vector<WritebackEvent> events(50);
  for (auto& ev : events) {
    ev.line = rng.next_below(1 << 20);
    for (auto& b : ev.data) b = static_cast<std::uint8_t>(rng());
  }
  write_v2(path, events, 16);
  expect_same(events, read_v2(path));
}

TEST_F(TraceFileTest, ChunksDecodeIndependently) {
  const auto path = temp_path("v2_chunks.trace");
  const auto events = make_events(300, 3);
  write_v2(path, events, 100);
  TraceFileReader reader(path);
  ASSERT_EQ(reader.chunk_count(), 3u);
  // Read out of order: each chunk must decode without the preceding ones.
  for (const std::size_t idx : {2u, 0u, 1u}) {
    const auto chunk = reader.read_chunk(idx);
    ASSERT_EQ(chunk.size(), 100u);
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      EXPECT_EQ(chunk[i].line, events[idx * 100 + i].line);
      EXPECT_EQ(chunk[i].data, events[idx * 100 + i].data);
    }
  }
}

TEST_F(TraceFileTest, ReaderResetReplaysIdentically) {
  const auto path = temp_path("v2_reset.trace");
  const auto events = make_events(200, 5);
  write_v2(path, events, 64);
  TraceFileReader reader(path);
  WritebackEvent ev;
  std::size_t first_pass = 0;
  while (reader.next(ev)) ++first_pass;
  EXPECT_EQ(first_pass, events.size());
  reader.reset();
  std::vector<WritebackEvent> second;
  while (reader.next(ev)) second.push_back(ev);
  expect_same(events, second);
}

TEST_F(TraceFileTest, CorruptChunkPayloadIsRejected) {
  const auto path = temp_path("v2_corrupt.trace");
  const auto events = make_events(200, 13);
  write_v2(path, events, 64);
  TraceFileReader clean(path);
  const auto dir = clean.directory();
  ASSERT_FALSE(dir.empty());
  {  // flip one payload byte in the middle of the first chunk
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(dir[0].offset + 12 + dir[0].payload_bytes / 2));
    const int byte = f.get();
    f.seekp(static_cast<std::streamoff>(dir[0].offset + 12 + dir[0].payload_bytes / 2));
    f.put(static_cast<char>(byte ^ 0x40));
  }
  TraceFileReader reader(path);  // directory is intact, open succeeds
  WritebackEvent ev;
  EXPECT_THROW((void)reader.next(ev), ContractViolation);
}

TEST_F(TraceFileTest, TruncatedFileIsRejectedAtOpen) {
  const auto path = temp_path("v2_trunc.trace");
  const auto events = make_events(500, 17);
  write_v2(path, events, 64);
  const auto full = std::filesystem::file_size(path);
  for (const double frac : {0.95, 0.5, 0.1}) {
    std::filesystem::resize_file(path,
                                 static_cast<std::uintmax_t>(static_cast<double>(full) * frac));
    EXPECT_THROW(TraceFileReader reader(path), ContractViolation) << "frac " << frac;
  }
  std::filesystem::resize_file(path, 0);
  EXPECT_THROW(TraceFileReader reader(path), ContractViolation);
}

TEST_F(TraceFileTest, CorruptFooterOrDirectoryIsRejected) {
  const auto path = temp_path("v2_footer.trace");
  write_v2(path, make_events(100, 19), 32);
  const auto size = std::filesystem::file_size(path);
  {  // corrupt a directory byte (footer stays valid -> CRC must catch it)
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(size - 32 - 8));
    const int byte = f.get();
    f.seekp(static_cast<std::streamoff>(size - 32 - 8));
    f.put(static_cast<char>(byte ^ 0x5A));
  }
  EXPECT_THROW(TraceFileReader reader(path), ContractViolation);
}

TEST_F(TraceFileTest, WrongMagicIsRejected) {
  const auto path = temp_path("v2_magic.trace");
  std::ofstream f(path, std::ios::binary);
  for (int i = 0; i < 64; ++i) f.put(static_cast<char>(i));
  f.close();
  EXPECT_THROW(TraceFileReader reader(path), ContractViolation);
  EXPECT_THROW(FileTraceSource source(path), ContractViolation);
}

// --- v1 hardening (workload/trace.{hpp,cpp}) -------------------------------

TEST_F(TraceFileTest, V1TruncationIsRejectedAtOpen) {
  const auto path = temp_path("v1_trunc.trace");
  {
    TraceWriter writer(path);
    for (const auto& ev : make_events(20, 23)) writer.append(ev);
    writer.close();
  }
  EXPECT_NO_THROW(TraceReader reader(path));
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - 1);  // drop one payload byte
  EXPECT_THROW(TraceReader reader(path), ContractViolation);
  std::filesystem::resize_file(path, 8);  // shorter than the header
  EXPECT_THROW(TraceReader reader(path), ContractViolation);
}

TEST_F(TraceFileTest, V1WrongMagicIsRejected) {
  const auto path = temp_path("v1_magic.trace");
  std::ofstream f(path, std::ios::binary);
  const std::uint64_t bogus = 0x1122334455667788ull;
  f.write(reinterpret_cast<const char*>(&bogus), 8);
  f.write(reinterpret_cast<const char*>(&bogus), 8);
  f.close();
  EXPECT_THROW(TraceReader reader(path), ContractViolation);
}

TEST_F(TraceFileTest, WriterFailsLoudlyOnIoError) {
  // /dev/full accepts the open but fails writes once the stream buffer
  // flushes; both writers must surface that instead of silently truncating.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const auto events = make_events(2000, 29);
  EXPECT_THROW(
      {
        TraceWriter writer("/dev/full");
        for (const auto& ev : events) writer.append(ev);
        writer.close();
      },
      ContractViolation);
  EXPECT_THROW(
      {
        TraceFileWriter writer("/dev/full", 64);
        for (const auto& ev : events) writer.append(ev);
        writer.close();
      },
      ContractViolation);
}

// --- FileTraceSource / LoopedFileTraceSource -------------------------------

TEST_F(TraceFileTest, FileSourceReadsBothVersions) {
  const auto events = make_events(150, 31);
  const auto v1 = temp_path("src_v1.trace");
  const auto v2 = temp_path("src_v2.trace");
  {
    TraceWriter writer(v1);
    for (const auto& ev : events) writer.append(ev);
    writer.close();
  }
  write_v2(v2, events, 64);
  for (const auto& path : {v1, v2}) {
    FileTraceSource source(path);
    EXPECT_EQ(source.total_records(), events.size());
    std::vector<WritebackEvent> got(events.size() + 10);
    const std::size_t n = source.next_batch(got);
    EXPECT_EQ(n, events.size());  // underfills at end of trace
    got.resize(n);
    expect_same(events, got);
    EXPECT_EQ(source.next_batch(got), 0u);  // exhausted
    source.reset();
    got.resize(events.size() + 10);
    EXPECT_EQ(source.next_batch(got), events.size());
  }
}

TEST_F(TraceFileTest, LoopedReplayReversionsValues) {
  const auto path = temp_path("loop.trace");
  const auto events = make_events(64, 37);
  write_v2(path, events, 32);

  LoopedFileTraceSource source(path);
  std::vector<WritebackEvent> pass0(events.size());
  std::vector<WritebackEvent> pass1(events.size());
  std::vector<WritebackEvent> pass2(events.size());
  ASSERT_EQ(source.next_batch(pass0), events.size());
  ASSERT_EQ(source.next_batch(pass1), events.size());
  ASSERT_EQ(source.next_batch(pass2), events.size());
  expect_same(events, pass0);  // pass 0 replays the capture verbatim

  std::size_t changed1 = 0;
  std::size_t changed2 = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(pass1[i].line, events[i].line);  // addresses never change
    if (!(pass1[i].data == events[i].data)) ++changed1;
    if (!(pass2[i].data == pass1[i].data)) ++changed2;
    if (events[i].data == zero_block()) {
      // All-zero blocks replay unchanged by design (no nonzero word to flip).
      EXPECT_EQ(pass1[i].data, events[i].data);
    } else {
      // Zero structure is preserved: a zero word stays zero, a nonzero word
      // stays nonzero (compressibility class is retained).
      for (std::size_t w = 0; w < kBlockBytes / 4; ++w) {
        std::uint32_t before = 0;
        std::uint32_t after = 0;
        std::memcpy(&before, events[i].data.data() + w * 4, 4);
        std::memcpy(&after, pass1[i].data.data() + w * 4, 4);
        EXPECT_EQ(before == 0, after == 0) << "event " << i << " word " << w;
      }
    }
  }
  // Non-degeneracy: most nonzero blocks must actually change each pass, so
  // differential writes keep flipping cells instead of storing identical data.
  EXPECT_GT(changed1, events.size() / 2);
  EXPECT_GT(changed2, events.size() / 2);

  // Determinism: a reset source re-produces the identical pass sequence.
  source.reset();
  std::vector<WritebackEvent> again0(events.size());
  std::vector<WritebackEvent> again1(events.size());
  ASSERT_EQ(source.next_batch(again0), events.size());
  ASSERT_EQ(source.next_batch(again1), events.size());
  expect_same(pass0, again0);
  expect_same(pass1, again1);
}

TEST_F(TraceFileTest, LoopedReplayRejectsEmptyTrace) {
  const auto path = temp_path("loop_empty.trace");
  write_v2(path, {}, 32);
  EXPECT_THROW(LoopedFileTraceSource source(path), ContractViolation);
}

// --- Parallel v2 chunk decode ----------------------------------------------

/// Drains a source with a batch size chosen to straddle chunk boundaries.
std::vector<WritebackEvent> drain(TraceSource& source, std::size_t batch_size) {
  std::vector<WritebackEvent> got;
  std::vector<WritebackEvent> batch(batch_size);
  for (;;) {
    const std::size_t n = source.next_batch(std::span(batch.data(), batch.size()));
    if (n == 0) break;
    got.insert(got.end(), batch.begin(),
               batch.begin() + static_cast<std::ptrdiff_t>(n));
  }
  return got;
}

TEST_F(TraceFileTest, ParallelDecodeMatchesSerialAtManyThreadCounts) {
  const auto path = temp_path("par_decode.trace");
  const auto events = make_events(1000, 41);
  write_v2(path, events, 64);  // 16 chunks: more chunks than any window
  const std::size_t saved = parallel_threads();
  for (const std::size_t threads : {1u, 2u, 7u}) {
    set_parallel_threads(threads);
    FileTraceSource source(path, TraceDecode::kParallel);
    EXPECT_EQ(source.decode_mode(), TraceDecode::kParallel);
    EXPECT_EQ(source.total_records(), events.size());
    // 97 never divides the 64-record chunks, so every batch straddles
    // chunk (and window) boundaries somewhere in the stream.
    expect_same(events, drain(source, 97));
    EXPECT_EQ(source.events(), events.size());
    // reset() replays the identical stream, including the window state.
    source.reset();
    expect_same(events, drain(source, 33));
  }
  set_parallel_threads(saved);
}

TEST_F(TraceFileTest, ParallelDecodeOnV1FallsBackToSerial) {
  const auto path = temp_path("par_v1.trace");
  const auto events = make_events(50, 43);
  {
    TraceWriter writer(path);
    for (const auto& ev : events) writer.append(ev);
    writer.close();
  }
  FileTraceSource source(path, TraceDecode::kParallel);
  EXPECT_EQ(source.decode_mode(), TraceDecode::kSerial);  // v1 has no chunks
  expect_same(events, drain(source, 16));
}

TEST_F(TraceFileTest, LoopedParallelReplayMatchesLoopedSerial) {
  const auto path = temp_path("par_loop.trace");
  write_v2(path, make_events(256, 47), 32);
  LoopedFileTraceSource serial(path, TraceDecode::kSerial);
  const std::size_t saved = parallel_threads();
  set_parallel_threads(7);
  LoopedFileTraceSource parallel(path, TraceDecode::kParallel);
  // Three full passes plus a partial one: the re-versioning depends only on
  // (line, pass), so parallel decode must stay byte-identical across loops.
  std::vector<WritebackEvent> a(900);
  std::vector<WritebackEvent> b(900);
  ASSERT_EQ(serial.next_batch(a), a.size());
  ASSERT_EQ(parallel.next_batch(b), b.size());
  expect_same(a, b);
  set_parallel_threads(saved);
}

TEST_F(TraceFileTest, ConcurrentReadChunkFromManyThreads) {
  // The documented parallel pattern: one shared immutable TraceFileIndex,
  // one TraceChunkDecoder per thread, chunks claimed in any order.
  const auto path = temp_path("par_chunks.trace");
  const auto events = make_events(960, 53);
  write_v2(path, events, 60);  // 16 chunks
  TraceFileReader reader(path);
  const auto index = reader.index();
  ASSERT_EQ(index->chunk_count(), 16u);

  constexpr std::size_t kThreads = 7;
  std::vector<std::vector<WritebackEvent>> per_chunk(index->chunk_count());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      TraceChunkDecoder decoder(index);
      for (;;) {
        const std::size_t c = next.fetch_add(1);
        if (c >= index->chunk_count()) return;
        decoder.decode(c, per_chunk[c]);
      }
    });
  }
  for (auto& th : pool) th.join();

  std::vector<WritebackEvent> got;
  for (const auto& chunk : per_chunk) {
    got.insert(got.end(), chunk.begin(), chunk.end());
  }
  expect_same(events, got);
}

TEST_F(TraceFileTest, CorruptChunkCrcFailsLoudlyUnderParallelDecode) {
  const auto path = temp_path("par_corrupt.trace");
  const auto events = make_events(640, 59);
  write_v2(path, events, 64);  // 10 chunks
  std::size_t corrupt_chunk = 0;
  {
    TraceFileReader clean(path);
    const auto dir = clean.directory();
    corrupt_chunk = dir.size() / 2;  // mid-file: lands mid-window
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    const auto pos = static_cast<std::streamoff>(dir[corrupt_chunk].offset + 12 +
                                                 dir[corrupt_chunk].payload_bytes / 2);
    f.seekg(pos);
    const int byte = f.get();
    f.seekp(pos);
    f.put(static_cast<char>(byte ^ 0x40));
  }
  const std::size_t saved = parallel_threads();
  for (const std::size_t threads : {2u, 7u}) {
    set_parallel_threads(threads);
    FileTraceSource source(path, TraceDecode::kParallel);  // directory intact
    std::vector<WritebackEvent> batch(64);
    std::size_t delivered = 0;
    bool threw = false;
    try {
      for (;;) {
        const std::size_t n = source.next_batch(std::span(batch.data(), batch.size()));
        if (n == 0) break;
        // Everything delivered before the violation is the clean prefix.
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(batch[i].line, events[delivered].line);
          ASSERT_EQ(batch[i].data, events[delivered].data);
          ++delivered;
        }
      }
    } catch (const ContractViolation&) {
      threw = true;
    }
    EXPECT_TRUE(threw) << "corrupt CRC must throw, not end the stream";
    EXPECT_LE(delivered, corrupt_chunk * 64);  // never events past the bad chunk
    // The violation is sticky for the affected window: retrying throws again
    // instead of hanging or delivering a partial batch.
    EXPECT_THROW((void)source.next_batch(std::span(batch.data(), batch.size())),
                 ContractViolation);
  }
  set_parallel_threads(saved);
}

TEST_F(TraceFileTest, CompressedStorageIsSmallerThanV1) {
  // The v2 container stores BestOf-compressed values; on a compressible
  // corpus it must beat v1's fixed 72 bytes/record by a wide margin.
  std::vector<WritebackEvent> events(512);
  for (std::size_t i = 0; i < events.size(); ++i) {
    events[i].line = i;
    events[i].data = zero_block();
  }
  const auto v1 = temp_path("size_v1.trace");
  const auto v2 = temp_path("size_v2.trace");
  {
    TraceWriter writer(v1);
    for (const auto& ev : events) writer.append(ev);
    writer.close();
  }
  write_v2(v2, events, 128);
  const auto v1_size = std::filesystem::file_size(v1);
  const auto v2_size = std::filesystem::file_size(v2);
  EXPECT_LT(v2_size * 5, v1_size) << "v2 " << v2_size << " vs v1 " << v1_size;
  expect_same(events, read_v2(v2));
}

}  // namespace
}  // namespace pcmsim
