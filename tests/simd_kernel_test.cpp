// Differential tests for the portable SIMD layer (common/simd.hpp): the AVX2
// backend must be bit-identical to the scalar reference on the endurance
// decrement, watermark min-reduce, fused block scan, and masked block merge
// kernels — over randomized inputs, adversarial lane patterns (sign
// boundaries, bit 63/64 straddles, sub-word masks), and the value-model
// corpus. The scan kernel of both backends is additionally checked against
// the compression oracles (FpcCompressor::classify / probe_size,
// BdiCompressor::layout_applies) so the scalar reference itself cannot drift
// from the domain definitions. The AVX2 TU is built on every x86-64
// configuration, so a forced-scalar build still cross-checks it; the AVX2
// checks skip on CPUs without AVX2.
#include "common/simd.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "compression/bdi.hpp"
#include "compression/fpc.hpp"
#include "compression/word_scan.hpp"
#include "trace/trace_source.hpp"
#include "workload/app_profile.hpp"

namespace pcmsim {
namespace {

using simd::BlockScan;

/// The kernels a test runs `fn` on, as {name, pointer} pairs: the scalar
/// reference always, plus AVX2 when it is built and the CPU can run it.
template <typename Fn>
std::vector<std::pair<const char*, Fn>> kernel_list(Fn scalar, Fn avx2) {
  std::vector<std::pair<const char*, Fn>> out = {{"scalar", scalar}};
  if (avx2 != nullptr) out.emplace_back("avx2", avx2);
  return out;
}

#if PCMSIM_SIMD_HAS_AVX2
bool avx2_runnable() { return __builtin_cpu_supports("avx2"); }
#define KERNELS(fn) \
  kernel_list(&simd::scalar::fn, avx2_runnable() ? &simd::avx2::fn : nullptr)
#else
#define KERNELS(fn) kernel_list(&simd::scalar::fn, decltype(&simd::scalar::fn){nullptr})
#endif

/// Adversarial 32-bit lane values: every FPC class boundary, sign-overflow
/// drivers for the base/delta subtraction, and bit-pattern edge cases.
const std::uint32_t kEdgeWords[] = {
    0x00000000u, 0x00000001u, 0x00000007u, 0x00000008u, 0xFFFFFFF8u, 0xFFFFFFF7u, 0x0000007Fu,
    0x00000080u, 0xFFFFFF80u, 0xFFFFFF7Fu, 0x00007FFFu, 0x00008000u, 0xFFFF8000u, 0xFFFF7FFFu,
    0x00010000u, 0xABCD0000u, 0x007F007Fu, 0x0080007Fu, 0x00800080u, 0xFF80FF80u, 0x7F7F7F7Fu,
    0xABABABABu, 0x80000000u, 0x7FFFFFFFu, 0xFFFFFFFFu, 0xDEADBEEFu, 0x00FF00FFu, 0x01020304u,
    // Two-signed-bytes carry traps: the low half's +0x80 carries out while
    // the high half sits exactly on the accept/reject boundary, so any
    // u32-wide range check misclassifies these (regression: astar lifetime
    // diverged between backends on 0xFF7FFFA5-shaped words).
    0xFF7FFFA5u, 0x007FFF80u, 0xFF7FFF80u, 0x0080FFFFu,
};

Block block_from_words(const std::uint64_t* w) {
  Block b;
  std::memcpy(b.data(), w, kBlockBytes);
  return b;
}

/// Checks one backend's scan against the scalar reference AND the domain
/// oracles on a single block.
void check_scan(const char* name, void (*scan)(const std::uint64_t*, BlockScan&),
                const std::uint64_t* w) {
  BlockScan got;
  scan(w, got);

  BlockScan ref;
  simd::scalar::scan_words(w, ref);
  ASSERT_EQ(got.word_class, ref.word_class) << name;
  EXPECT_EQ(got.zero_mask, ref.zero_mask) << name;
  EXPECT_EQ(got.fpc_bits, ref.fpc_bits) << name;
  EXPECT_EQ(got.geom_ok, ref.geom_ok) << name;
  EXPECT_EQ(got.all_zero, ref.all_zero) << name;
  EXPECT_EQ(got.rep8, ref.rep8) << name;

  // Domain oracles: per-word FPC classes and per-layout BDI applicability.
  const Block block = block_from_words(w);
  for (std::size_t i = 0; i < 16; ++i) {
    std::uint32_t word;
    std::memcpy(&word, block.data() + 4 * i, 4);
    EXPECT_EQ(got.word_class[i], static_cast<std::uint8_t>(FpcCompressor::classify(word)))
        << name << " word " << i;
  }
  const struct {
    unsigned geom;
    BdiLayout layout;
  } kGeomMap[] = {
      {simd::kGeomB8D1, BdiLayout::kB8D1}, {simd::kGeomB8D2, BdiLayout::kB8D2},
      {simd::kGeomB8D4, BdiLayout::kB8D4}, {simd::kGeomB4D1, BdiLayout::kB4D1},
      {simd::kGeomB4D2, BdiLayout::kB4D2}, {simd::kGeomB2D1, BdiLayout::kB2D1},
  };
  for (const auto& m : kGeomMap) {
    EXPECT_EQ((got.geom_ok >> m.geom) & 1u,
              BdiCompressor::layout_applies(block, m.layout) ? 1u : 0u)
        << name << " layout " << to_string(m.layout);
  }
  EXPECT_EQ(got.all_zero, BdiCompressor::layout_applies(block, BdiLayout::kZeros)) << name;
  EXPECT_EQ(got.rep8, BdiCompressor::layout_applies(block, BdiLayout::kRep8)) << name;

  // End-to-end: scan_block (through the active backend) must agree with the
  // legacy FPC probe on the folded bit total.
  const WordClassScan s = scan_block(block);
  EXPECT_EQ(s.fpc_bits, got.fpc_bits);
  const auto fpc_probe = FpcCompressor{}.probe_size(block);
  const auto scan_probe = FpcCompressor::probe_size(s);
  EXPECT_EQ(fpc_probe, scan_probe);
}

#if PCMSIM_SIMD_HAS_AVX2
TEST(SimdKernel, EnduranceDecrementRandomMasks) {
  if (!avx2_runnable()) GTEST_SKIP() << "CPU lacks AVX2";
  Rng rng(0xDECAFu);
  for (int iter = 0; iter < 2000; ++iter) {
    // +64 tail lanes per the kernel contract (masked store slack).
    std::vector<std::uint16_t> got(128, 0);
    for (auto& v : got) v = static_cast<std::uint16_t>(rng.next_below(0xFFFE) + 1);
    std::vector<std::uint16_t> want = got;
    std::uint64_t mask = rng();
    switch (iter % 5) {
      case 0: break;
      case 1: mask &= 0xFFull; break;                  // sub-word chunk
      case 2: mask = 1ull << rng.next_below(64); break;  // single lane
      case 3: mask = ~0ull; break;                     // every lane
      case 4: mask = 0x8000000000000001ull; break;     // lanes 0 and 63
    }
    const std::size_t off = rng.next_below(64);  // arbitrary lane alignment
    simd::scalar::endurance_decrement64(want.data() + off, mask);
    simd::avx2::endurance_decrement64(got.data() + off, mask);
    ASSERT_EQ(got, want) << "iter " << iter;
  }
}

TEST(SimdKernel, MaskedMinRandom) {
  if (!avx2_runnable()) GTEST_SKIP() << "CPU lacks AVX2";
  Rng rng(0x317Bu);
  for (int iter = 0; iter < 2000; ++iter) {
    const std::size_t words = 1 + rng.next_below(8);
    std::vector<std::uint16_t> lanes(words * 64);
    for (auto& v : lanes) v = static_cast<std::uint16_t>(rng.next_below(0x10000));
    std::vector<std::uint64_t> skip(words);
    for (auto& s : skip) {
      switch (iter % 4) {
        case 0: s = rng(); break;
        case 1: s = 0; break;
        case 2: s = ~0ull; break;          // fully skipped word
        case 3: s = rng() | rng(); break;  // dense skip
      }
    }
    const std::uint16_t want = simd::scalar::masked_min_u16(lanes.data(), skip.data(), words);
    const std::uint16_t got = simd::avx2::masked_min_u16(lanes.data(), skip.data(), words);
    ASSERT_EQ(got, want) << "iter " << iter;
  }
}

TEST(SimdKernel, MergeBlockRandomMasks) {
  if (!avx2_runnable()) GTEST_SKIP() << "CPU lacks AVX2";
  Rng rng(0xB1E4Du);
  for (int iter = 0; iter < 2000; ++iter) {
    Block dst;
    Block src;
    for (auto& v : dst) v = static_cast<std::uint8_t>(rng.next_below(256));
    for (auto& v : src) v = static_cast<std::uint8_t>(rng.next_below(256));
    std::uint16_t mask;
    switch (iter % 4) {
      case 0: mask = static_cast<std::uint16_t>(rng.next_below(0x10000)); break;
      case 1: mask = 0; break;
      case 2: mask = 0xFFFF; break;
      case 3: mask = static_cast<std::uint16_t>(1u << rng.next_below(16)); break;
    }
    Block want = dst;
    simd::scalar::merge_block_u32(want.data(), src.data(), mask);
    Block got = dst;
    simd::avx2::merge_block_u32(got.data(), src.data(), mask);
    ASSERT_EQ(got, want) << "mask " << mask;
  }
}
#endif  // PCMSIM_SIMD_HAS_AVX2

TEST(SimdKernel, EnduranceDecrementZeroMaskTouchesNothing) {
  for (const auto& [name, decrement] : KERNELS(endurance_decrement64)) {
    std::vector<std::uint16_t> lanes(128, 7);
    decrement(lanes.data(), 0);
    for (const auto v : lanes) ASSERT_EQ(v, 7) << name;
  }
}

TEST(SimdKernel, MaskedMinBoundaryLanes) {
  for (const auto& [name, min_u16] : KERNELS(masked_min_u16)) {
    std::vector<std::uint16_t> lanes(512, 0xFFFF);
    std::vector<std::uint64_t> skip(8, 0);
    // Minimum in the very first and very last lane; 0xFFFF live lanes must
    // not be confused with the all-skipped sentinel.
    lanes[0] = 3;
    EXPECT_EQ(min_u16(lanes.data(), skip.data(), 8), 3) << name;
    lanes[0] = 0xFFFF;
    lanes[511] = 5;
    EXPECT_EQ(min_u16(lanes.data(), skip.data(), 8), 5) << name;
    skip[7] = 1ull << 63;  // skip exactly the minimum lane
    EXPECT_EQ(min_u16(lanes.data(), skip.data(), 8), 0xFFFF) << name;
    std::fill(skip.begin(), skip.end(), ~0ull);  // everything skipped
    EXPECT_EQ(min_u16(lanes.data(), skip.data(), 8), 0xFFFF) << name;
  }
}

TEST(SimdKernel, ScanAdversarialLanePatterns) {
  // Every edge word replicated, paired, and placed in every lane position —
  // exercises base selection (first oversized word), overflow in the delta
  // subtraction, and class priority on boundary values.
  Rng rng(0x5CABu);
  for (const auto& [name, scan] : KERNELS(scan_words)) {
    for (const std::uint32_t a : kEdgeWords) {
      for (const std::uint32_t b : kEdgeWords) {
        std::uint64_t w[8];
        for (std::size_t i = 0; i < 8; ++i) {
          w[i] = (static_cast<std::uint64_t>(b) << 32) | a;
        }
        // Scatter one odd word to vary the base position.
        w[rng.next_below(8)] = (static_cast<std::uint64_t>(a) << 32) | b;
        check_scan(name, scan, w);
      }
    }
  }
}

TEST(SimdKernel, ScanRandomized) {
  Rng rng(0xF00Du);
  for (const auto& [name, scan] : KERNELS(scan_words)) {
    for (int iter = 0; iter < 3000; ++iter) {
      std::uint64_t w[8];
      for (auto& v : w) {
        switch (iter % 4) {
          case 0: v = rng(); break;
          case 1: v = rng() & 0x00FF00FF00FF00FFull; break;  // compressible-ish
          case 2: v = kEdgeWords[rng.next_below(std::size(kEdgeWords))] *
                      0x100000001ull; break;
          case 3: v = rng.next_bool(0.5) ? 0 : rng(); break;  // zero runs
        }
      }
      check_scan(name, scan, w);
    }
  }
}

TEST(SimdKernel, ScanValueModelCorpus) {
  // Realistic blocks from the calibrated value model (Table III app mix).
  for (const char* app : {"gcc", "milc", "lbm", "mcf"}) {
    GeneratorTraceSource gen(profile_by_name(app), 512, 0xC0DE);
    std::vector<WritebackEvent> events(512);
    ASSERT_EQ(gen.next_batch(events), events.size());
    for (const auto& [name, scan] : KERNELS(scan_words)) {
      for (const auto& ev : events) {
        std::uint64_t w[8];
        std::memcpy(w, ev.data.data(), kBlockBytes);
        check_scan(name, scan, w);
      }
    }
  }
}

}  // namespace
}  // namespace pcmsim
