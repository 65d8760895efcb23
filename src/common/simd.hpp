// Portable SIMD layer for the write-path hot kernels.
//
// Two backends implement the same four kernels in separate translation
// units, selected at configure time by the PCMSIM_SIMD CMake option
// (AUTO / AVX2 / OFF -> compile definition PCMSIM_SIMD_BACKEND):
//
//  * scalar (simd_scalar.cpp) — the bit-walk reference implementation; the
//    AVX2 backend must be bit-identical to it (tests/simd_kernel_test drives
//    the differential checks, CI runs a forced-scalar job),
//  * avx2   (simd_avx2.cpp)   — 256-bit intrinsics, x86-64 only; the TU is
//    compiled with -mavx2 regardless of the active backend so tests can
//    cross-check it from a forced-scalar build (callers outside the active
//    alias must check cpuid first).
//
// AUTO picks avx2 on x86-64 and scalar elsewhere.
//
// `simd::active` aliases the selected backend's namespace, so call sites are
// compile-time dispatched (`simd::active::scan_words(...)`) and LTO can
// inline across the TU boundary.
//
// Kernel contracts (identical across backends):
//
//  endurance_decrement64(lanes, mask)
//    lanes[b] -= 1 for every set bit b of `mask`. Touches exactly 64 u16
//    lanes: lanes whose mask bit is clear are rewritten with their current
//    value (masked store), so the caller must own all 64 lanes — PcmArray
//    pads its endurance array with 64 zeroed tail lanes for ranges ending at
//    the last cell. No lane may underflow (the fast-path watermark >= 2
//    invariant guarantees every masked lane is >= 1).
//
//  masked_min_u16(lanes, skip, words64)
//    Minimum over `words64 * 64` u16 lanes with lanes whose `skip` bit is
//    set saturated to 0xFFFF; returns 0xFFFF when every lane is skipped.
//    Reads exactly words64*64 lanes and words64 mask words.
//
//  scan_words(words8, out)
//    The fused 64-byte block classification (compression probe): per-u32
//    FPC pattern class, FPC stream bits with zero-run folding, BDI base/
//    delta geometry applicability, all-zero / repeated-u64 flags. The class
//    ids in BlockScan::word_class are numerically the FpcPattern values and
//    the geometry bits follow kGeom* below; compression/word_scan.cpp
//    static_asserts the mapping and is the only consumer.
//
//  merge_block_u32(dst, src, mask)
//    dst 4-byte lane i = src lane i for every set bit i of `mask` (16 lanes
//    = one 64-byte block). Lanes with a clear bit are rewritten unchanged.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

namespace pcmsim::simd {

/// Result of one fused block scan. Field semantics mirror
/// compression/word_scan.hpp's WordClassScan; this struct is domain-neutral
/// so the kernel TUs need no compression headers.
struct BlockScan {
  std::array<std::uint8_t, 16> word_class{};  ///< FPC class id per u32 word
  std::uint16_t zero_mask = 0;                ///< bit i: u32 word i == 0
  std::uint32_t fpc_bits = 0;                 ///< FPC stream bits, runs folded
  std::uint8_t geom_ok = 0;                   ///< kGeom* bits: geometry applies
  bool all_zero = false;                      ///< every byte zero
  bool rep8 = false;                          ///< one repeated u64 word
};

/// geom_ok bit indices: base/delta geometries (zeros/rep8 are the flags).
inline constexpr unsigned kGeomB8D1 = 0;
inline constexpr unsigned kGeomB8D2 = 1;
inline constexpr unsigned kGeomB8D4 = 2;
inline constexpr unsigned kGeomB4D1 = 3;
inline constexpr unsigned kGeomB4D2 = 4;
inline constexpr unsigned kGeomB2D1 = 5;

/// FPC stream bits per non-zero word class (3-bit prefix + payload), indexed
/// by class id; class 0 (zero run) contributes via fpc_zero_run_bits instead.
inline constexpr std::array<std::uint8_t, 8> kFpcWordBits = {0,  3 + 4,  3 + 8, 3 + 16,
                                                             3 + 16, 3 + 16, 3 + 8, 3 + 32};

/// FPC stream bits contributed by the zero words of a block: each maximal run
/// of set bits in `zero_mask` costs 6 bits (prefix + 3-bit length) per started
/// group of 8 words — exactly the legacy probe's run folding. Shared by every
/// backend so the folding rule lives in one place.
[[nodiscard]] inline std::uint32_t fpc_zero_run_bits(std::uint32_t zero_mask) {
  std::uint32_t bits = 0;
  while (zero_mask != 0) {
    const unsigned start = static_cast<unsigned>(std::countr_zero(zero_mask));
    const unsigned len = static_cast<unsigned>(std::countr_one(zero_mask >> start));
    bits += 6 * ((len + 7) / 8);
    zero_mask >>= start;
    zero_mask >>= len;
  }
  return bits;
}

namespace scalar {
void endurance_decrement64(std::uint16_t* lanes, std::uint64_t mask);
std::uint16_t masked_min_u16(const std::uint16_t* lanes, const std::uint64_t* skip,
                             std::size_t words64);
void scan_words(const std::uint64_t* words8, BlockScan& out);
void merge_block_u32(std::uint8_t* dst, const std::uint8_t* src, std::uint16_t mask);
}  // namespace scalar

#if defined(__x86_64__) || defined(__amd64__) || defined(_M_X64)
#define PCMSIM_SIMD_HAS_AVX2 1
namespace avx2 {
void endurance_decrement64(std::uint16_t* lanes, std::uint64_t mask);
std::uint16_t masked_min_u16(const std::uint16_t* lanes, const std::uint64_t* skip,
                             std::size_t words64);
void scan_words(const std::uint64_t* words8, BlockScan& out);
void merge_block_u32(std::uint8_t* dst, const std::uint8_t* src, std::uint16_t mask);
}  // namespace avx2
#else
#define PCMSIM_SIMD_HAS_AVX2 0
#endif

// Compile-time backend selection (0 = scalar, 1 = avx2); the definition
// comes from src/common/CMakeLists.txt via the PCMSIM_SIMD option.
#ifndef PCMSIM_SIMD_BACKEND
#define PCMSIM_SIMD_BACKEND 0
#endif

#if PCMSIM_SIMD_BACKEND == 1
#if !PCMSIM_SIMD_HAS_AVX2
#error "PCMSIM_SIMD_BACKEND=1 (AVX2) requires an x86-64 target"
#endif
namespace active = avx2;
#else
namespace active = scalar;
#endif

}  // namespace pcmsim::simd
