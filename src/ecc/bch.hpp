// Binary BCH over GF(2^10) used as a stuck-at *erasure* corrector.
//
// A BCH code with designed distance 2t+1 stores t odd-power syndromes
// S_j = sum over set data bits i of alpha^(j*i), j = 1, 3, ..., 2t-1, each a
// 10-bit GF(2^10) element (the 1023-cell field covers the 512-bit line).
// Classic BCH decoding locates t unknown error positions; PCM stuck-at
// faults are *erasures* — the verify read tells the controller exactly which
// cells are stuck — and a distance-(2t+1) code corrects up to 2t erasures.
// So for the same t*10-bit metadata budget the erasure decoder guarantees
// double ECP-style strength: BCH-t6 spends 60 bits (ECP-6 spends 63) and
// guarantees 12 arbitrary stuck cells against ECP's 6.
//
// Encode stores the data image unmodified (the check symbols live in the
// reliable ECC-chip area, like ECP's pointers); decode re-computes the
// syndromes of the raw read, XORs against the stored ones, and solves the
// resulting GF(2) linear system restricted to the known fault positions.
#pragma once

#include <array>
#include <string>

#include "ecc/scheme.hpp"

namespace pcmsim {

class BchScheme final : public HardErrorScheme {
 public:
  /// `t` odd syndromes (designed distance 2t+1): corrects 2t erasures.
  /// t in 1..6 so the t x 10-bit syndromes fit the 64-bit metadata word.
  explicit BchScheme(std::size_t t = 2);

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] std::size_t metadata_bits() const override { return t_ * kSymbolBits; }
  [[nodiscard]] std::size_t guaranteed_correctable() const override { return 2 * t_; }
  /// can_tolerate() is a plain count against guaranteed_correctable().
  [[nodiscard]] SchemeTraits traits() const override {
    SchemeTraits t = HardErrorScheme::traits();
    t.tolerance_is_count_exact = true;
    return t;
  }
  [[nodiscard]] bool can_tolerate(std::span<const FaultCell> faults,
                                  std::size_t window_bits) const override;
  [[nodiscard]] std::optional<EncodeResult> encode(
      std::span<const std::uint8_t> data, std::size_t window_bits,
      std::span<const FaultCell> faults) const override;
  [[nodiscard]] InlineBytes decode(std::span<const std::uint8_t> raw,
                                   std::size_t window_bits, std::uint64_t meta,
                                   std::span<const FaultCell> faults) const override;

  /// GF(2^10) element alpha^((j * pos) mod 1023); exposed for tests.
  [[nodiscard]] std::uint16_t alpha_pow(std::size_t exponent) const;

 private:
  static constexpr std::size_t kSymbolBits = 10;  // GF(2^10)
  static constexpr std::size_t kFieldOrder = 1023;

  /// Packs the t odd syndromes of `data` (LSB-first window image) into a u64.
  [[nodiscard]] std::uint64_t syndromes(std::span<const std::uint8_t> data,
                                        std::size_t window_bits) const;

  std::size_t t_;
  std::string name_;
  // exp_[k] = alpha^k (k < 2*1022 to skip mod in products); log_ unused by
  // the erasure decoder but kept for completeness of the field tables.
  std::array<std::uint16_t, 2 * kFieldOrder> exp_{};
};

}  // namespace pcmsim
