// Hard-error tolerance scheme interface.
//
// PCM hard errors are *stuck-at* faults: the cell still reads reliably but no
// longer programs, and the mismatch is detected by the chip's verify read.
// A scheme therefore knows, at write time, exactly which cells are stuck and
// at which value, and must arrange the stored image (replacement entries,
// partition inversion, ...) so that a later read recovers the data exactly.
//
// The paper's baseline uses ECP-6 (Schechter et al., ISCA'10); SAFER
// (Seong et al., MICRO'10) and Aegis (Fan et al., MICRO'13) are evaluated as
// stronger partition-based alternatives (Section III-A.4, Figure 9).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "common/inline_bytes.hpp"
#include "common/types.hpp"

namespace pcmsim {

struct WordClassScan;  // compression/word_scan.hpp (word-granularity seam)

/// One stuck-at cell: position within the protected window and latched value.
struct FaultCell {
  std::uint16_t pos = 0;
  bool stuck_value = false;

  friend bool operator==(const FaultCell&, const FaultCell&) = default;
};

/// Protected-unit granularity of a scheme.
enum class SchemeGranularity : std::uint8_t {
  kLine,  ///< protects one (possibly sliding) window as a whole
  kWord,  ///< protects fixed words in place, consuming per-word slack
};

/// Capability descriptor a scheme declares about itself. PcmSystem's
/// constructor checks these instead of hard-coding per-scheme guards, and the
/// registry snapshots them so benches can reason about a scheme (pick a legal
/// mode, skip invalid combinations) without constructing it.
struct SchemeTraits {
  std::size_t metadata_bits = 0;          ///< == metadata_bits()
  std::size_t guaranteed_correctable = 0; ///< == guaranteed_correctable()
  SchemeGranularity granularity = SchemeGranularity::kLine;
  /// Works on sub-line windows, i.e. composes with the paper's sliding
  /// compression window. False for whole-line-only codes (SECDED, coset).
  bool composes_with_window = true;
  /// Only legal in SystemMode::kBaseline (e.g. SECDED: check bits cover the
  /// full 512-bit line; a moving sub-window would invalidate them).
  bool baseline_only = false;
  /// Needs the compression scan's per-word slack to function — the system
  /// must run with compression enabled (word-level restricted coset coding).
  bool requires_compression = false;
  /// can_tolerate() is exactly `faults.size() <= guaranteed_correctable()`
  /// for every pattern and window (ECP-N, BCH-t): the fault count decides
  /// placement on its own, so WindowPlacer answers from the line's per-byte
  /// stuck prefix sums and never gathers a window's faults. False wherever
  /// some patterns past the guarantee are still tolerated (SAFER, Aegis) or
  /// the rule is not a plain count (SECDED's per-word rule, coset slack).
  bool tolerance_is_count_exact = false;

  friend bool operator==(const SchemeTraits&, const SchemeTraits&) = default;
};

class HardErrorScheme {
 public:
  virtual ~HardErrorScheme() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Metadata bits consumed in the line's 64-bit ECC-chip area.
  [[nodiscard]] virtual std::size_t metadata_bits() const = 0;

  /// Fault count the scheme corrects for *every* fault pattern.
  [[nodiscard]] virtual std::size_t guaranteed_correctable() const = 0;

  /// True when a window of `window_bits` cells containing exactly the given
  /// stuck cells can still store arbitrary data. Positions are window-relative
  /// and strictly increasing. Data-independent for all implemented schemes.
  [[nodiscard]] virtual bool can_tolerate(std::span<const FaultCell> faults,
                                          std::size_t window_bits) const = 0;

  /// Produces the bit image to store so that, after the stuck cells impose
  /// their values, decode() recovers `data` exactly. Returns nullopt when the
  /// fault pattern is uncorrectable. `image` and `data` are LSB-first packed
  /// `window_bits`-long buffers; `meta` receives scheme metadata.
  struct EncodeResult {
    InlineBytes image;       ///< bits to program into the window (<= 64 bytes)
    std::uint64_t meta = 0;  ///< metadata word (<= metadata_bits() used)
  };
  [[nodiscard]] virtual std::optional<EncodeResult> encode(
      std::span<const std::uint8_t> data, std::size_t window_bits,
      std::span<const FaultCell> faults) const = 0;

  /// Recovers the original data from a raw read of the window plus metadata.
  [[nodiscard]] virtual InlineBytes decode(std::span<const std::uint8_t> raw,
                                           std::size_t window_bits, std::uint64_t meta,
                                           std::span<const FaultCell> faults) const = 0;

  /// Capability descriptor; the default derives it from the virtuals above
  /// (line granularity, no restrictions). Schemes with placement or mode
  /// restrictions override this.
  [[nodiscard]] virtual SchemeTraits traits() const;

  // --- Word-granularity slack seam (SchemeGranularity::kWord only) ---------

  /// can_tolerate() refined with per-u32-cell content sizes: `word_content[i]`
  /// is how many of cell i's 32 bits carry encoded content (the rest are
  /// compression slack the scheme may treat as don't-cares). An empty span
  /// means "content unknown" and must fall back to the data-independent
  /// can_tolerate(). Line-granularity schemes ignore the span entirely.
  [[nodiscard]] virtual bool can_tolerate_with(std::span<const FaultCell> faults,
                                               std::size_t window_bits,
                                               std::span<const std::uint8_t> word_content) const;

  /// Fills `out[i]` with the content bits of u32 cell i implied by the
  /// compression scan (phase-1 word classes). Only meaningful for word-
  /// granularity schemes; the default throws.
  virtual void word_content_bits(const WordClassScan& scan,
                                 std::span<std::uint8_t> out) const;
};

/// Applies stuck-at faults to an image: what the array would actually hold.
[[nodiscard]] InlineBytes apply_faults(std::span<const std::uint8_t> image,
                                       std::size_t window_bits,
                                       std::span<const FaultCell> faults);

}  // namespace pcmsim
