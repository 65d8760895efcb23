#include "compression/bdi.hpp"

#include <array>
#include <cstring>

#include "common/assert.hpp"

namespace pcmsim {

namespace {

struct Geometry {
  std::size_t base_bytes;
  std::size_t delta_bytes;
};

/// Base/delta geometry for the parameterized layouts; zeros/rep handled apart.
Geometry geometry_of(BdiLayout layout) {
  switch (layout) {
    case BdiLayout::kB8D1: return {8, 1};
    case BdiLayout::kB8D2: return {8, 2};
    case BdiLayout::kB8D4: return {8, 4};
    case BdiLayout::kB4D1: return {4, 1};
    case BdiLayout::kB4D2: return {4, 2};
    case BdiLayout::kB2D1: return {2, 1};
    default: break;
  }
  expects(false, "layout has no base/delta geometry");
  return {};
}

/// Sign-extends the low `bytes` bytes of v.
std::int64_t sign_extend(std::uint64_t v, std::size_t bytes) {
  const unsigned bits = static_cast<unsigned>(bytes * 8);
  if (bits >= 64) return static_cast<std::int64_t>(v);
  const std::uint64_t mask = (1ull << bits) - 1;
  std::uint64_t x = v & mask;
  const std::uint64_t sign = 1ull << (bits - 1);
  if (x & sign) x |= ~mask;
  return static_cast<std::int64_t>(x);
}

/// True when `delta` survives truncation to `bytes` bytes and sign extension.
bool fits_signed(std::int64_t delta, std::size_t bytes) {
  if (bytes >= 8) return true;
  const std::int64_t lo = -(1ll << (bytes * 8 - 1));
  const std::int64_t hi = (1ll << (bytes * 8 - 1)) - 1;
  return delta >= lo && delta <= hi;
}

/// a - b with two's-complement wraparound (computed in uint64_t, so no
/// signed-overflow UB): the same bits the SIMD backends' wrapped b8 deltas
/// model.
std::int64_t wrapping_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}

/// Loads word `i` of `base_bytes` bytes as an unsigned value.
std::uint64_t load_word(const Block& block, std::size_t i, std::size_t base_bytes) {
  std::uint64_t v = 0;
  std::memcpy(&v, block.data() + i * base_bytes, base_bytes);
  return v;
}

void store_word(Block& block, std::size_t i, std::size_t base_bytes, std::uint64_t v) {
  std::memcpy(block.data() + i * base_bytes, &v, base_bytes);
}

/// Layouts in nondecreasing image-size order: zeros 1, rep8 8, b8d1 17,
/// b4d1 22, b8d2 25, b2d1 38, b4d2 38, b8d4 41 bytes.
constexpr BdiLayout kOrder[] = {
    BdiLayout::kZeros, BdiLayout::kRep8, BdiLayout::kB8D1, BdiLayout::kB4D1,
    BdiLayout::kB8D2,  BdiLayout::kB2D1, BdiLayout::kB4D2, BdiLayout::kB8D4,
};

}  // namespace

std::string_view to_string(BdiLayout layout) {
  switch (layout) {
    case BdiLayout::kZeros: return "zeros";
    case BdiLayout::kRep8: return "rep8";
    case BdiLayout::kB8D1: return "b8d1";
    case BdiLayout::kB8D2: return "b8d2";
    case BdiLayout::kB8D4: return "b8d4";
    case BdiLayout::kB4D1: return "b4d1";
    case BdiLayout::kB4D2: return "b4d2";
    case BdiLayout::kB2D1: return "b2d1";
  }
  return "?";
}

std::size_t bdi_layout_size(BdiLayout layout) {
  switch (layout) {
    case BdiLayout::kZeros: return 1;
    case BdiLayout::kRep8: return 8;
    default: break;
  }
  const auto [k, d] = geometry_of(layout);
  const std::size_t n = kBlockBytes / k;
  return k + n * d + (n + 7) / 8;  // base + deltas + base-selector mask
}

std::optional<CompressedBlock> BdiCompressor::compress_with_layout(const Block& block,
                                                                   BdiLayout layout) const {
  CompressedBlock out;
  out.scheme = CompressionScheme::kBdi;
  out.encoding = static_cast<std::uint8_t>(layout);

  if (layout == BdiLayout::kZeros) {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kBlockBytes / 8; ++i) acc |= load_word(block, i, 8);
    if (acc != 0) return std::nullopt;
    out.bytes.assign(1, 0);
    return out;
  }

  if (layout == BdiLayout::kRep8) {
    const std::uint64_t first = load_word(block, 0, 8);
    for (std::size_t i = 1; i < kBlockBytes / 8; ++i) {
      if (load_word(block, i, 8) != first) return std::nullopt;
    }
    out.bytes.resize(8);
    std::memcpy(out.bytes.data(), &first, 8);
    return out;
  }

  const auto [k, d] = geometry_of(layout);
  const std::size_t n = kBlockBytes / k;

  // Single pass: the explicit base is the first word too large for the zero
  // base (its own delta is 0, which always fits); deltas stream straight
  // into the image and the base-selector mask accumulates in a register
  // (n <= 32 words).
  out.bytes.resize(bdi_layout_size(layout));
  bool have_base = false;
  std::uint64_t base = 0;
  std::int64_t base_value = 0;
  std::uint64_t uses_base = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t word = sign_extend(load_word(block, i, k), k);
    std::int64_t delta = word;  // zero base
    if (!fits_signed(word, d)) {
      if (!have_base) {
        have_base = true;
        base = load_word(block, i, k);
        base_value = sign_extend(base, k);
      }
      delta = wrapping_sub(word, base_value);
      if (!fits_signed(delta, d)) return std::nullopt;
      uses_base |= 1ull << i;
    }
    const auto raw = static_cast<std::uint64_t>(delta);
    std::memcpy(out.bytes.data() + k + i * d, &raw, d);
  }
  std::memcpy(out.bytes.data(), &base, k);
  std::memcpy(out.bytes.data() + k + n * d, &uses_base, (n + 7) / 8);
  return out;
}

bool BdiCompressor::layout_applies(const Block& block, BdiLayout layout) {
  if (layout == BdiLayout::kZeros) {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kBlockBytes / 8; ++i) acc |= load_word(block, i, 8);
    return acc == 0;
  }

  if (layout == BdiLayout::kRep8) {
    const std::uint64_t first = load_word(block, 0, 8);
    for (std::size_t i = 1; i < kBlockBytes / 8; ++i) {
      if (load_word(block, i, 8) != first) return false;
    }
    return true;
  }

  const auto [k, d] = geometry_of(layout);
  const std::size_t n = kBlockBytes / k;
  bool have_base = false;
  std::int64_t base_value = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t word = sign_extend(load_word(block, i, k), k);
    if (fits_signed(word, d)) continue;
    if (!have_base) {
      have_base = true;
      base_value = word;  // the base's own delta is 0
      continue;
    }
    if (!fits_signed(wrapping_sub(word, base_value), d)) return false;
  }
  return true;
}

std::optional<CompressedBlock> BdiCompressor::compress(const Block& block) const {
  // kOrder is nondecreasing in image size and the exhaustive scan's strict-<
  // comparison kept the first of equal-size candidates, so stopping at the
  // first applicable layout is bit-identical to trying all eight. Every
  // layout size is < kBlockBytes, so no final size check is needed.
  for (const auto layout : kOrder) {
    if (auto candidate = compress_with_layout(block, layout)) return candidate;
  }
  return std::nullopt;
}

std::optional<std::size_t> BdiCompressor::probe_size(const Block& block) const {
  for (const auto layout : kOrder) {
    if (layout_applies(block, layout)) return bdi_layout_size(layout);
  }
  return std::nullopt;
}

std::optional<BdiLayout> BdiCompressor::probe_layout(const WordClassScan& scan) {
  // Same walk as compress()/probe_size(block), but each layout's
  // applicability comes from the scan's precomputed bit instead of a fresh
  // pass over the block.
  for (const auto layout : kOrder) {
    if (scan.bdi_applies & (1u << static_cast<std::uint8_t>(layout))) return layout;
  }
  return std::nullopt;
}

std::optional<std::size_t> BdiCompressor::probe_size(const WordClassScan& scan) {
  const auto layout = probe_layout(scan);
  if (!layout) return std::nullopt;
  return bdi_layout_size(*layout);
}

Block BdiCompressor::decompress(const CompressedBlock& cb) const {
  expects(cb.scheme == CompressionScheme::kBdi, "not a BDI image");
  const auto layout = static_cast<BdiLayout>(cb.encoding);
  expects(cb.bytes.size() == bdi_layout_size(layout), "BDI image size mismatch");
  Block block{};

  if (layout == BdiLayout::kZeros) return block;

  if (layout == BdiLayout::kRep8) {
    std::uint64_t word = 0;
    std::memcpy(&word, cb.bytes.data(), 8);
    for (std::size_t i = 0; i < kBlockBytes / 8; ++i) store_word(block, i, 8, word);
    return block;
  }

  const auto [k, d] = geometry_of(layout);
  const std::size_t n = kBlockBytes / k;
  std::uint64_t base_raw = 0;
  std::memcpy(&base_raw, cb.bytes.data(), k);
  const std::int64_t base = sign_extend(base_raw, k);
  const std::uint8_t* mask = cb.bytes.data() + k + n * d;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t delta_raw = 0;
    std::memcpy(&delta_raw, cb.bytes.data() + k + i * d, d);
    const std::int64_t delta = sign_extend(delta_raw, d);
    const bool uses_base = (mask[i / 8] >> (i % 8)) & 1u;
    // Wrapping add: inverts the wrapped delta of compress_with_layout.
    const std::uint64_t word =
        static_cast<std::uint64_t>(uses_base ? base : 0) + static_cast<std::uint64_t>(delta);
    store_word(block, i, k, word);
  }
  return block;
}

}  // namespace pcmsim
