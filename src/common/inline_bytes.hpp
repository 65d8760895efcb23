// Fixed-capacity inline byte buffer for the allocation-free write path.
//
// Compressed images and ECC window images are always at most one 64-byte
// line, so the steady-state write path (compress -> place -> store) keeps
// them on the stack instead of paying a heap round-trip per write.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace pcmsim {

/// Vector-like byte buffer with inline storage for up to kBlockBytes bytes.
/// Growing past the capacity is a contract violation, not a reallocation.
class InlineBytes {
 public:
  using value_type = std::uint8_t;
  static constexpr std::size_t kCapacity = kBlockBytes;

  constexpr InlineBytes() = default;
  explicit InlineBytes(std::span<const std::uint8_t> src) { assign(src); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::uint8_t* data() { return buf_.data(); }
  [[nodiscard]] const std::uint8_t* data() const { return buf_.data(); }
  [[nodiscard]] std::uint8_t* begin() { return buf_.data(); }
  [[nodiscard]] const std::uint8_t* begin() const { return buf_.data(); }
  [[nodiscard]] std::uint8_t* end() { return buf_.data() + size_; }
  [[nodiscard]] const std::uint8_t* end() const { return buf_.data() + size_; }
  [[nodiscard]] std::uint8_t& operator[](std::size_t i) { return buf_[i]; }
  [[nodiscard]] const std::uint8_t& operator[](std::size_t i) const { return buf_[i]; }
  [[nodiscard]] std::uint8_t& back() { return buf_[size_ - 1]; }
  [[nodiscard]] const std::uint8_t& back() const { return buf_[size_ - 1]; }

  void clear() { size_ = 0; }

  /// Grows (zero-filling new bytes) or shrinks to exactly `n` bytes.
  void resize(std::size_t n) {
    expects(n <= kCapacity, "InlineBytes capacity exceeded");
    if (n > size_) std::memset(buf_.data() + size_, 0, n - size_);
    size_ = static_cast<std::uint8_t>(n);
  }

  void assign(std::size_t n, std::uint8_t value) {
    expects(n <= kCapacity, "InlineBytes capacity exceeded");
    std::memset(buf_.data(), value, n);
    size_ = static_cast<std::uint8_t>(n);
  }

  void assign(std::span<const std::uint8_t> src) {
    expects(src.size() <= kCapacity, "InlineBytes capacity exceeded");
    std::memcpy(buf_.data(), src.data(), src.size());
    size_ = static_cast<std::uint8_t>(src.size());
  }

  void push_back(std::uint8_t value) {
    expects(size_ < kCapacity, "InlineBytes capacity exceeded");
    buf_[size_++] = value;
  }

  // No conversion operators: std::span's range constructor already takes this
  // contiguous sized range, and a second path makes every conversion ambiguous
  // under -Wconversion.

  friend bool operator==(const InlineBytes& a, const InlineBytes& b) {
    return a.size_ == b.size_ && std::memcmp(a.buf_.data(), b.buf_.data(), a.size_) == 0;
  }

  /// Comparison against any contiguous byte range (e.g. std::vector in tests).
  friend bool operator==(const InlineBytes& a, std::span<const std::uint8_t> b) {
    return a.size_ == b.size() &&
           (a.size_ == 0 || std::memcmp(a.buf_.data(), b.data(), a.size_) == 0);
  }

 private:
  std::array<std::uint8_t, kCapacity> buf_;  // first size_ bytes are live
  std::uint8_t size_ = 0;
};

}  // namespace pcmsim
