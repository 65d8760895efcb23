// Zipfian sampling over a finite universe, used to model hot/cold memory
// line popularity in the synthetic workloads.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"

namespace pcmsim {

/// Samples ranks in [0, n) with P(rank k) proportional to 1 / (k+1)^theta.
///
/// Uses a precomputed CDF with binary search; construction is O(n), sampling
/// O(log n). theta = 0 degenerates to the uniform distribution.
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double theta);

  /// Draws one rank (0 is the most popular).
  [[nodiscard]] std::uint64_t sample(Rng& rng) const;

  [[nodiscard]] std::uint64_t universe() const { return n_; }
  [[nodiscard]] double theta() const { return theta_; }

  /// Probability mass of a single rank.
  [[nodiscard]] double pmf(std::uint64_t rank) const;

 private:
  std::uint64_t n_;
  double theta_;
  std::vector<double> cdf_;  // cdf_[k] = P(rank <= k)
};

/// Walker/Vose alias table over the same pmf as ZipfSampler: a draw of a
/// uniform slot i takes rank i with probability prob[i], else alias[i], so
/// sampling is O(1) instead of a binary search over a multi-MB CDF.
struct ZipfAliasTable {
  std::vector<double> prob;
  std::vector<std::uint32_t> alias;

  /// The table for (n, theta), built at most once while anyone holds it.
  /// Callers that ask for the same (n, theta) while an earlier result is
  /// still alive get that same immutable object. The cache keeps only weak
  /// references, so the table is freed with its last holder, and a later
  /// request builds it again (bit-identical: the build is deterministic).
  /// Thread-safe.
  [[nodiscard]] static std::shared_ptr<const ZipfAliasTable> shared(std::uint64_t n,
                                                                    double theta);
};

}  // namespace pcmsim
