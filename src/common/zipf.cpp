#include "common/zipf.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "common/assert.hpp"

namespace pcmsim {

ZipfSampler::ZipfSampler(std::uint64_t n, double theta) : n_(n), theta_(theta) {
  expects(n > 0, "Zipf universe must be non-empty");
  expects(theta >= 0.0, "Zipf theta must be non-negative");
  cdf_.resize(n);
  double acc = 0.0;
  for (std::uint64_t k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), theta);
    cdf_[k] = acc;
  }
  const double total = acc;
  for (auto& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against floating point shortfall
}

std::uint64_t ZipfSampler::sample(Rng& rng) const {
  const double u = rng.next_double();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::uint64_t>(it - cdf_.begin());
}

namespace {

// Walker/Vose construction over the weights 1/(k+1)^theta. O(n) time; the
// weights are written into `prob` and scaled in place, and one n-entry buffer
// holds both work stacks (small from the front, large from the back: their
// sizes never sum past n, since every index sits in at most one of them).
ZipfAliasTable build_alias_table(std::uint64_t n, double theta) {
  expects(n > 0, "Zipf universe must be non-empty");
  expects(n <= (std::uint64_t{1} << 32), "alias table index must fit 32 bits");
  ZipfAliasTable t;
  t.prob.resize(n);
  t.alias.resize(n);
  double total = 0.0;
  for (std::uint64_t k = 0; k < n; ++k) {
    t.prob[k] = 1.0 / std::pow(static_cast<double>(k + 1), theta);
    total += t.prob[k];
  }
  const double scale = static_cast<double>(n) / total;
  std::vector<std::uint32_t> stacks(n);
  std::uint64_t small = 0;      // stacks[0, small) is the small stack
  std::uint64_t large_end = n;  // stacks[large_end, n) is the large stack, top first
  for (std::uint64_t k = 0; k < n; ++k) {
    t.prob[k] *= scale;
    if (t.prob[k] < 1.0) {
      stacks[small++] = static_cast<std::uint32_t>(k);
    } else {
      stacks[--large_end] = static_cast<std::uint32_t>(k);
    }
  }
  while (small > 0 && large_end < n) {
    const std::uint32_t s = stacks[--small];
    const std::uint32_t l = stacks[large_end++];
    t.alias[s] = l;
    t.prob[l] -= 1.0 - t.prob[s];
    if (t.prob[l] < 1.0) {
      stacks[small++] = l;
    } else {
      stacks[--large_end] = l;
    }
  }
  // Every index popped from the small stack got its alias above; the
  // leftovers are 1.0 up to rounding, so clamp them to always take their own
  // slot.
  const auto keep_own_slot = [&t](std::uint32_t k) {
    t.prob[k] = 1.0;
    t.alias[k] = k;
  };
  for (std::uint64_t i = 0; i < small; ++i) keep_own_slot(stacks[i]);
  for (std::uint64_t i = large_end; i < n; ++i) keep_own_slot(stacks[i]);
  return t;
}

}  // namespace

std::shared_ptr<const ZipfAliasTable> ZipfAliasTable::shared(std::uint64_t n, double theta) {
  using Key = std::pair<std::uint64_t, std::uint64_t>;  // n, bit pattern of theta
  static std::mutex mu;
  static std::map<Key, std::weak_ptr<const ZipfAliasTable>> cache;  // guarded by mu
  const Key key{n, std::bit_cast<std::uint64_t>(theta)};
  const std::lock_guard lock(mu);
  if (auto live = cache[key].lock()) return live;
  // Built under the lock, so concurrent requests for one key build it once.
  auto table = std::make_shared<const ZipfAliasTable>(build_alias_table(n, theta));
  cache[key] = table;
  return table;
}

double ZipfSampler::pmf(std::uint64_t rank) const {
  expects(rank < n_, "Zipf pmf rank out of range");
  if (rank == 0) return cdf_[0];
  return cdf_[rank] - cdf_[rank - 1];
}

}  // namespace pcmsim
