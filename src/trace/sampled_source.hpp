// Batched rewrite-pattern sampler: the fast synthetic write-back source.
//
// TraceGenerator (workload/trace.hpp) pays three per-event costs that this
// class removes while keeping the workload model:
//   1. an unordered_map lookup per event        -> flat arrays indexed by the
//      folded line (the region is small by construction: traces fold the
//      app's working set onto the simulated PCM region);
//   2. an O(log n) binary search over a multi-MB Zipf CDF (cache-missing)
//      -> an O(1) Walker/Vose alias table (common/zipf.hpp), shared by every
//      live source of the same app;
//   3. full value resynthesis per event (up to ~16 hashed word writes)
//      -> cached static base + current blocks per line, advanced one version
//      incrementally via value_model's apply_dynamic (revert the previous
//      version's touched words, apply the new overlay).
//
// Calibration contract: the sampler shares fold_rank/initial_line_shape/
// ClassAssigner with TraceGenerator, so per-line value classes, shapes and
// the (line, shape, version) -> Block value function are *identical*; the
// Zipf alias table draws from the same popularity pmf; shape redraws use the
// same per-rewrite probability. Only the RNG consumption order differs, so
// the two sources are statistically equivalent (asserted by
// tests/trace_sampler_test.cpp) but not bit-identical streams. Every figure
// bench and pinned checksum runs on this source; GeneratorTraceSource stays
// only as the calibration oracle and behind `--source legacy`.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/zipf.hpp"
#include "trace/trace_source.hpp"
#include "workload/app_profile.hpp"
#include "workload/value_model.hpp"

namespace pcmsim {

class SampledTraceSource final : public TraceSource {
 public:
  /// `region_lines` folds the app's working set onto the simulated PCM
  /// region, exactly as TraceGenerator does. Memory is O(region_lines)
  /// for the cached per-line blocks, plus the app's alias table: 12 bytes
  /// per working-set line, paid once per distinct (working_set_lines,
  /// zipf_theta) among the sources alive at the same time. The table is
  /// shared and immutable and is freed with the last source holding it, so
  /// a source built after that pays the build again.
  SampledTraceSource(const AppProfile& app, std::uint64_t region_lines, std::uint64_t seed);

  SampledTraceSource(const SampledTraceSource&) = delete;
  SampledTraceSource& operator=(const SampledTraceSource&) = delete;

  std::size_t next_batch(std::span<WritebackEvent> out) override;
  [[nodiscard]] std::uint64_t events() const override { return events_; }
  void reset() override;

  [[nodiscard]] const AppProfile& app() const { return app_; }
  [[nodiscard]] std::uint64_t region_lines() const { return region_lines_; }

  /// The value class governing `line`'s contents (same assignment as
  /// TraceGenerator::class_of at equal seed).
  [[nodiscard]] const ValueClassSpec& class_of(LineAddr line) const;

  /// Value most recently produced for `line` (all-zero if never written).
  [[nodiscard]] Block current_value(LineAddr line) const;

  /// The shared Zipf alias table this source draws ranks from.
  [[nodiscard]] const std::shared_ptr<const ZipfAliasTable>& alias_table() const {
    return alias_table_;
  }

  /// Calibration introspection (compared against TraceGenerator).
  [[nodiscard]] std::uint64_t shape_redraws() const { return shape_redraws_; }
  [[nodiscard]] std::uint64_t touched_lines() const { return touched_lines_; }

 private:
  struct LineState {
    std::uint32_t shape = 0;
    std::uint32_t version = 0;
    std::uint16_t touched = 0;  ///< 4-byte words written by the last apply_dynamic
    std::uint8_t class_index = 0;
    bool initialized = false;
  };

  void rebuild_base(LineAddr line, LineState& st);
  void produce(LineAddr line, WritebackEvent& ev);

  AppProfile app_;
  std::uint64_t region_lines_;
  std::uint64_t seed_;
  // Two independent streams: rank draws and per-line state updates. The
  // batch loop tiles rank draws ahead of state updates, so a single stream
  // would make the event sequence depend on the caller's batch size; with
  // split streams each is consumed strictly in event order and the stream is
  // identical for any batching.
  Rng rank_rng_;
  Rng state_rng_;
  ClassAssigner classes_;
  // Alias table over Zipf ranks: P(rank k) proportional to 1/(k+1)^theta,
  // identical pmf to common/zipf.hpp's CDF sampler. next_batch reads the
  // table's arrays through the cached pointers, not through the shared_ptr.
  std::shared_ptr<const ZipfAliasTable> alias_table_;
  const double* alias_prob_;
  const std::uint32_t* alias_;
  std::uint64_t alias_size_;
  // Flat per-line state, indexed by folded line address.
  std::vector<LineState> states_;
  std::vector<ValueGenContext> ctx_;
  std::vector<Block> base_;     ///< static base of (line, shape)
  std::vector<Block> current_;  ///< base + current version's dynamic overlay
  std::uint64_t events_ = 0;
  std::uint64_t shape_redraws_ = 0;
  std::uint64_t touched_lines_ = 0;
};

}  // namespace pcmsim
