#include "trace/sampled_source.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "common/assert.hpp"
#include "common/profiler.hpp"
#include "common/simd.hpp"

namespace pcmsim {

SampledTraceSource::SampledTraceSource(const AppProfile& app, std::uint64_t region_lines,
                                       std::uint64_t seed)
    : app_(app),
      region_lines_(region_lines),
      seed_(seed),
      rank_rng_(mix64(seed ^ 0x7ac3ull)),
      state_rng_(mix64(seed ^ 0x51a7e5ull)),
      classes_(app_, seed),
      alias_table_(ZipfAliasTable::shared(app_.working_set_lines, app_.zipf_theta)),
      alias_prob_(alias_table_->prob.data()),
      alias_(alias_table_->alias.data()),
      alias_size_(alias_table_->prob.size()) {
  expects(region_lines > 0, "region must be non-empty");
  expects(app_.classes.size() <= 256, "class index must fit a byte");
  states_.resize(region_lines_);
  ctx_.resize(region_lines_);
  base_.resize(region_lines_);
  current_.resize(region_lines_);
}

void SampledTraceSource::rebuild_base(LineAddr line, LineState& st) {
  const ValueClassSpec& spec = app_.classes[st.class_index];
  ctx_[line] = make_gen_context(spec, line, st.shape);
  Block& base = base_[line];
  base = Block{};
  generate_static_base(spec, ctx_[line], base);
  current_[line] = base;
  st.touched = apply_dynamic(spec, ctx_[line], line, st.shape, st.version, current_[line]);
}

void SampledTraceSource::produce(LineAddr line, WritebackEvent& ev) {
  LineState& st = states_[line];
  if (!st.initialized) {
    st.initialized = true;
    ++touched_lines_;
    st.shape = initial_line_shape(line, seed_);
    st.version = 0;
    const ValueClassSpec& cls = classes_.of(line);
    st.class_index = static_cast<std::uint8_t>(&cls - app_.classes.data());
    rebuild_base(line, st);
  } else {
    ++st.version;
    if (state_rng_.next_bool(app_.shape_redraw_prob)) {
      ++shape_redraws_;
      st.shape = static_cast<std::uint32_t>(state_rng_());
      st.version = 0;
      rebuild_base(line, st);
    } else {
      // Revert the previous version's dynamic words to the static base, then
      // overlay the new version — bit-identical to resynthesizing the value
      // from scratch (see value_model.hpp's decomposition contract). The
      // revert is a masked blend of base_ into current_ over the 16 u32
      // lanes rather than a per-word memcpy bit-walk.
      Block& cur = current_[line];
      const Block& base = base_[line];
      if (st.touched != 0) simd::active::merge_block_u32(cur.data(), base.data(), st.touched);
      const ValueClassSpec& spec = app_.classes[st.class_index];
      st.touched = apply_dynamic(spec, ctx_[line], line, st.shape, st.version, cur);
    }
  }
  ev.line = line;
  ev.data = current_[line];
}

std::size_t SampledTraceSource::next_batch(std::span<WritebackEvent> out) {
  const prof::ScopedStage stage(prof::Stage::kTraceGen);
  // Tile the batch: draw a run of ranks back-to-back, then run the state
  // updates, so the alias arrays are not interleaved with 64-byte block
  // traffic. Each alias draw is a uniform slot i plus a coin against
  // prob[i]; the tile takes every (slot, coin) pair first, in the order a
  // one-at-a-time draw consumes them, and prefetches each slot's prob/alias
  // entries, so the multi-MB table's cache misses overlap instead of
  // serializing on the RNG chain.
  std::array<std::uint64_t, 64> slot;
  std::array<double, 64> coin;
  std::array<LineAddr, 64> lines;
  std::size_t done = 0;
  while (done < out.size()) {
    const std::size_t tile = std::min(lines.size(), out.size() - done);
    for (std::size_t i = 0; i < tile; ++i) {
      slot[i] = rank_rng_.next_below(alias_size_);
      coin[i] = rank_rng_.next_double();
      __builtin_prefetch(alias_prob_ + slot[i]);
      __builtin_prefetch(alias_ + slot[i]);
    }
    for (std::size_t i = 0; i < tile; ++i) {
      const std::uint64_t rank = coin[i] < alias_prob_[slot[i]] ? slot[i] : alias_[slot[i]];
      lines[i] = fold_rank(rank, seed_, region_lines_);
    }
    for (std::size_t i = 0; i < tile; ++i) produce(lines[i], out[done + i]);
    done += tile;
  }
  events_ += out.size();
  return out.size();
}

void SampledTraceSource::reset() {
  rank_rng_.reseed(mix64(seed_ ^ 0x7ac3ull));
  state_rng_.reseed(mix64(seed_ ^ 0x51a7e5ull));
  std::fill(states_.begin(), states_.end(), LineState{});
  events_ = 0;
  shape_redraws_ = 0;
  touched_lines_ = 0;
}

const ValueClassSpec& SampledTraceSource::class_of(LineAddr line) const {
  return classes_.of(line);
}

Block SampledTraceSource::current_value(LineAddr line) const {
  expects(line < region_lines_, "line outside region");
  if (!states_[line].initialized) return zero_block();
  return current_[line];
}

}  // namespace pcmsim
