#include "tier/front_tier.hpp"

#include <bit>
#include <cstring>
#include <utility>

#include "common/assert.hpp"
#include "common/profiler.hpp"
#include "common/rng.hpp"

namespace pcmsim {

std::string_view to_string(TierPolicy p) {
  switch (p) {
    case TierPolicy::kLru: return "lru";
    case TierPolicy::kSilent: return "silent";
    case TierPolicy::kComp: return "comp";
  }
  return "?";
}

TierPolicy tier_policy_from_string(std::string_view s) {
  if (s == "lru") return TierPolicy::kLru;
  if (s == "silent") return TierPolicy::kSilent;
  if (s == "comp") return TierPolicy::kComp;
  expects(false, "tier policy must be lru, silent, or comp");
  return TierPolicy::kLru;  // unreachable
}

ControllerConfig dram_tier_controller_config() {
  ControllerConfig cfg;
  cfg.banks = 1;  // the tier is one buffer, not a banked device
  // DDR3-1600-flavoured service at the shared 400 MHz command clock: no PCM
  // programming commit, so writes retire in a burst + write-recovery window
  // instead of PCM's 60-cycle precharge.
  cfg.timing.t_rdc = 20;
  cfg.timing.t_rp = 6;
  cfg.timing.t_cl = 5;
  cfg.timing.t_wl = 4;
  return cfg;
}

FrontTierConfig FrontTierConfig::for_kb(std::size_t kb, TierPolicy policy) {
  FrontTierConfig cfg;
  cfg.capacity_lines = kb * 1024 / kBlockBytes;
  cfg.policy = policy;
  return cfg;
}

std::uint64_t FrontTier::fingerprint(const Block& data) {
  std::uint64_t h = 0x46504d5449455231ull;  // "FPMTIER1"
  for (std::size_t i = 0; i < kBlockBytes; i += 8) {
    h = mix64(h, load_le<std::uint64_t>(data, i));
  }
  return h;
}

FrontTier::FrontTier(const FrontTierConfig& config, ForwardSink sink)
    : config_(config), sink_(std::move(sink)) {
  expects(config_.enabled(), "FrontTier requires capacity_lines > 0 (use the "
                             "embedding seam's disabled default instead)");
  expects(config_.ways >= 1, "tier needs at least one way");
  expects(config_.capacity_lines >= config_.ways,
          "tier capacity must hold at least one full set");
  expects(sink_ != nullptr, "tier needs a forward sink");
  sets_ = config_.capacity_lines / config_.ways;
  tags_.resize(sets_ * config_.ways);
  payloads_.resize(sets_ * config_.ways);
  if (config_.model_latency) controller_.emplace(config_.controller);
}

std::size_t FrontTier::set_of(LineAddr line) const {
  // Hash the index so tenant-sliced (contiguous) address spaces spread
  // across sets instead of aliasing set 0 per slice.
  return static_cast<std::size_t>(mix64(line) % sets_);
}

std::size_t FrontTier::find(std::size_t set, LineAddr line) const {
  const TagEntry* base = tags_.data() + set * config_.ways;
  for (std::size_t w = 0; w < config_.ways; ++w) {
    if (base[w].valid && base[w].line == line) return w;
  }
  return config_.ways;
}

std::size_t FrontTier::choose_victim(std::size_t set) {
  const std::size_t ways = config_.ways;
  const TagEntry* base = tags_.data() + set * ways;
  if (config_.policy == TierPolicy::kComp) {
    // Compressibility-aware retention: among the least-recently-used half of
    // the resident entries, evict the one whose payload compresses smallest
    // (cheapest to rewrite in PCM); ties go to the older entry. Incompressible
    // lines therefore survive roughly twice as long as plain LRU would keep
    // them, at the same capacity. Since lru ticks are unique, the candidates
    // are the ways with fewer than `half` older valid ways, and the victim is
    // their minimum (plan_size, lru). The LRU ranks are settled first, so
    // only candidates ever have their payload's size probed.
    PayloadSlot* slots = payloads_.data() + set * ways;
    std::size_t valid = 0;
    for (std::size_t w = 0; w < ways; ++w) valid += base[w].valid ? 1 : 0;
    const std::size_t half = (valid + 1) / 2;
    const auto key = [&](std::size_t w) { return std::pair{slots[w].plan_size, base[w].lru}; };
    std::size_t best = ways;
    for (std::size_t w = 0; w < ways; ++w) {
      if (!base[w].valid) continue;
      std::size_t older = 0;
      for (std::size_t u = 0; u < ways; ++u) {
        older += (base[u].valid && base[u].lru < base[w].lru) ? 1 : 0;
      }
      if (older >= half) continue;
      if (slots[w].plan_size == kPlanUnknown) slots[w].plan_size = probe_plan_size(slots[w].data);
      if (best == ways || key(w) < key(best)) best = w;
    }
    ensures(best != ways, "choose_victim called on an empty set");
    return best;
  }
  std::size_t best = ways;
  for (std::size_t w = 0; w < ways; ++w) {
    if (!base[w].valid) continue;
    if (best == ways || base[w].lru < base[best].lru) best = w;
  }
  ensures(best != ways, "choose_victim called on an empty set");
  return best;
}

void FrontTier::evict(std::size_t set, std::size_t way, bool count_as_flush) {
  TagEntry& e = tags_[set * config_.ways + way];
  ensures(e.valid, "evicting an invalid tier entry");
  PayloadSlot& p = payloads_[set * config_.ways + way];
  Forward fwd;
  fwd.line = e.line;
  fwd.tag = e.tag;
  fwd.data = p.data;
  if (content_aware()) {
    if (!p.fp_valid) p.fp = fingerprint(p.data);
    pcm_resident_[e.line] = ResidentLine{p.fp, p.data};
    stats_.words_touched += static_cast<std::uint64_t>(std::popcount(e.touched));
  } else {
    stats_.words_touched += kBlockBytes / 4;  // content-blind: full line
  }
  stats_.words_forwarded += kBlockBytes / 4;
  if (count_as_flush) {
    ++stats_.flushes;
  } else {
    ++stats_.evictions;
  }
  e.valid = false;
  --resident_;
  pending_.push_back(fwd);
}

void FrontTier::drain_forwards() {
  // The sink (the PCM write path) may be arbitrarily heavy; it runs outside
  // the kTierFilter profiler scope and outside the structure mutation, in
  // eviction order.
  for (const Forward& fwd : pending_) sink_(fwd);
  pending_.clear();
}

void FrontTier::charge_latency(std::uint64_t order) {
  if (!controller_) return;
  MemRequest req;
  req.arrival_cycle = order * config_.arrival_gap_cycles;
  req.is_read = false;
  req.bank = 0;
  controller_->submit(req);
}

std::uint16_t FrontTier::touched_words(const Block& before, const Block& after) const {
  std::uint16_t mask = 0;
  for (std::size_t w = 0; w < kBlockBytes / 4; ++w) {
    if (load_le<std::uint32_t>(before, w * 4) != load_le<std::uint32_t>(after, w * 4)) {
      mask = static_cast<std::uint16_t>(mask | (1u << w));
    }
  }
  return mask;
}

std::uint8_t FrontTier::probe_plan_size(const Block& data) const {
  const auto size = compressor_.probe_size(data);
  return static_cast<std::uint8_t>(size ? *size : kBlockBytes);
}

FrontTier::Outcome FrontTier::put(LineAddr line, const Block& data, std::uint32_t tag) {
  return put_impl(stats_.offered, line, data, tag);
}

FrontTier::Outcome FrontTier::put_at(std::uint64_t order, LineAddr line, const Block& data,
                                     std::uint32_t tag) {
  expects(order >= last_order_, "tier arrival order must be non-decreasing");
  return put_impl(order, line, data, tag);
}

FrontTier::Outcome FrontTier::put_impl(std::uint64_t order, LineAddr line, const Block& data,
                                       std::uint32_t tag) {
  ++stats_.offered;
  last_order_ = order;
  charge_latency(order);
  Outcome out;
  {
    const prof::ScopedStage stage(prof::Stage::kTierFilter);
    out = filter(line, data, tag);
  }
  drain_forwards();
  return out;
}

FrontTier::Outcome FrontTier::filter(LineAddr line, const Block& data, std::uint32_t tag) {
  const std::size_t set = set_of(line);
  const std::size_t row = set * config_.ways;
  if (const std::size_t way = find(set, line); way != config_.ways) {
    // Hit: the write-back coalesces in DRAM. Content-aware policies compare
    // payloads first so byte-identical rewrites don't even touch the stored
    // copy (and are reported as silent hits); a changed payload drops the
    // slot's derived values.
    ++stats_.hits;
    TagEntry& e = tags_[row + way];
    e.lru = ++tick_;
    e.tag = tag;
    PayloadSlot& old = payloads_[row + way];
    if (content_aware()) {
      if (std::memcmp(old.data.data(), data.data(), kBlockBytes) == 0) {
        ++stats_.silent_hits;
        return Outcome::kSilentHit;
      }
      e.touched = static_cast<std::uint16_t>(e.touched | touched_words(old.data, data));
      old.fp_valid = false;
      old.plan_size = kPlanUnknown;
    }
    old.data = data;
    return Outcome::kHit;
  }

  std::uint16_t touched = static_cast<std::uint16_t>((1u << (kBlockBytes / 4)) - 1);
  std::uint64_t fp = 0;
  bool fp_valid = false;
  if (content_aware()) {
    // Silent/partial-store elimination: a miss whose payload matches what PCM
    // already holds is dropped outright (fingerprint gate, then a verifying
    // word compare); a partial overlap shrinks the entry's touched-word mask
    // to the words that actually differ.
    const auto it = pcm_resident_.find(line);
    if (it != pcm_resident_.end()) {
      fp = fingerprint(data);
      fp_valid = true;
      if (it->second.fp == fp) {
        if (std::memcmp(it->second.data.data(), data.data(), kBlockBytes) == 0) {
          ++stats_.silent_drops;
          return Outcome::kSilentDrop;
        }
        ++stats_.fp_false_hits;
      }
      touched = touched_words(it->second.data, data);
    }
  }

  // Miss: take the first free way, evicting the policy victim when the set
  // is full.
  std::size_t way = 0;
  while (way < config_.ways && tags_[row + way].valid) ++way;
  if (way == config_.ways) {
    way = choose_victim(set);
    evict(set, way);
  }
  PayloadSlot& p = payloads_[row + way];
  p.data = data;
  p.fp = fp;
  p.fp_valid = fp_valid;
  p.plan_size = kPlanUnknown;
  TagEntry& e = tags_[row + way];
  e.line = line;
  e.valid = true;
  e.tag = tag;
  e.lru = ++tick_;
  e.touched = touched;
  ++resident_;
  ++stats_.inserts;
  return Outcome::kInserted;
}

void FrontTier::flush() {
  for (std::size_t set = 0; set < sets_; ++set) {
    for (std::size_t w = 0; w < config_.ways; ++w) {
      if (tags_[set * config_.ways + w].valid) evict(set, w, /*count_as_flush=*/true);
    }
  }
  drain_forwards();
}

std::optional<FrontTier::Forward> FrontTier::invalidate(LineAddr line) {
  const std::size_t set = set_of(line);
  const std::size_t way = find(set, line);
  if (way == config_.ways) return std::nullopt;
  TagEntry& e = tags_[set * config_.ways + way];
  Forward fwd;
  fwd.line = e.line;
  fwd.tag = e.tag;
  fwd.data = payloads_[set * config_.ways + way].data;
  e.valid = false;
  --resident_;
  ++stats_.invalidates;
  return fwd;
}

void FrontTier::finish_timing() {
  if (controller_ && !sealed_) {
    controller_->finish();
    sealed_ = true;
  }
}

bool FrontTier::contains(LineAddr line) const {
  return find(set_of(line), line) != config_.ways;
}

const Block* FrontTier::peek(LineAddr line) const {
  const std::size_t set = set_of(line);
  const std::size_t way = find(set, line);
  if (way == config_.ways) return nullptr;
  return &payloads_[set * config_.ways + way].data;
}

const Block* FrontTier::pcm_resident(LineAddr line) const {
  const auto it = pcm_resident_.find(line);
  return it == pcm_resident_.end() ? nullptr : &it->second.data;
}

}  // namespace pcmsim
