#include "core/system.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/profiler.hpp"
#include "compression/word_scan.hpp"
#include "core/address_map.hpp"

namespace pcmsim {

std::string_view to_string(SystemMode m) {
  switch (m) {
    case SystemMode::kBaseline: return "Baseline";
    case SystemMode::kComp: return "Comp";
    case SystemMode::kCompW: return "Comp+W";
    case SystemMode::kCompWF: return "Comp+WF";
  }
  return "?";
}

void SystemStats::merge(const SystemStats& other) {
  writes += other.writes;
  compressed_writes += other.compressed_writes;
  uncompressed_writes += other.uncompressed_writes;
  dropped_writes += other.dropped_writes;
  uncorrectable_events += other.uncorrectable_events;
  window_slides += other.window_slides;
  recycled_lines += other.recycled_lines;
  gap_moves += other.gap_moves;
  lines_dead += other.lines_dead;
  faults_at_death.merge(other.faults_at_death);
  flips_per_write.merge(other.flips_per_write);
  compressed_size.merge(other.compressed_size);
}

namespace {

/// The paper's 16-bit bank counter is calibrated against 1e7-cycle cells.
/// Scaled-endurance runs cannot shrink the period proportionally: every
/// rotation re-writes a line's whole window once (a fixed flip cost that does
/// not scale with endurance), so rotating too often inflates wear instead of
/// leveling it, while rotating too rarely leaves wear concentrated. The
/// measured optimum sits on a plateau of ~1-5x the per-cell endurance for
/// the paper's geometry (8 banks, psi=100); 2x is used as the default — see
/// bench/ablate_intraline for the full tradeoff curve.
std::uint64_t auto_rotation_threshold(const SystemConfig& cfg) {
  if (cfg.rotation_threshold != 0) return cfg.rotation_threshold;
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(2.0 * cfg.device.endurance_mean));
}

}  // namespace

PcmSystem::PcmSystem(const SystemConfig& config)
    : config_(config),
      array_(config.device),
      startgap_(config.device.lines - 1, config.gap_interval, config.startgap_randomize,
                config.seed),
      rotator_(config.banks, auto_rotation_threshold(config), config.rotation_step_bytes),
      scheme_(make_scheme(config.ecc_spec)),
      placer_(*scheme_),
      lines_(config.device.lines) {
  expects(config.device.lines >= 2, "need at least one logical line plus the gap");
  expects(config.dead_capacity_fraction > 0 && config.dead_capacity_fraction <= 1,
          "dead capacity fraction must be in (0,1]");
  const SchemeTraits traits = scheme_->traits();
  word_mode_ = traits.granularity == SchemeGranularity::kWord;
  expects(!traits.baseline_only || config.mode == SystemMode::kBaseline,
          "scheme protects whole lines only; use it with the Baseline mode");
  expects(!traits.requires_compression || config.compression_enabled(),
          "word-granularity scheme consumes compression slack; "
          "use it with a compression-enabled mode");
  if (config.functional_verify) ecc_meta_.assign(config.device.lines, 0);
}

SlidePolicy PcmSystem::slide_policy() const {
  switch (config_.mode) {
    case SystemMode::kBaseline: return SlidePolicy::kStay;
    case SystemMode::kComp: return SlidePolicy::kSlideUp;
    case SystemMode::kCompW:
    case SystemMode::kCompWF: return SlidePolicy::kAnywhere;
  }
  return SlidePolicy::kStay;
}

std::uint8_t PcmSystem::preferred_start(const LineMeta& info, std::uint32_t bank,
                                        std::uint8_t size_bytes) const {
  if (size_bytes == kBlockBytes) return 0;
  if (config_.rotation_enabled()) return static_cast<std::uint8_t>(rotator_.offset_bytes(bank));
  if (info.ever_written && info.compressed) return info.start_byte;
  return 0;  // naive Comp: window initially at the least significant bytes
}

PcmSystem::SegmentWrite PcmSystem::write_window_segments(std::uint64_t physical,
                                                         std::uint8_t start,
                                                         std::span<const std::uint8_t> image,
                                                         std::uint8_t size_bytes) {
  const prof::ScopedStage stage(prof::Stage::kProgram);
  const WindowSegments segs = window_segments(start, size_bytes);
  SegmentWrite out;
  std::size_t image_bit = 0;
  for (std::size_t s = 0; s < segs.count; ++s) {
    const auto res = array_.write_range(physical, segs.seg[s].bit_off,
                                        image.subspan(image_bit / 8), segs.seg[s].nbits);
    out.flips += res.programmed_bits;
    out.new_faults = out.new_faults || res.new_faults > 0;
    image_bit += segs.seg[s].nbits;
  }
  return out;
}

std::optional<std::size_t> PcmSystem::write_window(std::uint64_t physical, std::uint8_t start,
                                                   std::span<const std::uint8_t> image,
                                                   std::uint8_t size_bytes) {
  if (!config_.functional_verify) {
    const auto res = write_window_segments(physical, start, image, size_bytes);
    // A fault born during this write may push the window past the scheme's
    // strength; the verify read detects it and the caller re-places.
    if (res.new_faults) {
      const prof::ScopedStage stage(prof::Stage::kPlace);
      if (!placer_.fits(array_, physical, start, size_bytes)) return std::nullopt;
    }
    return res.flips;
  }

  // Functional mode: store through the scheme's real encoder, re-encoding if
  // the write itself wears out further cells (write-verify-rewrite loop).
  const std::size_t window_bits = static_cast<std::size_t>(size_bytes) * 8;
  std::size_t flips = 0;
  WindowFaultBuffer fault_buf;
  for (int attempt = 0; attempt < 8; ++attempt) {
    const auto faults = window_faults_into(array_, physical, start, size_bytes, fault_buf);
    std::optional<HardErrorScheme::EncodeResult> enc;
    {
      const prof::ScopedStage stage(prof::Stage::kEcc);
      enc = scheme_->encode(image, window_bits, faults);
    }
    if (!enc) return std::nullopt;
    const auto res = write_window_segments(
        physical, start, std::span<const std::uint8_t>(enc->image), size_bytes);
    flips += res.flips;
    if (!res.new_faults) {
      ecc_meta_[physical] = enc->meta;
      return flips;
    }
  }
  return std::nullopt;
}

std::optional<PcmSystem::PlacedWrite> PcmSystem::try_store(std::uint64_t physical,
                                                           std::uint32_t bank,
                                                           std::span<const std::uint8_t> image,
                                                           std::uint8_t size_bytes) {
  return try_store_with(physical, bank, [&image] { return image; }, size_bytes);
}

std::optional<PcmSystem::PlacedWrite> PcmSystem::try_store_words(
    std::uint64_t physical, const Block& data, std::span<const std::uint8_t> word_content) {
  // The whole line is the (non-sliding) protected unit; the scheme's encode
  // runs in both modes because the programmed image *is* the in-place encoded
  // one — flip and energy accounting must see it, not the raw data.
  std::size_t flips = 0;
  WindowFaultBuffer fault_buf;
  for (int attempt = 0; attempt < 8; ++attempt) {
    {
      const prof::ScopedStage stage(prof::Stage::kPlace);
      if (!placer_.fits(array_, physical, 0, kBlockBytes, word_content)) return std::nullopt;
    }
    const auto faults = window_faults_into(array_, physical, 0, kBlockBytes, fault_buf);
    std::optional<HardErrorScheme::EncodeResult> enc;
    {
      const prof::ScopedStage stage(prof::Stage::kEcc);
      enc = scheme_->encode(data, kBlockBits, faults);
    }
    if (!enc) return std::nullopt;
    const auto res = write_window_segments(
        physical, 0, std::span<const std::uint8_t>(enc->image), kBlockBytes);
    flips += res.flips;
    if (!res.new_faults) {
      if (config_.functional_verify) ecc_meta_[physical] = enc->meta;
      return PlacedWrite{0, flips};
    }
    // A cell died while programming: re-check the slack fit and re-encode
    // (the coset/flip choice may have to change for the newborn fault).
  }
  return std::nullopt;
}

void PcmSystem::mark_dead(std::uint64_t physical) {
  auto& info = lines_[physical];
  if (!info.dead) {
    info.dead = true;
    ++stats_.uncorrectable_events;
  }
  // Re-evaluate capacity counting on every failed attempt: a line that was
  // still hostable at its first death wears further while it bounces between
  // recycle attempts, and must eventually count toward the 50% criterion.
  if (info.counted_dead) return;

  // Capacity accounting: every currently-dead line counts toward the 50%
  // worn-capacity criterion (Section IV fault model). Under Comp+WF the line
  // stays in service and leaves the count again when a later, smaller write
  // revives it (Section V-A.3's "return from the dead").
  info.counted_dead = true;
  ++stats_.lines_dead;
  stats_.faults_at_death.add(static_cast<double>(array_.count_stuck(physical, 0, kBlockBits)));
}

PcmSystem::WriteOutcome PcmSystem::write(LineAddr logical, const Block& data) {
  ++stats_.writes;
  const std::uint64_t physical = startgap_.map(logical);
  const std::uint32_t bank = bank_of(physical, config_.banks);
  auto& info = lines_[physical];

  WriteOutcome out;

  // Dead lines: the advanced scheme re-attempts once per inter-line WL epoch
  // (Section III-A.3); other modes drop the write (the OS would remap).
  const auto epoch = static_cast<std::uint32_t>(startgap_.total_moves());
  if (info.dead) {
    if (!config_.recycling_enabled() || info.recycle_epoch == epoch) {
      ++stats_.dropped_writes;
      return out;
    }
    info.recycle_epoch = epoch;
  }

  // --- Word-granularity schemes: in-place encoded store --------------------
  // The compression scan contributes per-word slack (don't-care bits) rather
  // than a packed window; the line never slides and is stored full-size.
  if (word_mode_) {
    std::array<std::uint8_t, kBlockBits / 32> content;
    {
      const prof::ScopedStage stage(prof::Stage::kCompress);
      const WordClassScan scan = scan_block(data);
      scheme_->word_content_bits(scan, content);
    }
    const auto placed = try_store_words(physical, data, content);
    if (!placed) {
      const bool was_dead = info.dead;
      mark_dead(physical);
      out.line_died = !was_dead;
      return out;
    }
    if (info.dead) {
      info.dead = false;
      if (info.counted_dead) {
        info.counted_dead = false;
        --stats_.lines_dead;
      }
      ++stats_.recycled_lines;
    }
    info.ever_written = true;
    info.start_byte = 0;
    // Not `compressed` in the packed-window sense: the scheme's decode alone
    // reconstructs the data, no separate decompressor pass.
    info.compressed = false;
    info.size_bytes = kBlockBytes;
    info.encoding = pack_encoding(CompressionScheme::kNone, 0);

    out.stored = true;
    out.start_byte = 0;
    out.size_bytes = kBlockBytes;
    out.flips = placed->flips;

    // Stats: report the encoded content footprint as the compressed size so
    // the scheme-by-workload matrix shows the slack the coding extracted.
    std::size_t content_bits = 0;
    for (const auto c : content) content_bits += c;
    if (content_bits < kBlockBits) {
      ++stats_.compressed_writes;
      stats_.compressed_size.add(static_cast<double>((content_bits + 7) / 8));
    } else {
      ++stats_.uncompressed_writes;
    }
    stats_.flips_per_write.add(static_cast<double>(placed->flips));

    if (const auto move = startgap_.on_write()) handle_gap_move(*move);
    if (config_.rotation_enabled()) rotator_.on_write(bank);
    return out;
  }

  // --- Compression decision (Fig 8), phase 1 only -------------------------
  // plan() answers the winning scheme and size from one fused scan; the
  // heuristic and placement below run on that size alone. The image bytes are
  // materialized lazily (phase 2) the first time a compressed store reaches
  // the programming step, so writes that end up uncompressed never pack bits.
  std::optional<CompressionPlan> plan;
  std::optional<CompressedBlock> comp;
  bool want_compressed = false;
  std::uint8_t comp_size = kBlockBytes;
  if (config_.compression_enabled()) {
    {
      const prof::ScopedStage stage(prof::Stage::kCompress);
      plan = compressor_.plan(data);
    }
    if (plan) {
      comp_size = static_cast<std::uint8_t>(plan->size_bytes());
      if (config_.heuristic_enabled()) {
        const prof::ScopedStage stage(prof::Stage::kHeuristic);
        const std::uint8_t old_size = info.ever_written ? info.size_bytes : kBlockBytes;
        const auto decision = decide_write(config_.heuristic, comp_size, old_size, info.sc);
        info.sc = decision.new_sc;
        want_compressed = decision.store_compressed;
      } else {
        want_compressed = true;
      }
    }
  }

  // --- Store, falling back to the other representation if needed ----------
  std::optional<PlacedWrite> placed;
  bool stored_compressed = false;
  const auto compressed_image = [&]() -> std::span<const std::uint8_t> {
    if (!comp) {
      const prof::ScopedStage stage(prof::Stage::kCompress);
      comp = compressor_.materialize(data, *plan);
    }
    return comp->bytes;
  };
  for (int pass = 0; pass < 2 && !placed; ++pass) {
    const bool use_comp = pass == 0 ? want_compressed : !want_compressed;
    if (use_comp) {
      if (!plan) continue;
      placed = try_store_with(physical, bank, compressed_image, comp_size);
      if (placed) stored_compressed = true;
    } else {
      placed = try_store(physical, bank, data, kBlockBytes);
    }
    if (pass == 0 && !placed && !config_.compression_enabled()) break;
  }

  if (!placed) {
    const bool was_dead = info.dead;
    mark_dead(physical);
    out.line_died = !was_dead;
    return out;
  }

  // --- Success: update metadata and stats ---------------------------------
  if (info.dead) {
    info.dead = false;
    if (info.counted_dead) {
      info.counted_dead = false;
      --stats_.lines_dead;
    }
    ++stats_.recycled_lines;
  }
  info.ever_written = true;
  info.start_byte = placed->start;
  info.compressed = stored_compressed;
  info.size_bytes = stored_compressed ? comp_size : static_cast<std::uint8_t>(kBlockBytes);
  info.encoding = stored_compressed ? pack_encoding(plan->scheme, plan->encoding)
                                    : pack_encoding(CompressionScheme::kNone, 0);

  out.stored = true;
  out.compressed = stored_compressed;
  out.start_byte = placed->start;
  out.size_bytes = info.size_bytes;
  out.flips = placed->flips;

  if (stored_compressed) {
    ++stats_.compressed_writes;
    stats_.compressed_size.add(static_cast<double>(comp_size));
  } else {
    ++stats_.uncompressed_writes;
  }
  stats_.flips_per_write.add(static_cast<double>(placed->flips));

  // --- Wear-leveling bookkeeping ------------------------------------------
  if (const auto move = startgap_.on_write()) handle_gap_move(*move);
  if (config_.rotation_enabled()) rotator_.on_write(bank);
  return out;
}

void PcmSystem::handle_gap_move(const StartGap::GapMove& move) {
  const prof::ScopedStage stage(prof::Stage::kGapMove);
  ++stats_.gap_moves;
  LineMeta content = lines_[move.from];

  // The `from` slot becomes the new gap: physical wear state stays, content
  // metadata is cleared.
  {
    auto& f = lines_[move.from];
    const bool dead = f.dead;
    const bool counted = f.counted_dead;
    const auto epoch = f.recycle_epoch;
    f = LineMeta{};
    f.dead = dead;
    f.counted_dead = counted;
    f.recycle_epoch = epoch;
  }

  if (!content.ever_written) return;

  // Read the stored image out of `from` and restore it into `to`. In
  // functional mode decode first so the destination re-encodes cleanly.
  InlineBytes image;
  image.resize(content.size_bytes);
  read_window_image(array_, move.from, content.start_byte, content.size_bytes, image);
  if (config_.functional_verify) {
    WindowFaultBuffer fault_buf;
    const auto faults =
        window_faults_into(array_, move.from, content.start_byte, content.size_bytes, fault_buf);
    const prof::ScopedStage ecc_stage(prof::Stage::kEcc);
    image = scheme_->decode(image, static_cast<std::size_t>(content.size_bytes) * 8,
                            ecc_meta_[move.from], faults);
  }

  const std::uint32_t bank = bank_of(move.to, config_.banks);
  auto& t = lines_[move.to];
  const bool was_dead = t.dead;
  if (was_dead && !config_.recycling_enabled()) {
    // Comp / Comp+W mark blocks permanently dead (Section V-A.3): migrating
    // data cannot revive the slot, so this logical line's content is lost.
    t.ever_written = false;
    return;
  }
  const auto placed = try_store(move.to, bank, image, content.size_bytes);
  if (!placed) {
    // Migration failed: the destination cannot hold this data.
    mark_dead(move.to);
    t.ever_written = false;
    return;
  }
  if (was_dead) {
    t.dead = false;
    if (t.counted_dead) {
      t.counted_dead = false;
      --stats_.lines_dead;
    }
    ++stats_.recycled_lines;
  }
  t.ever_written = true;
  t.start_byte = placed->start;
  t.size_bytes = content.size_bytes;
  t.compressed = content.compressed;
  t.encoding = content.encoding;
  t.sc = content.sc;
}

Block PcmSystem::read(LineAddr logical) const {
  expects(config_.functional_verify, "read() requires functional-verify mode");
  const std::uint64_t physical = startgap_.map(logical);
  const auto& info = lines_[physical];
  if (!info.ever_written) return zero_block();
  expects(!info.dead, "reading a dead line");

  InlineBytes raw;
  raw.resize(info.size_bytes);
  read_window_image(array_, physical, info.start_byte, info.size_bytes, raw);
  WindowFaultBuffer fault_buf;
  const auto faults =
      window_faults_into(array_, physical, info.start_byte, info.size_bytes, fault_buf);
  const auto decoded = scheme_->decode(raw, static_cast<std::size_t>(info.size_bytes) * 8,
                                       ecc_meta_[physical], faults);

  if (!info.compressed) {
    Block out{};
    std::copy_n(decoded.begin(), kBlockBytes, out.begin());
    return out;
  }
  CompressedBlock cb;
  cb.bytes = decoded;
  cb.scheme = unpack_scheme(info.encoding);
  cb.encoding = unpack_layout(info.encoding);
  return compressor_.decompress(cb);
}

double PcmSystem::dead_fraction() const {
  return static_cast<double>(stats_.lines_dead) / static_cast<double>(lines_.size());
}

bool PcmSystem::failed() const {
  return dead_fraction() >= config_.dead_capacity_fraction;
}

}  // namespace pcmsim
