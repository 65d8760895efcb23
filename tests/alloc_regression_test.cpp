// Guards the allocation-free steady-state write path: after warm-up, a
// system.write() (compress -> heuristic -> place -> FnW/DW store, including
// gap moves and fault handling) must never touch the heap, and neither may a
// full comp-policy front tier choosing and forwarding its victims. A counting
// operator new would catch any vector sneaking back into the hot loop.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/system.hpp"
#include "tier/front_tier.hpp"

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<bool> g_counting{false};

void* counted_alloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace pcmsim {
namespace {

/// Mixed traffic: compressible deltas, sparse blocks, and incompressible
/// noise, so every branch of the write path (BDI, FPC, uncompressed store,
/// heuristic flips) runs during the counted phase.
Block make_block(Rng& rng, int flavor) {
  Block b{};
  switch (flavor % 3) {
    case 0:  // base + narrow deltas (BDI territory)
      for (std::size_t i = 0; i < 8; ++i) {
        const std::uint64_t v = 0x1122'3344'0000'0000ull + (rng() & 0xFFFF);
        std::memcpy(b.data() + i * 8, &v, 8);
      }
      break;
    case 1:  // mostly zero words (FPC territory)
      for (std::size_t i = 0; i < 8; i += 2) {
        const std::uint32_t v = static_cast<std::uint32_t>(rng() & 0xFF);
        std::memcpy(b.data() + i * 8, &v, 4);
      }
      break;
    default:  // incompressible
      for (auto& byte : b) byte = static_cast<std::uint8_t>(rng());
      break;
  }
  return b;
}

TEST(AllocRegression, SteadyStateWriteIsAllocationFree) {
  SystemConfig cfg;  // Comp+WF over ECP-6, the paper's headline system
  cfg.device.lines = 1024 + 1;
  cfg.device.endurance_mean = 100;  // wear in real faults during warm-up
  cfg.device.seed = 7;
  cfg.seed = 7;
  PcmSystem system(cfg);
  const auto logical = system.logical_lines();

  // Pre-generate the counted workload: generation itself may allocate.
  Rng rng(42);
  std::vector<std::pair<LineAddr, Block>> events;
  events.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    events.emplace_back(LineAddr{rng.next_below(logical)}, make_block(rng, i));
  }

  // Warm-up: touch every line and push enough traffic through to trigger
  // gap moves, rotation, faults, slides, and the occasional line death.
  for (std::uint64_t l = 0; l < logical; ++l) {
    (void)system.write(LineAddr{l}, make_block(rng, static_cast<int>(l)));
  }
  for (int i = 0; i < 150000; ++i) {
    (void)system.write(LineAddr{rng.next_below(logical)}, make_block(rng, i));
  }
  ASSERT_GT(system.array().total_faults(), 0u) << "warm-up should wear in stuck cells";

  g_alloc_count.store(0);
  g_counting.store(true);
  for (const auto& [addr, data] : events) (void)system.write(addr, data);
  g_counting.store(false);

  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "steady-state write path allocated on the heap";
  EXPECT_GT(system.stats().compressed_writes, 0u);
  EXPECT_GT(system.stats().uncompressed_writes, 0u);
  EXPECT_GT(system.stats().gap_moves, 0u);
}

TEST(AllocRegression, SteadyStateCompTierEvictionIsAllocationFree) {
  // With the embedded DRAM controller on: its bank queues are fixed rings,
  // so charging latency on every put allocates nothing either.
  FrontTierConfig cfg = FrontTierConfig::for_kb(16, TierPolicy::kComp);
  cfg.model_latency = true;
  std::uint64_t forwarded = 0;
  FrontTier tier(cfg, [&forwarded](const FrontTier::Forward&) { ++forwarded; });
  const std::uint64_t universe = 8 * cfg.capacity_lines;

  Rng rng(11);
  std::vector<std::pair<LineAddr, Block>> events;
  events.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    events.emplace_back(LineAddr{rng.next_below(universe)}, make_block(rng, i));
  }

  // Warm-up: every line passes through the tier and out again, so the
  // PCM-resident map and the forward queue have reached their final size.
  for (int round = 0; round < 2; ++round) {
    for (std::uint64_t l = 0; l < universe; ++l) {
      (void)tier.put(LineAddr{l}, make_block(rng, static_cast<int>(l)));
    }
  }
  for (int i = 0; i < 50000; ++i) {
    (void)tier.put(LineAddr{rng.next_below(universe)}, make_block(rng, i));
  }
  const std::uint64_t evictions_before = tier.stats().evictions;

  g_alloc_count.store(0);
  g_counting.store(true);
  for (const auto& [addr, data] : events) (void)tier.put(addr, data);
  g_counting.store(false);

  EXPECT_EQ(g_alloc_count.load(), 0u) << "steady-state comp tier allocated on the heap";
  EXPECT_GT(tier.stats().evictions - evictions_before, 15000u);
  EXPECT_EQ(forwarded, tier.stats().evictions);
}

}  // namespace
}  // namespace pcmsim
