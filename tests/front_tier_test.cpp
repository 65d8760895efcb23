// Front-tier suite: policy-ordered victim choice, silent-store elimination
// correctness against a filterless reference, the lazily derived comp state
// against an eager reference, way bookkeeping across
// eviction/invalidation/flush, the tier's accounting identities under every
// policy, thread-count determinism of the tiered sharded engine, and the
// cache -> tier -> PCM plumb through the writeback_sink adapters.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/hierarchy.hpp"
#include "common/assert.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "compression/best_of.hpp"
#include "core/system.hpp"
#include "sim/lifetime.hpp"
#include "sim/sharded_engine.hpp"
#include "tier/front_tier.hpp"
#include "tier/writeback_sink.hpp"
#include "workload/app_profile.hpp"

namespace pcmsim {
namespace {

/// Restores automatic worker-count selection when a test returns.
struct ThreadGuard {
  ~ThreadGuard() { set_parallel_threads(0); }
};

/// A single-set tier config: capacity == ways, so every line lands in set 0
/// and eviction order is fully observable.
FrontTierConfig one_set(std::size_t ways, TierPolicy policy) {
  FrontTierConfig cfg;
  cfg.capacity_lines = ways;
  cfg.ways = ways;
  cfg.policy = policy;
  cfg.model_latency = false;  // structure-only tests
  return cfg;
}

Block filled(std::uint8_t b) {
  Block d;
  d.fill(b);
  return d;
}

/// An incompressible payload: every u32 word is a distinct mix64 draw, so
/// neither BDI nor FPC finds a pattern and the probe reports 64 bytes.
Block random_block(std::uint64_t seed) {
  Block d;
  for (std::size_t i = 0; i < kBlockBytes; i += 8) {
    store_le(d, i, mix64(seed, i));
  }
  return d;
}

TEST(FrontTier, LruEvictsOldestWhenSetFills) {
  std::vector<FrontTier::Forward> out;
  FrontTier tier(one_set(3, TierPolicy::kLru),
                 [&](const FrontTier::Forward& f) { out.push_back(f); });
  EXPECT_EQ(tier.put(1, filled(1)), FrontTier::Outcome::kInserted);
  EXPECT_EQ(tier.put(2, filled(2)), FrontTier::Outcome::kInserted);
  EXPECT_EQ(tier.put(3, filled(3)), FrontTier::Outcome::kInserted);
  EXPECT_TRUE(out.empty());

  // Refresh line 1 so line 2 becomes the LRU victim.
  EXPECT_EQ(tier.put(1, filled(11)), FrontTier::Outcome::kHit);
  EXPECT_EQ(tier.put(4, filled(4)), FrontTier::Outcome::kInserted);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].line, 2u);
  EXPECT_EQ(out[0].data, filled(2));
  EXPECT_TRUE(tier.contains(1));
  ASSERT_NE(tier.peek(1), nullptr);
  EXPECT_EQ(*tier.peek(1), filled(11));  // hit coalesced the newer payload
}

TEST(FrontTier, CompPolicyEvictsCompressibleBeforeOlderIncompressible) {
  std::vector<FrontTier::Forward> out;
  FrontTier tier(one_set(4, TierPolicy::kComp),
                 [&](const FrontTier::Forward& f) { out.push_back(f); });
  const Block incompressible = random_block(99);
  tier.put(1, incompressible);   // oldest, but expensive to rewrite in PCM
  tier.put(2, filled(0));        // second-oldest, compresses to almost nothing
  tier.put(3, random_block(3));
  tier.put(4, random_block(4));

  // The LRU-half candidates are lines {1, 2}; comp retention keeps the
  // incompressible line 1 and sacrifices the compressible line 2, where plain
  // LRU would have evicted line 1.
  tier.put(5, random_block(5));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].line, 2u);
  EXPECT_TRUE(tier.contains(1));

  std::vector<FrontTier::Forward> lru_out;
  FrontTier lru(one_set(4, TierPolicy::kLru),
                [&](const FrontTier::Forward& f) { lru_out.push_back(f); });
  lru.put(1, incompressible);
  lru.put(2, filled(0));
  lru.put(3, random_block(3));
  lru.put(4, random_block(4));
  lru.put(5, random_block(5));
  ASSERT_EQ(lru_out.size(), 1u);
  EXPECT_EQ(lru_out[0].line, 1u);  // the control evicts by age alone
}

TEST(FrontTier, SilentStoreEliminationMatchesFilterlessReference) {
  // Differential check: a deterministic stream with heavy payload reuse runs
  // through a kSilent tier whose sink models PCM content exactly. Every
  // silent drop must happen only when PCM already holds the dropped payload,
  // and at the end every line's logical content (tier-resident copy, else
  // PCM copy) must equal the filterless reference (last offered value).
  std::unordered_map<LineAddr, Block> pcm;
  FrontTierConfig cfg;
  cfg.capacity_lines = 32;
  cfg.ways = 4;
  cfg.policy = TierPolicy::kSilent;
  cfg.model_latency = false;
  FrontTier tier(cfg, [&](const FrontTier::Forward& f) { pcm[f.line] = f.data; });

  std::unordered_map<LineAddr, Block> reference;
  for (std::uint64_t i = 0; i < 4000; ++i) {
    const LineAddr line = mix64(7, i) % 48;        // more lines than capacity
    const std::uint64_t value = mix64(11, i) % 3;  // tiny pool: rewrites repeat
    const Block data = filled(static_cast<std::uint8_t>(line * 4 + value));
    const auto outcome = tier.put(line, data);
    if (outcome == FrontTier::Outcome::kSilentDrop) {
      const auto it = pcm.find(line);
      ASSERT_NE(it, pcm.end()) << "silent drop with no PCM-resident copy";
      EXPECT_EQ(it->second, data) << "silent drop of a payload PCM does not hold";
    }
    reference[line] = data;
  }
  EXPECT_GT(tier.stats().silent_drops, 0u);
  EXPECT_GT(tier.stats().evictions, 0u);

  for (const auto& [line, want] : reference) {
    const Block* resident = tier.peek(line);
    if (resident != nullptr) {
      EXPECT_EQ(*resident, want) << "line " << line;
    } else {
      const auto it = pcm.find(line);
      ASSERT_NE(it, pcm.end()) << "line " << line << " lost";
      EXPECT_EQ(it->second, want) << "line " << line;
    }
  }

  // The tier's shadow of PCM content must agree with the sink-side model for
  // every line PCM has seen (this is what makes dropping safe at all).
  for (const auto& [line, data] : pcm) {
    const Block* shadow = tier.pcm_resident(line);
    ASSERT_NE(shadow, nullptr) << "line " << line;
    EXPECT_EQ(*shadow, data) << "line " << line;
  }
}

TEST(FrontTier, InvalidateReturnsContentAndFreesTheWay) {
  std::vector<FrontTier::Forward> out;
  FrontTier tier(one_set(4, TierPolicy::kSilent),
                 [&](const FrontTier::Forward& f) { out.push_back(f); });

  // Four lines, one payload: every line owns its own way and its own copy.
  const Block shared = filled(0xAB);
  for (LineAddr line = 1; line <= 4; ++line) {
    EXPECT_EQ(tier.put(line, shared), FrontTier::Outcome::kInserted);
  }
  EXPECT_EQ(tier.resident_lines(), 4u);
  EXPECT_TRUE(out.empty());

  // Invalidation hands back the content without forwarding it, and leaves the
  // other lines' payloads untouched.
  const auto inv = tier.invalidate(3);
  ASSERT_TRUE(inv.has_value());
  EXPECT_EQ(inv->line, 3u);
  EXPECT_EQ(inv->data, shared);
  EXPECT_FALSE(tier.invalidate(3).has_value());
  EXPECT_FALSE(tier.contains(3));
  EXPECT_EQ(tier.resident_lines(), 3u);
  EXPECT_TRUE(out.empty());
  ASSERT_NE(tier.peek(1), nullptr);
  EXPECT_EQ(*tier.peek(1), shared);

  // Rewriting one line with distinct content changes only that line.
  const Block distinct = random_block(17);
  EXPECT_EQ(tier.put(1, distinct), FrontTier::Outcome::kHit);
  ASSERT_NE(tier.peek(1), nullptr);
  EXPECT_EQ(*tier.peek(1), distinct);
  ASSERT_NE(tier.peek(2), nullptr);
  EXPECT_EQ(*tier.peek(2), shared);

  // The freed way is reused before anything is evicted; the next insert
  // after that evicts the LRU line (2) with its own bytes.
  EXPECT_EQ(tier.put(10, random_block(10)), FrontTier::Outcome::kInserted);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(tier.resident_lines(), 4u);
  EXPECT_EQ(tier.put(11, random_block(11)), FrontTier::Outcome::kInserted);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].line, 2u);
  EXPECT_EQ(out[0].data, shared);
  EXPECT_EQ(tier.resident_lines(), 4u);

  // Flush forwards everything that is left exactly once and empties the tier.
  const std::size_t resident = tier.resident_lines();
  const std::size_t forwarded_before = out.size();
  tier.flush();
  EXPECT_EQ(out.size(), forwarded_before + resident);
  EXPECT_EQ(tier.resident_lines(), 0u);
  EXPECT_EQ(tier.stats().flushes, resident);
  EXPECT_EQ(tier.stats().invalidates, 1u);
}

TEST(FrontTier, SilentRewritesAreAbsorbedWithoutForwarding) {
  std::vector<FrontTier::Forward> out;
  FrontTier tier(one_set(2, TierPolicy::kSilent),
                 [&](const FrontTier::Forward& f) { out.push_back(f); });
  tier.put(1, filled(7));
  EXPECT_EQ(tier.put(1, filled(7)), FrontTier::Outcome::kSilentHit);
  // Evict line 1 to PCM, then re-offer the identical payload: dropped against
  // the PCM-resident copy without reallocation.
  tier.put(2, filled(2));
  tier.put(3, filled(3));  // evicts line 1
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].line, 1u);
  EXPECT_EQ(tier.put(1, filled(7)), FrontTier::Outcome::kSilentDrop);
  EXPECT_FALSE(tier.contains(1));
  EXPECT_EQ(tier.stats().silent_hits, 1u);
  EXPECT_EQ(tier.stats().silent_drops, 1u);
  EXPECT_EQ(tier.stats().absorbed(), tier.stats().hits + 1);
}

TEST(FrontTier, AccountingIdentitiesHold) {
  // offered = hits + silent_drops + inserts, and every allocated entry is
  // still resident or left through exactly one of eviction/flush/invalidate.
  for (const TierPolicy policy : {TierPolicy::kLru, TierPolicy::kSilent, TierPolicy::kComp}) {
    SCOPED_TRACE(to_string(policy));
    FrontTierConfig cfg;
    cfg.capacity_lines = 16;
    cfg.ways = 4;
    cfg.policy = policy;
    cfg.model_latency = false;
    std::uint64_t forwards = 0;
    FrontTier tier(cfg, [&](const FrontTier::Forward&) { ++forwards; });
    for (std::uint64_t i = 0; i < 3000; ++i) {
      (void)tier.put(mix64(3, i) % 64, filled(static_cast<std::uint8_t>(mix64(5, i) % 5)));
      if (i % 97 == 0) (void)tier.invalidate(mix64(3, i / 2) % 64);
    }
    const FrontTierStats& st = tier.stats();
    EXPECT_EQ(st.offered, st.hits + st.silent_drops + st.inserts);
    EXPECT_EQ(st.inserts,
              st.evictions + st.flushes + st.invalidates + tier.resident_lines());
    EXPECT_EQ(forwards, st.evictions + st.flushes);
    EXPECT_LE(st.silent_hits, st.hits);
    EXPECT_LE(st.words_touched, st.words_forwarded);
    EXPECT_GT(st.words_forwarded, 0u);
    EXPECT_GT(st.evictions, 0u);
    EXPECT_GT(st.invalidates, 0u);
    if (policy == TierPolicy::kLru) {
      // The content-blind control never drops or shrinks anything.
      EXPECT_EQ(st.silent_drops, 0u);
      EXPECT_EQ(st.words_touched, st.words_forwarded);
    }
  }
}

TEST(FrontTier, TieredLifetimeIsDeterministicAndAmplifies) {
  // run_lifetime with a tier: offered >= serviced, the absorbed count closes
  // the gap with the still-resident lines, and the same config reproduces the
  // same result exactly.
  LifetimeConfig lc;
  lc.system.device.lines = 128;
  lc.system.device.endurance_mean = 80;
  lc.max_writes = 2'000'000;
  lc.tier = FrontTierConfig::for_kb(4, TierPolicy::kComp);
  const AppProfile& app = profile_by_name("gcc");
  const LifetimeResult a = run_lifetime(app, lc, 42);
  const LifetimeResult b = run_lifetime(app, lc, 42);
  EXPECT_EQ(a.offered_writes, b.offered_writes);
  EXPECT_EQ(a.writes_to_failure, b.writes_to_failure);
  EXPECT_EQ(a.tier.hits, b.tier.hits);
  EXPECT_TRUE(a.reached_failure);
  EXPECT_GT(a.offered_writes, a.writes_to_failure);  // the tier absorbed traffic
  EXPECT_GT(a.tier.absorbed(), 0u);
  EXPECT_GT(a.tier_write_latency_cycles, 0.0);

  // And the disabled-tier run reports offered == serviced (uniform ratios).
  LifetimeConfig off = lc;
  off.tier = FrontTierConfig{};
  const LifetimeResult c = run_lifetime(app, off, 42);
  EXPECT_EQ(c.offered_writes, c.writes_to_failure);
  EXPECT_EQ(c.tier.offered, 0u);
}

TEST(FrontTier, ShardedEngineWithTierDeterministicAcrossThreads) {
  const ThreadGuard guard;
  ShardedEngineConfig cfg;
  cfg.shard_system.device.lines = 65;
  cfg.shard_system.device.endurance_mean = 60;
  cfg.shard_system.device.endurance_cov = 0.2;
  cfg.map.channels = 2;
  cfg.map.banks_per_channel = 4;
  cfg.tenants = 8;
  cfg.seed = 7;
  cfg.queue_capacity = 256;  // several epochs, so dispatch/execute overlap runs
  cfg.tenant_batch = 64;
  cfg.tier = FrontTierConfig::for_kb(8, TierPolicy::kSilent);

  std::uint64_t reference = 0;
  std::uint64_t reference_absorbed = 0;
  for (const std::size_t threads : {1u, 2u, 7u}) {
    set_parallel_threads(threads);
    ShardedPcmEngine engine(cfg);
    engine.add_sampled_tenants({profile_by_name("gcc"), profile_by_name("milc")});
    const ShardedRunResult r = engine.run(6000);
    EXPECT_EQ(r.tier.offered, 6000u);
    EXPECT_GT(r.tier.absorbed(), 0u);
    std::uint64_t absorbed = 0;
    for (const ShardedTenantResult& t : r.tenants) absorbed += t.absorbed_writes;
    EXPECT_EQ(absorbed, r.tier.absorbed());
    if (threads == 1) {
      reference = r.checksum;
      reference_absorbed = absorbed;
    } else {
      EXPECT_EQ(r.checksum, reference) << "threads=" << threads;
      EXPECT_EQ(absorbed, reference_absorbed) << "threads=" << threads;
    }
  }
}

TEST(FrontTier, HierarchyWritebacksFlowThroughTierIntoPcm) {
  // The full loop: CmpSimulator's dirty L2 victims -> tier_writeback_sink ->
  // FrontTier -> pcm_forward_sink -> PcmSystem. Every PCM write must be a
  // tier forward, and the tier's absorption shows up as PCM writes saved.
  SystemConfig sys;
  sys.device.lines = 1025;
  PcmSystem pcm(sys);
  FrontTier tier(FrontTierConfig::for_kb(8, TierPolicy::kComp), pcm_forward_sink(pcm));
  CmpSimulator sim(profile_by_name("gcc"), HierarchyConfig{}, 3,
                   tier_writeback_sink(tier));
  sim.run(150000);
  const FrontTierStats& st = tier.stats();
  EXPECT_GT(st.offered, 0u);
  EXPECT_GT(st.evictions, 0u);
  EXPECT_EQ(pcm.stats().writes, st.evictions + st.flushes);
  EXPECT_EQ(st.offered, st.hits + st.silent_drops + st.inserts);
  EXPECT_LT(pcm.stats().writes, st.offered);
}

/// Eager model of the comp policy: every put recomputes the payload's
/// fingerprint and compressed-size probe and stores both with the line, and
/// the victim is picked from a sorted copy of the set — the definitional
/// form of the rule FrontTier evaluates lazily. Set indexing mirrors the
/// tier's (mix64 of the line), so the two see the same conflicts.
class EagerCompTier {
 public:
  struct Entry {
    bool valid = false;
    LineAddr line = 0;
    std::uint32_t tag = 0;
    std::uint64_t lru = 0;
    std::uint16_t touched = 0;
    Block data{};
    std::uint64_t fp = 0;
    std::size_t plan_size = 0;
  };
  struct Resident {
    std::uint64_t fp = 0;
    Block data{};
  };

  EagerCompTier(std::size_t sets, std::size_t ways, std::vector<FrontTier::Forward>& out)
      : sets_(sets), ways_(ways), entries_(sets * ways), out_(out) {}

  FrontTier::Outcome put(LineAddr line, const Block& data, std::uint32_t tag) {
    ++stats.offered;
    const std::uint64_t fp = FrontTier::fingerprint(data);
    const std::size_t plan = plan_size(data);
    Entry* set = &entries_[static_cast<std::size_t>(mix64(line) % sets_) * ways_];
    for (std::size_t w = 0; w < ways_; ++w) {
      Entry& e = set[w];
      if (!e.valid || e.line != line) continue;
      ++stats.hits;
      e.lru = ++tick_;
      e.tag = tag;
      if (e.fp == fp && e.data == data) {
        ++stats.silent_hits;
        return FrontTier::Outcome::kSilentHit;
      }
      e.touched = static_cast<std::uint16_t>(e.touched | touched_words(e.data, data));
      e.data = data;
      e.fp = fp;
      e.plan_size = plan;
      return FrontTier::Outcome::kHit;
    }
    std::uint16_t touched = 0xffff;
    if (const auto it = resident_.find(line); it != resident_.end()) {
      if (it->second.fp == fp) {
        if (it->second.data == data) {
          ++stats.silent_drops;
          return FrontTier::Outcome::kSilentDrop;
        }
        ++stats.fp_false_hits;
      }
      touched = touched_words(it->second.data, data);
    }
    std::size_t way = 0;
    while (way < ways_ && set[way].valid) ++way;
    if (way == ways_) {
      way = victim(set);
      evict(set[way], /*flush=*/false);
    }
    set[way] = Entry{true, line, tag, ++tick_, touched, data, fp, plan};
    ++stats.inserts;
    return FrontTier::Outcome::kInserted;
  }

  void flush() {
    for (Entry& e : entries_) {
      if (e.valid) evict(e, /*flush=*/true);
    }
  }

  FrontTierStats stats;

 private:
  static std::uint16_t touched_words(const Block& a, const Block& b) {
    std::uint16_t mask = 0;
    for (std::size_t w = 0; w < kBlockBytes / 4; ++w) {
      if (std::memcmp(a.data() + 4 * w, b.data() + 4 * w, 4) != 0) {
        mask = static_cast<std::uint16_t>(mask | (1u << w));
      }
    }
    return mask;
  }

  std::size_t plan_size(const Block& data) const {
    return compressor_.probe_size(data).value_or(kBlockBytes);
  }

  /// Smallest (plan_size, lru) among the older half of the resident ways.
  std::size_t victim(const Entry* set) const {
    std::vector<std::size_t> order;
    for (std::size_t w = 0; w < ways_; ++w) {
      if (set[w].valid) order.push_back(w);
    }
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return set[a].lru < set[b].lru; });
    order.resize((order.size() + 1) / 2);
    return *std::min_element(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return std::pair{set[a].plan_size, set[a].lru} < std::pair{set[b].plan_size, set[b].lru};
    });
  }

  void evict(Entry& e, bool flush) {
    resident_[e.line] = Resident{e.fp, e.data};
    stats.words_touched += static_cast<std::uint64_t>(std::popcount(e.touched));
    stats.words_forwarded += kBlockBytes / 4;
    ++(flush ? stats.flushes : stats.evictions);
    out_.push_back(FrontTier::Forward{e.line, e.tag, e.data});
    e.valid = false;
  }

  std::size_t sets_;
  std::size_t ways_;
  std::vector<Entry> entries_;
  std::unordered_map<LineAddr, Resident> resident_;
  std::vector<FrontTier::Forward>& out_;
  BestOfCompressor compressor_;
  std::uint64_t tick_ = 0;
};

void expect_same_stats(const FrontTierStats& a, const FrontTierStats& b) {
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.silent_hits, b.silent_hits);
  EXPECT_EQ(a.silent_drops, b.silent_drops);
  EXPECT_EQ(a.inserts, b.inserts);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.flushes, b.flushes);
  EXPECT_EQ(a.invalidates, b.invalidates);
  EXPECT_EQ(a.fp_false_hits, b.fp_false_hits);
  EXPECT_EQ(a.words_forwarded, b.words_forwarded);
  EXPECT_EQ(a.words_touched, b.words_touched);
}

TEST(FrontTier, LazyCompTierMatchesEagerReference) {
  // The comp tier derives a payload's fingerprint and size probe only when an
  // eviction needs them. Over a stream of compressible, incompressible and
  // partially rewritten payloads with heavy reuse (silent hits and drops,
  // touched-word shrinking, >10 k evictions) it must behave exactly like the
  // eager model: same outcome per put, same forwards in the same order, same
  // counters.
  FrontTierConfig cfg;
  cfg.capacity_lines = 64;
  cfg.ways = 8;
  cfg.policy = TierPolicy::kComp;
  cfg.model_latency = false;
  std::vector<FrontTier::Forward> lazy_out;
  std::vector<FrontTier::Forward> eager_out;
  FrontTier tier(cfg, [&](const FrontTier::Forward& f) { lazy_out.push_back(f); });
  EagerCompTier eager(tier.sets(), cfg.ways, eager_out);

  std::unordered_map<LineAddr, Block> last;
  for (std::uint64_t i = 0; i < 60000; ++i) {
    const LineAddr line = mix64(21, i) % 384;
    const std::uint64_t pick = mix64(22, i);
    Block data;
    switch (pick % 5) {
      case 0: data = filled(static_cast<std::uint8_t>(pick >> 8) % 4); break;
      case 1: data = random_block(line * 4 + (pick >> 8) % 3); break;
      case 2: {
        data = last.count(line) ? last[line] : random_block(line);
        store_le(data, 4 * ((pick >> 8) % 16), static_cast<std::uint32_t>(pick >> 16));
        break;
      }
      case 3: {
        data = Block{};
        for (std::size_t w = 0; w < (pick >> 8) % 16; ++w) {
          store_le(data, 4 * w, static_cast<std::uint32_t>((pick >> 12) % 200));
        }
        break;
      }
      default: data = last.count(line) ? last[line] : filled(9); break;
    }
    last[line] = data;
    const auto tag = static_cast<std::uint32_t>(i % 13);
    ASSERT_EQ(tier.put(line, data, tag), eager.put(line, data, tag)) << "put " << i;
    ASSERT_EQ(lazy_out.size(), eager_out.size()) << "put " << i;
  }
  tier.flush();
  eager.flush();

  EXPECT_GT(tier.stats().evictions, 10000u);
  EXPECT_GT(tier.stats().silent_hits, 0u);
  EXPECT_GT(tier.stats().silent_drops, 0u);
  expect_same_stats(tier.stats(), eager.stats);
  ASSERT_EQ(lazy_out.size(), eager_out.size());
  for (std::size_t k = 0; k < lazy_out.size(); ++k) {
    ASSERT_EQ(lazy_out[k].line, eager_out[k].line) << "forward " << k;
    ASSERT_EQ(lazy_out[k].tag, eager_out[k].tag) << "forward " << k;
    ASSERT_EQ(lazy_out[k].data, eager_out[k].data) << "forward " << k;
  }
}

TEST(FrontTier, ConfigContractsAreEnforced) {
  EXPECT_THROW(FrontTier(FrontTierConfig{}, [](const FrontTier::Forward&) {}),
               ContractViolation);
  FrontTierConfig cfg = one_set(2, TierPolicy::kLru);
  EXPECT_THROW(FrontTier(cfg, nullptr), ContractViolation);
  cfg.capacity_lines = 1;
  cfg.ways = 4;
  EXPECT_THROW(FrontTier(cfg, [](const FrontTier::Forward&) {}), ContractViolation);

  // Policy names outside lru/silent/comp (such as dedup) are rejected with a
  // message naming the valid set.
  EXPECT_EQ(tier_policy_from_string("comp"), TierPolicy::kComp);
  for (const char* bad : {"dedup", "", "LRU", "random"}) {
    EXPECT_THROW((void)tier_policy_from_string(bad), ContractViolation) << bad;
  }
  try {
    (void)tier_policy_from_string("dedup");
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("lru, silent, or comp"), std::string::npos);
  }

  // put_at arrival order is a contract, matching the controller's.
  FrontTier tier(one_set(2, TierPolicy::kLru), [](const FrontTier::Forward&) {});
  (void)tier.put_at(5, 1, filled(1));
  EXPECT_THROW((void)tier.put_at(4, 2, filled(2)), ContractViolation);
}

}  // namespace
}  // namespace pcmsim
