// The ECC registry's contracts: every registered spec round-trips through
// make_scheme with a name/traits snapshot that matches the constructed
// scheme, the parameterized grammar accepts/rejects what it documents, and
// every scheme (old families and the BCH-t / coset extensions alike) survives
// a randomized encode -> stuck-cells -> decode property sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ecc/bch.hpp"
#include "ecc/coset.hpp"
#include "ecc/registry.hpp"

namespace pcmsim {
namespace {

std::vector<FaultCell> random_faults(Rng& rng, std::size_t n, std::size_t window_bits) {
  std::vector<std::uint16_t> pos(window_bits);
  std::iota(pos.begin(), pos.end(), std::uint16_t{0});
  std::vector<FaultCell> out;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = i + rng.next_below(window_bits - i);
    std::swap(pos[i], pos[j]);
    out.push_back(FaultCell{pos[i], rng.next_bool(0.5)});
  }
  std::sort(out.begin(), out.end(),
            [](const FaultCell& a, const FaultCell& b) { return a.pos < b.pos; });
  return out;
}

std::vector<std::uint8_t> random_data(Rng& rng, std::size_t window_bits) {
  std::vector<std::uint8_t> d((window_bits + 7) / 8);
  for (auto& b : d) b = static_cast<std::uint8_t>(rng());
  return d;
}

// ---------------------------------------------------------------------------
// Registry round-trip: the static table is an honest snapshot of the schemes.

TEST(Registry, EveryRegisteredSpecConstructsAndMatchesItsSnapshot) {
  const auto schemes = registered_schemes();
  ASSERT_GE(schemes.size(), 7u);
  for (const auto& info : schemes) {
    SCOPED_TRACE(std::string(info.spec));
    EXPECT_TRUE(is_scheme_spec(info.spec));
    const auto scheme = make_scheme(info.spec);
    EXPECT_EQ(scheme->name(), info.name);
    EXPECT_EQ(scheme->traits(), info.traits);
    // The traits snapshot must agree with the scheme's own virtuals.
    EXPECT_EQ(info.traits.metadata_bits, scheme->metadata_bits());
    EXPECT_EQ(info.traits.guaranteed_correctable, scheme->guaranteed_correctable());
    // find_scheme_info resolves canonical specs to the same entry.
    const auto* found = find_scheme_info(info.spec);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->name, info.name);
    // scheme_traits answers from the table without construction.
    EXPECT_EQ(scheme_traits(info.spec), info.traits);
  }
}

TEST(Registry, ParameterizedSpecsOutsideTheCanonicalListParse) {
  for (const char* spec : {"ecp1", "ecp3", "ecp9", "safer16", "safer32-ideal",
                           "aegis19x29", "bch-t1", "bch-t4", "coset-w8"}) {
    SCOPED_TRACE(spec);
    EXPECT_TRUE(is_scheme_spec(spec));
    EXPECT_NE(make_scheme(spec), nullptr);
    EXPECT_EQ(find_scheme_info(spec), nullptr) << "not a canonical entry";
  }
}

TEST(Registry, MalformedOrOutOfRangeSpecsAreRejected) {
  // safer64 is grammar-valid but unconstructible: 64 partitions blow the
  // 64-bit metadata budget, so the registry reports it as not-a-spec too.
  for (const char* spec : {"", "ecp", "ecp0", "ecp13", "ecp6x", "safer0", "safer31",
                           "safer64", "aegis17", "aegis0x31", "bch", "bch-t0", "bch-t7",
                           "coset-w5", "coset-w0", "hamming", "ECP6"}) {
    SCOPED_TRACE(spec);
    EXPECT_FALSE(is_scheme_spec(spec));
    EXPECT_THROW((void)make_scheme(spec), ContractViolation);
  }
}

// ---------------------------------------------------------------------------
// Cross-registry property: up to guaranteed_correctable() faults, encode must
// succeed and the data must survive the stuck cells bit-exactly; past the
// guarantee, encode may refuse, but whenever it accepts the round-trip must
// still be exact (no silent corruption, ever).

class RegisteredSchemeRecovery : public ::testing::TestWithParam<std::string> {};

TEST_P(RegisteredSchemeRecovery, GuaranteedFaultsAlwaysRoundTrip) {
  const auto scheme = make_scheme(GetParam());
  Rng rng(0x5EC + scheme->metadata_bits());
  const std::size_t guaranteed = scheme->guaranteed_correctable();
  for (std::size_t nfaults = 0; nfaults <= guaranteed; ++nfaults) {
    for (int iter = 0; iter < 30; ++iter) {
      const auto faults = random_faults(rng, nfaults, kBlockBits);
      const auto data = random_data(rng, kBlockBits);
      EXPECT_TRUE(scheme->can_tolerate(faults, kBlockBits));
      const auto enc = scheme->encode(data, kBlockBits, faults);
      ASSERT_TRUE(enc.has_value())
          << GetParam() << " refused " << nfaults << " <= guaranteed faults";
      const auto stored = apply_faults(enc->image, kBlockBits, faults);
      const auto decoded = scheme->decode(stored, kBlockBits, enc->meta, faults);
      ASSERT_EQ(decoded, data) << GetParam() << " with " << nfaults << " faults";
    }
  }
}

TEST_P(RegisteredSchemeRecovery, PastGuaranteeIsRefusedOrStillExact) {
  const auto scheme = make_scheme(GetParam());
  Rng rng(0xFA17 + scheme->metadata_bits());
  const std::size_t guaranteed = scheme->guaranteed_correctable();
  int refused = 0;
  int exact = 0;
  for (std::size_t nfaults = guaranteed + 1; nfaults <= guaranteed + 4; ++nfaults) {
    for (int iter = 0; iter < 30; ++iter) {
      const auto faults = random_faults(rng, nfaults, kBlockBits);
      const auto data = random_data(rng, kBlockBits);
      const auto enc = scheme->encode(data, kBlockBits, faults);
      // encode may only be *stronger* than the data-independent check (the
      // coset scheme accepts extra faults that land in compression slack).
      EXPECT_TRUE(!scheme->can_tolerate(faults, kBlockBits) || enc.has_value());
      if (!enc) {
        ++refused;
        continue;
      }
      const auto stored = apply_faults(enc->image, kBlockBits, faults);
      ASSERT_EQ(scheme->decode(stored, kBlockBits, enc->meta, faults), data);
      ++exact;
    }
  }
  EXPECT_GT(refused + exact, 0);
}

INSTANTIATE_TEST_SUITE_P(AllRegistered, RegisteredSchemeRecovery,
                         ::testing::Values("ecp6", "ecp12", "safer32", "aegis17x31",
                                           "secded", "bch-t2", "bch-t6", "coset-w4"),
                         [](const ::testing::TestParamInfo<std::string>& param_info) {
                           std::string n = param_info.param;
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

// ---------------------------------------------------------------------------
// tolerance_is_count_exact: WindowPlacer decides placement from fault counts
// alone for schemes carrying the trait, so the trait must mean exactly
// `can_tolerate == (faults <= guaranteed)` on every pattern and window size —
// and it must be withheld only where some pattern breaks that rule.

TEST(Registry, CountExactSchemesTolerateExactlyByCount) {
  std::vector<std::string> specs;
  for (const auto& info : registered_schemes()) specs.emplace_back(info.spec);
  for (std::size_t n = 1; n <= 12; ++n) specs.push_back("ecp" + std::to_string(n));
  for (std::size_t t = 1; t <= 6; ++t) specs.push_back("bch-t" + std::to_string(t));
  std::size_t checked = 0;
  for (const auto& spec : specs) {
    const auto scheme = make_scheme(spec);
    if (!scheme->traits().tolerance_is_count_exact) continue;
    SCOPED_TRACE(spec);
    ++checked;
    Rng rng(mix64(0xC0427, scheme->metadata_bits()));
    const std::size_t guaranteed = scheme->guaranteed_correctable();
    for (const std::size_t window_bits : {64u, 136u, 256u, 512u}) {
      for (std::size_t nfaults = 0; nfaults <= 2 * guaranteed + 2; ++nfaults) {
        for (int iter = 0; iter < 20; ++iter) {
          const auto faults = random_faults(rng, nfaults, window_bits);
          ASSERT_EQ(scheme->can_tolerate(faults, window_bits), nfaults <= guaranteed)
              << nfaults << " faults in a " << window_bits << "-bit window";
        }
      }
    }
  }
  EXPECT_EQ(checked, 4u + 12u + 6u) << "ecp6/ecp12/bch-t2/bch-t6 plus every ecp<N>, bch-t<T>";
}

TEST(Registry, SchemesWithoutTheTraitToleratePastTheirCount) {
  // SAFER and Aegis re-partition around extra faults, SECDED and coset take
  // one fault per word: each tolerates some pattern larger than its
  // guarantee, so a count-only answer would misplace windows.
  for (const auto& info : registered_schemes()) {
    if (info.traits.tolerance_is_count_exact) continue;
    SCOPED_TRACE(std::string(info.spec));
    const auto scheme = make_scheme(info.spec);
    Rng rng(mix64(0x7A5, scheme->metadata_bits()));
    const std::size_t nfaults = scheme->guaranteed_correctable() + 1;
    bool tolerated = false;
    for (int iter = 0; iter < 500 && !tolerated; ++iter) {
      tolerated = scheme->can_tolerate(random_faults(rng, nfaults, kBlockBits), kBlockBits);
    }
    EXPECT_TRUE(tolerated);
  }
}

// ---------------------------------------------------------------------------
// BCH-t specifics: 2t stuck cells are erasures under a distance-(2t+1) code,
// so capability is exactly 2t at a metadata cost of 10t bits.

TEST(Bch, CapabilityIsExactlyTwoTErasures) {
  Rng rng(11);
  for (std::size_t t = 1; t <= 6; ++t) {
    const BchScheme bch(t);
    EXPECT_EQ(bch.guaranteed_correctable(), 2 * t);
    EXPECT_EQ(bch.metadata_bits(), 10 * t);
    for (int iter = 0; iter < 50; ++iter) {
      EXPECT_TRUE(bch.can_tolerate(random_faults(rng, 2 * t, kBlockBits), kBlockBits));
      EXPECT_FALSE(bch.can_tolerate(random_faults(rng, 2 * t + 1, kBlockBits), kBlockBits));
    }
  }
}

TEST(Bch, BeatsEcpSixInBothStrengthAndMetadata) {
  // The laboratory's headline: BCH-t6 guarantees 12 erasures in 60 metadata
  // bits; ECP-6 guarantees 6 in 63.
  const auto bch = make_scheme("bch-t6");
  const auto ecp = make_scheme("ecp6");
  EXPECT_GT(bch->guaranteed_correctable(), ecp->guaranteed_correctable());
  EXPECT_LT(bch->metadata_bits(), ecp->metadata_bits());
}

TEST(Bch, GfExpTableHasFullPeriod) {
  const BchScheme bch(1);
  // alpha generates GF(2^10)*: the powers 0..1022 are pairwise distinct.
  std::vector<bool> seen(1024, false);
  for (std::size_t e = 0; e < 1023; ++e) {
    const auto v = bch.alpha_pow(e);
    ASSERT_GT(v, 0u);
    ASSERT_LT(v, 1024u);
    EXPECT_FALSE(seen[v]) << "alpha^" << e << " repeats";
    seen[v] = true;
  }
  EXPECT_EQ(bch.alpha_pow(0), 1u);
}

// ---------------------------------------------------------------------------
// Coset specifics: beyond the one-per-word data-independent guarantee, any
// number of faults landing in compression slack is absorbed for free.

TEST(Coset, OneFaultPerWordIsToleratedDataIndependently) {
  const CosetScheme coset(4);
  std::vector<FaultCell> one_per_word;
  for (std::uint16_t w = 0; w < kBlockBits / 32; ++w) {
    one_per_word.push_back({static_cast<std::uint16_t>(w * 32 + 7), true});
  }
  EXPECT_TRUE(coset.can_tolerate(one_per_word, kBlockBits));  // 16 faults!
  one_per_word.push_back({9, false});  // second fault in word 0
  std::sort(one_per_word.begin(), one_per_word.end(),
            [](const FaultCell& a, const FaultCell& b) { return a.pos < b.pos; });
  EXPECT_FALSE(coset.can_tolerate(one_per_word, kBlockBits));
}

TEST(Coset, SlackFaultsAreFreeOnCompressibleData) {
  const CosetScheme coset(4);
  // All-zero data: every u32 cell is a 3-bit FPC zero-run tag, so bits 3..31
  // of every cell are slack. Pile two faults into the slack of each word —
  // way past the 1-fault guarantee — and the round-trip must still be exact.
  const std::vector<std::uint8_t> data(kBlockBytes, 0);
  std::vector<FaultCell> faults;
  for (std::uint16_t c = 0; c < kBlockBits / 32; ++c) {
    faults.push_back({static_cast<std::uint16_t>(c * 32 + 12), true});
    faults.push_back({static_cast<std::uint16_t>(c * 32 + 25), true});
  }
  EXPECT_FALSE(coset.can_tolerate(faults, kBlockBits)) << "data-independent check refuses";
  const auto enc = coset.encode(data, kBlockBits, faults);
  ASSERT_TRUE(enc.has_value()) << "slack-aware encode absorbs 32 stuck cells";
  const auto stored = apply_faults(enc->image, kBlockBits, faults);
  EXPECT_EQ(coset.decode(stored, kBlockBits, enc->meta, faults), data);
}

TEST(Coset, CellContentTracksFpcClasses) {
  // Tag (3 bits) + payload: zero run 0, sign-4 4, sign-8 8, halfword forms
  // 16, repeated byte 8; incompressible cells stay uncoded at 32 bits.
  EXPECT_EQ(CosetScheme::cell_content_bits(0u), 3u);
  EXPECT_EQ(CosetScheme::cell_content_bits(5u), 7u);
  EXPECT_EQ(CosetScheme::cell_content_bits(0x7Bu), 11u);
  EXPECT_EQ(CosetScheme::cell_content_bits(0x4321u), 19u);
  EXPECT_EQ(CosetScheme::cell_content_bits(0xABABABABu), 11u);
  EXPECT_EQ(CosetScheme::cell_content_bits(0xDEADBEEFu), 32u);
}

TEST(Coset, WordSizeEightHalvesTheFlipBudget) {
  const CosetScheme w4(4);
  const CosetScheme w8(8);
  EXPECT_EQ(w4.metadata_bits(), 16u + 16u);  // coded flags + one flip per u32
  EXPECT_EQ(w8.metadata_bits(), 16u + 8u);   // coded flags + one flip per u64 word
  // Two faults in the two different u32 halves of one u64 word: fine for w4
  // (separate words), refused by w8 (same word).
  const std::vector<FaultCell> faults = {{3, true}, {40, false}};
  EXPECT_TRUE(w4.can_tolerate(faults, kBlockBits));
  EXPECT_FALSE(w8.can_tolerate(faults, kBlockBits));
}

}  // namespace
}  // namespace pcmsim
