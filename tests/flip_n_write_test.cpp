#include <gtest/gtest.h>

#include <bit>
#include <initializer_list>

#include "common/rng.hpp"
#include "pcm/flip_n_write.hpp"

namespace pcmsim {
namespace {

Block random_block(Rng& rng) {
  Block b{};
  for (auto& byte : b) byte = static_cast<std::uint8_t>(rng());
  return b;
}

TEST(FlipNWrite, EncodeDecodeRoundTrips) {
  FlipNWriteCodec codec(64);
  Rng rng(1);
  Block stored{};
  std::uint64_t flags = 0;
  for (int iter = 0; iter < 200; ++iter) {
    const Block data = random_block(rng);
    const auto enc = codec.encode(data, stored, flags);
    EXPECT_EQ(codec.decode(enc.payload, enc.invert_mask), data);
    stored = enc.payload;
    flags = enc.invert_mask;
  }
}

TEST(FlipNWrite, NeverWorseThanDifferentialWrite) {
  FlipNWriteCodec codec(64);
  Rng rng(2);
  Block stored{};
  std::uint64_t flags = 0;
  for (int iter = 0; iter < 300; ++iter) {
    const Block data = random_block(rng);
    const std::size_t dw = FlipNWriteCodec::dw_flips(data, stored);
    const std::size_t fnw = codec.encoded_flips(data, stored, flags);
    // FNW may pay one flag flip per group but saves when a group inverts.
    EXPECT_LE(fnw, dw + codec.groups_per_block());
    const auto enc = codec.encode(data, stored, flags);
    stored = enc.payload;
    flags = enc.invert_mask;
  }
}

TEST(FlipNWrite, BoundsFlipsToHalfGroupPlusFlag) {
  FlipNWriteCodec codec(32);
  Rng rng(3);
  Block stored{};
  std::uint64_t flags = 0;
  for (int iter = 0; iter < 200; ++iter) {
    const Block data = random_block(rng);
    const std::size_t fnw = codec.encoded_flips(data, stored, flags);
    // Per group: at most group_bits/2 data flips + 1 flag flip.
    EXPECT_LE(fnw, codec.groups_per_block() * (codec.group_bits() / 2 + 1));
    const auto enc = codec.encode(data, stored, flags);
    stored = enc.payload;
    flags = enc.invert_mask;
  }
}

TEST(FlipNWrite, InvertedStorageBeatsDwOnComplementWrites) {
  FlipNWriteCodec codec(64);
  Block stored{};
  stored.fill(0x00);
  std::uint64_t flags = 0;
  Block data{};
  data.fill(0xFF);  // complement of stored: DW flips everything
  EXPECT_EQ(FlipNWriteCodec::dw_flips(data, stored), kBlockBits);
  // FNW writes the inversion instead: only the flag cells flip.
  EXPECT_EQ(codec.encoded_flips(data, stored, flags), codec.groups_per_block());
}

TEST(FlipNWrite, EncodedFlipsMatchesDefinitionAcrossGroupSizes) {
  // The fused encoded_flips() must equal the definition computed from the
  // actual encoding: payload cells that change plus flag cells that change.
  Rng rng(4);
  for (const std::size_t gb : std::initializer_list<std::size_t>{8, 16, 32, 64, 128, 512}) {
    FlipNWriteCodec codec(gb);
    Block stored{};
    std::uint64_t flags = 0;
    for (int iter = 0; iter < 100; ++iter) {
      const Block data = random_block(rng);
      const std::size_t fused = codec.encoded_flips(data, stored, flags);
      const auto enc = codec.encode(data, stored, flags);
      const std::size_t direct = FlipNWriteCodec::dw_flips(enc.payload, stored) +
                                 static_cast<std::size_t>(std::popcount(enc.invert_mask ^ flags));
      EXPECT_EQ(fused, direct) << "group_bits=" << gb;
      EXPECT_EQ(codec.decode(enc.payload, enc.invert_mask), data);
      stored = enc.payload;
      flags = enc.invert_mask;
    }
  }
}

TEST(FlipNWrite, GroupSizeMustDivideBlock) {
  EXPECT_NO_THROW(FlipNWriteCodec(32));
  EXPECT_NO_THROW(FlipNWriteCodec(128));
  EXPECT_THROW(FlipNWriteCodec(48), ContractViolation);
  EXPECT_THROW(FlipNWriteCodec(0), ContractViolation);
}

}  // namespace
}  // namespace pcmsim
