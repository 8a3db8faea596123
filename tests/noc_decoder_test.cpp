// Tests for the NoC-distributed LDPC decoder: bit-identity with the golden
// decoder (the central functional invariant), timing determinism,
// placement independence of results, and activity accounting.
#include <gtest/gtest.h>

#include <numeric>

#include "core/chip_config.hpp"
#include "core/transform.hpp"
#include "ldpc/channel.hpp"
#include "ldpc/decoder.hpp"
#include "ldpc/encoder.hpp"
#include "ldpc/noc_decoder.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace renoc {
namespace {

struct TestBench {
  LdpcCode code;
  std::vector<std::int16_t> llrs;
};

TestBench make_bench(int n = 240, std::uint64_t seed = 3, double ebn0 = 3.0) {
  Rng rng(seed);
  TestBench tb{LdpcCode::make_regular(n, 3, 6, rng), {}};
  LdpcEncoder encoder(tb.code);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(encoder.k()));
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(2));
  AwgnChannel channel(ebn0, 0.5, rng.split());
  tb.llrs = quantize_llrs(channel.transmit(encoder.encode(data)));
  return tb;
}

NocConfig mesh(int side) {
  NocConfig cfg;
  cfg.dim = GridDim{side, side};
  return cfg;
}

TEST(NocDecoderTest, MatchesGoldenBitExactly) {
  const TestBench tb = make_bench();
  LdpcNocParams params;
  params.iterations = 8;
  const MinSumDecoder golden(tb.code, params.iterations);
  const DecodeResult gold = golden.decode(tb.llrs);

  Fabric fabric(mesh(4));
  NocLdpcDecoder decoder(fabric, tb.code,
                         make_striped_partition(tb.code, 16),
                         identity_permutation(16), params);
  const NocDecodeResult res = decoder.decode_block(tb.llrs);
  EXPECT_EQ(res.hard_bits, gold.hard_bits);
  EXPECT_EQ(res.syndrome_ok, gold.syndrome_ok);
  EXPECT_GT(res.cycles, 0u);
}

// The invariant must hold across partitions, mesh sizes, noise levels, and
// iteration counts.
struct EquivCase {
  int side;
  int clusters;
  int iterations;
  double ebn0;
  int partition_kind;  // 0 striped, 1 interleaved, 2 weighted
};

class NocDecoderEquivalence : public ::testing::TestWithParam<EquivCase> {};

TEST_P(NocDecoderEquivalence, DistributedEqualsGolden) {
  const EquivCase& pc = GetParam();
  const TestBench tb = make_bench(240, 7, pc.ebn0);
  Partition partition;
  switch (pc.partition_kind) {
    case 0:
      partition = make_striped_partition(tb.code, pc.clusters);
      break;
    case 1:
      partition = make_interleaved_partition(tb.code, pc.clusters);
      break;
    default: {
      std::vector<double> w(static_cast<std::size_t>(pc.clusters), 1.0);
      w[0] = 3.0;
      w[static_cast<std::size_t>(pc.clusters - 1)] = 0.25;
      partition = make_weighted_partition(tb.code, w, w);
    }
  }
  LdpcNocParams params;
  params.iterations = pc.iterations;
  const MinSumDecoder golden(tb.code, params.iterations);
  const DecodeResult gold = golden.decode(tb.llrs);

  Fabric fabric(mesh(pc.side));
  NocLdpcDecoder decoder(fabric, tb.code, partition,
                         identity_permutation(pc.clusters), params);
  const NocDecodeResult res = decoder.decode_block(tb.llrs);
  EXPECT_EQ(res.hard_bits, gold.hard_bits);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NocDecoderEquivalence,
    ::testing::Values(EquivCase{4, 16, 5, 2.0, 0},
                      EquivCase{4, 16, 10, 0.0, 1},
                      EquivCase{4, 16, 6, 4.0, 2},
                      EquivCase{5, 25, 5, 2.0, 0},
                      EquivCase{5, 25, 8, 1.0, 1},
                      EquivCase{5, 20, 6, 2.0, 0},   // fewer clusters than
                      EquivCase{4, 10, 6, 2.0, 2})); // tiles

TEST(NocDecoderTest, PlacementDoesNotChangeFunction) {
  const TestBench tb = make_bench();
  LdpcNocParams params;
  params.iterations = 6;
  const Partition partition = make_striped_partition(tb.code, 16);

  Fabric f1(mesh(4));
  NocLdpcDecoder d1(f1, tb.code, partition, identity_permutation(16),
                    params);
  const auto r1 = d1.decode_block(tb.llrs);

  // A rotated placement.
  const Transform rot{TransformKind::kRotation, 0};
  const std::vector<int> rotated = rot.permutation(GridDim{4, 4});
  Fabric f2(mesh(4));
  NocLdpcDecoder d2(f2, tb.code, partition, rotated, params);
  const auto r2 = d2.decode_block(tb.llrs);

  EXPECT_EQ(r1.hard_bits, r2.hard_bits);
}

TEST(NocDecoderTest, BlockTimingIsDeterministicAndValueIndependent) {
  const TestBench a = make_bench(240, 7, 2.0);
  const TestBench b = make_bench(240, 7, -2.0);  // different noise level
  LdpcNocParams params;
  params.iterations = 6;
  const Partition partition = make_striped_partition(a.code, 16);

  Fabric f(mesh(4));
  NocLdpcDecoder decoder(f, a.code, partition, identity_permutation(16),
                         params);
  const Cycle c1 = decoder.decode_block(a.llrs).cycles;
  const Cycle c2 = decoder.decode_block(a.llrs).cycles;
  const Cycle c3 = decoder.decode_block(b.llrs).cycles;
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(c1, c3) << "timing must not depend on message values";
}

TEST(NocDecoderTest, ComputeOpsLandOnPlacedTiles) {
  const TestBench tb = make_bench();
  LdpcNocParams params;
  params.iterations = 4;
  std::vector<double> w(16, 1.0);
  w[3] = 5.0;  // cluster 3 does much more work
  const Partition partition = make_weighted_partition(tb.code, w, w);

  // Place cluster 3 on tile 9 and verify the ops show up there.
  std::vector<int> placement = identity_permutation(16);
  std::swap(placement[3], placement[9]);
  Fabric fabric(mesh(4));
  NocLdpcDecoder decoder(fabric, tb.code, partition, placement, params);
  decoder.decode_block(tb.llrs);
  const auto& stats = fabric.stats();
  EXPECT_GT(stats.tile(9).pe_compute_ops, stats.tile(0).pe_compute_ops * 3);
}

TEST(NocDecoderTest, TotalComputeOpsMatchAnalytic) {
  const TestBench tb = make_bench();
  LdpcNocParams params;
  params.iterations = 5;
  const Partition partition = make_striped_partition(tb.code, 16);
  Fabric fabric(mesh(4));
  NocLdpcDecoder decoder(fabric, tb.code, partition,
                         identity_permutation(16), params);
  decoder.decode_block(tb.llrs);
  std::uint64_t total = 0;
  for (int t = 0; t < 16; ++t) total += fabric.stats().tile(t).pe_compute_ops;
  // Per iteration: E VN ops + E CN ops; final phase: E more VN-side ops.
  const std::uint64_t e = static_cast<std::uint64_t>(tb.code.edge_count());
  EXPECT_EQ(total, e * (2 * 5 + 1));
}

TEST(NocDecoderTest, FabricIsIdleBetweenBlocks) {
  const TestBench tb = make_bench();
  LdpcNocParams params;
  params.iterations = 3;
  Fabric fabric(mesh(4));
  NocLdpcDecoder decoder(fabric, tb.code,
                         make_striped_partition(tb.code, 16),
                         identity_permutation(16), params);
  decoder.decode_block(tb.llrs);
  EXPECT_TRUE(fabric.idle());
  // And a second block works from that state.
  EXPECT_NO_THROW(decoder.decode_block(tb.llrs));
}

TEST(NocDecoderTest, MigrationStateWordsScaleWithClusterSize) {
  const TestBench tb = make_bench();
  std::vector<double> w(16, 1.0);
  w[0] = 4.0;
  const Partition partition = make_weighted_partition(tb.code, w, w);
  Fabric fabric(mesh(4));
  NocLdpcDecoder decoder(fabric, tb.code, partition,
                         identity_permutation(16), LdpcNocParams{});
  EXPECT_GT(decoder.migration_state_words(0),
            decoder.migration_state_words(1));
  // Every cluster needs at least the config block.
  for (int c = 0; c < 16; ++c)
    EXPECT_GE(decoder.migration_state_words(c), 16);
}

TEST(NocDecoderTest, RejectsBadPlacements) {
  const TestBench tb = make_bench();
  const Partition partition = make_striped_partition(tb.code, 16);
  Fabric fabric(mesh(4));
  // Duplicate tile.
  std::vector<int> placement = identity_permutation(16);
  placement[1] = 0;
  EXPECT_THROW(NocLdpcDecoder(fabric, tb.code, partition, placement,
                              LdpcNocParams{}),
               CheckError);
  // Out-of-range tile.
  placement = identity_permutation(16);
  placement[2] = 99;
  EXPECT_THROW(NocLdpcDecoder(fabric, tb.code, partition, placement,
                              LdpcNocParams{}),
               CheckError);
}

// Every simulated statistic of the full-scale NoC decode, pinned at values
// recorded before the decode loop became event-driven: skipping idle
// cycles, ready-set delivery and mask-based arbitration are host-time
// optimizations and must not move a single count.
struct DecodePin {
  const char* config;
  Cycle cycles_per_block;
  std::uint64_t tile_hash;  ///< every TileActivity counter of every tile
  std::uint64_t lat_count;
  double lat_mean;
  double lat_min;
  double lat_max;
};

std::uint64_t tile_activity_hash(const NetworkStats& stats) {
  std::uint64_t h = 0x100001b3ULL;
  for (int t = 0; t < stats.node_count(); ++t) {
    const TileActivity& a = stats.tile(t);
    for (std::uint64_t v : {a.buffer_writes, a.buffer_reads,
                            a.crossbar_traversals, a.arbitrations,
                            a.link_flits, a.injected_flits, a.ejected_flits,
                            a.pe_compute_ops, a.pe_state_words})
      h = mix64(h ^ v);
  }
  return h;
}

class NocDecodePinned : public ::testing::TestWithParam<DecodePin> {};

TEST_P(NocDecodePinned, FullScaleStatisticsAreUnchanged) {
  const DecodePin& pin = GetParam();
  const ChipConfig cfg = config_by_name(pin.config);
  const BuiltChip chip = build_chip(cfg);
  std::vector<int> placement = identity_permutation(cfg.dim.node_count());
  placement.resize(static_cast<std::size_t>(chip.partition.cluster_count));
  Fabric fabric(cfg.noc);
  NocLdpcDecoder decoder(fabric, chip.code, chip.partition, placement,
                         cfg.ldpc_params);
  for (int block = 0; block < 2; ++block)
    EXPECT_EQ(decoder.decode_block(chip.channel_llrs).cycles,
              pin.cycles_per_block)
        << "block " << block;
  EXPECT_EQ(fabric.now(), 2 * pin.cycles_per_block);
  const NetworkStats& stats = fabric.stats();
  EXPECT_EQ(tile_activity_hash(stats), pin.tile_hash);
  EXPECT_EQ(stats.packet_latency().count(), pin.lat_count);
  EXPECT_EQ(stats.packet_latency().mean(), pin.lat_mean);
  EXPECT_EQ(stats.packet_latency().min(), pin.lat_min);
  EXPECT_EQ(stats.packet_latency().max(), pin.lat_max);
}

INSTANTIATE_TEST_SUITE_P(
    ConfigsAandE, NocDecodePinned,
    ::testing::Values(DecodePin{"A", 54103, 5481769116214745883ULL, 14952,
                                0x1.3879a17d543eap+4, 2.0, 395.0},
                      DecodePin{"E", 55780, 15686885616382683543ULL, 38016,
                                0x1.58490cede6249p+4, 4.0, 198.0}),
    [](const ::testing::TestParamInfo<DecodePin>& param) {
      return std::string(param.param.config);
    });

}  // namespace
}  // namespace renoc
