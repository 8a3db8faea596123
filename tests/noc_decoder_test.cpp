// Tests for the NoC-distributed LDPC decoder: bit-identity with the golden
// decoder (the central functional invariant), timing determinism,
// placement independence of results, activity accounting, and the block
// cache's replay exactness (a replayed block leaves the fabric exactly as
// simulating it would).
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <optional>
#include <thread>

#include "core/chip_config.hpp"
#include "core/migration_controller.hpp"
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

// --- Block replay -----------------------------------------------------------

/// Everything a block leaves on a fabric, compared exactly.
void expect_same_fabric(const Fabric& a, const Fabric& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  for (int t = 0; t < a.node_count(); ++t)
    EXPECT_TRUE(a.stats().tile(t) == b.stats().tile(t)) << "tile " << t;
  EXPECT_EQ(a.stats().packets_delivered(), b.stats().packets_delivered());
  EXPECT_EQ(a.stats().flits_delivered(), b.stats().flits_delivered());
  const RunningStats& la = a.stats().packet_latency();
  const RunningStats& lb = b.stats().packet_latency();
  EXPECT_EQ(la.count(), lb.count());
  EXPECT_EQ(la.mean(), lb.mean());
  EXPECT_EQ(la.min(), lb.min());
  EXPECT_EQ(la.max(), lb.max());
  EXPECT_EQ(la.variance(), lb.variance());
  EXPECT_EQ(la.sum(), lb.sum());
  EXPECT_EQ(a.now(), b.now());
  std::vector<std::int8_t> fa, fb;
  a.arbitration_fingerprint(fa);
  b.arbitration_fingerprint(fb);
  EXPECT_EQ(fa, fb) << "end arbitration fingerprint";
}

/// Decodes one block two ways from the same fabric state: `warmed` (a
/// replay hit) on `fabric`, and a fresh decoder with a private cache
/// (always a simulation) on a copy of it. Requires the two results and
/// fabrics to be identical.
void expect_hit_equals_miss(Fabric& fabric, NocLdpcDecoder& warmed,
                            const LdpcCode& code, const Partition& partition,
                            const LdpcNocParams& params,
                            const std::vector<std::int16_t>& llrs) {
  Fabric copy = fabric;
  NocLdpcDecoder fresh(copy, code, partition, warmed.placement(), params,
                       std::make_shared<BlockCache>());
  const std::uint64_t replayed = warmed.replayed_blocks();
  const NocDecodeResult hit = warmed.decode_block(llrs);
  const NocDecodeResult miss = fresh.decode_block(llrs);
  EXPECT_EQ(warmed.replayed_blocks(), replayed + 1) << "expected a hit";
  EXPECT_EQ(fresh.simulated_blocks(), 1u);
  EXPECT_EQ(fresh.replayed_blocks(), 0u);
  EXPECT_EQ(hit.hard_bits, miss.hard_bits);
  EXPECT_EQ(hit.syndrome_ok, miss.syndrome_ok);
  EXPECT_EQ(hit.cycles, miss.cycles);
  expect_same_fabric(fabric, copy);
}

class NocDecoderReplay : public ::testing::TestWithParam<const char*> {};

TEST_P(NocDecoderReplay, HitEqualsMissAtFullScale) {
  const ChipConfig cfg = config_by_name(GetParam());
  const BuiltChip chip = build_chip(cfg);
  std::vector<int> placement = identity_permutation(cfg.dim.node_count());
  placement.resize(static_cast<std::size_t>(chip.partition.cluster_count));
  Fabric fabric(cfg.noc);
  NocLdpcDecoder decoder(fabric, chip.code, chip.partition, placement,
                         cfg.ldpc_params);
  // The fresh-fabric fingerprint, then the one every block settles into:
  // two misses, after which the decoder replays.
  for (int b = 0; b < 2; ++b) (void)decoder.decode_block(chip.channel_llrs);
  EXPECT_EQ(decoder.simulated_blocks(), 2u);
  EXPECT_EQ(decoder.replayed_blocks(), 0u);
  for (int b = 0; b < 2; ++b)
    expect_hit_equals_miss(fabric, decoder, chip.code, chip.partition,
                           cfg.ldpc_params, chip.channel_llrs);
  EXPECT_EQ(decoder.simulated_blocks(), 2u);
  EXPECT_EQ(decoder.replayed_blocks(), 2u);
  const MinSumDecoder golden(chip.code, cfg.ldpc_params.iterations);
  EXPECT_EQ(decoder.decode_block(chip.channel_llrs).hard_bits,
            golden.decode(chip.channel_llrs).hard_bits);
}

INSTANTIATE_TEST_SUITE_P(ConfigsAandE, NocDecoderReplay,
                         ::testing::Values("A", "E"),
                         [](const ::testing::TestParamInfo<const char*>& p) {
                           return std::string(p.param);
                         });

// A rotation orbit with real migrations between placements: set_placement
// keeps the cache, so once the orbit has been walked, returning to each
// placement hits, and every hit equals a fresh simulation. Different
// channel values per block also show that a hit's bits follow the block's
// own LLRs, not the recorded block's.
TEST(NocDecoderReplayTest, RotationOrbitRoundTripHits) {
  const TestBench a = make_bench(240, 7, 2.0);
  const TestBench b = make_bench(240, 7, 0.5);
  LdpcNocParams params;
  params.iterations = 4;
  const Partition partition = make_striped_partition(a.code, 16);
  const GridDim dim{4, 4};
  const Transform rotation = transform_of(MigrationScheme::kRotation);
  const int orbit = orbit_length(rotation, dim);
  ASSERT_GT(orbit, 1);

  Fabric fabric(mesh(4));
  std::vector<int> placement = identity_permutation(16);
  NocLdpcDecoder decoder(fabric, a.code, partition, placement, params);
  MigrationController controller(fabric, rotation);
  std::vector<int> words(16);
  for (int c = 0; c < 16; ++c)
    words[static_cast<std::size_t>(c)] = decoder.migration_state_words(c);
  const MinSumDecoder golden(a.code, params.iterations);

  // Walk the orbit until the (placement, fingerprint) sequence repeats.
  constexpr int kWarmLaps = 2;
  for (int lap = 0; lap < kWarmLaps; ++lap)
    for (int step = 0; step < orbit; ++step) {
      for (const TestBench* tb : {&a, &b})
        EXPECT_EQ(decoder.decode_block(tb->llrs).hard_bits,
                  golden.decode(tb->llrs).hard_bits);
      controller.migrate(placement, words);
      decoder.set_placement(placement);
    }
  ASSERT_EQ(placement, identity_permutation(16)) << "orbit closed";
  const std::uint64_t simulated = decoder.simulated_blocks();
  EXPECT_LT(simulated, static_cast<std::uint64_t>(kWarmLaps * orbit * 2));

  for (int step = 0; step < orbit; ++step) {
    for (const TestBench* tb : {&a, &b})
      expect_hit_equals_miss(fabric, decoder, a.code, partition, params,
                             tb->llrs);
    controller.migrate(placement, words);
    decoder.set_placement(placement);
  }
  EXPECT_EQ(decoder.simulated_blocks(), simulated) << "a lap of pure hits";
}

// A degraded fabric never replays or records, even with a cache-sized
// history of identical blocks.
TEST(NocDecoderReplayTest, DegradedFabricAlwaysSimulates) {
  const TestBench tb = make_bench();
  LdpcNocParams params;
  params.iterations = 4;
  Fabric fabric(mesh(4));
  fabric.configure_delivery_guard(DeliveryGuardConfig{});
  NocLdpcDecoder decoder(fabric, tb.code, make_striped_partition(tb.code, 16),
                         identity_permutation(16), params,
                         std::make_shared<BlockCache>());
  const MinSumDecoder golden(tb.code, params.iterations);
  for (int b = 0; b < 4; ++b)
    EXPECT_EQ(decoder.decode_block(tb.llrs).hard_bits,
              golden.decode(tb.llrs).hard_bits);
  EXPECT_EQ(decoder.simulated_blocks(), 4u);
  EXPECT_EQ(decoder.replayed_blocks(), 0u);
}

// The fabric side of the contract: a fingerprint or record needs an idle,
// healthy fabric with nothing delivered but unread.
TEST(NocDecoderReplayTest, FabricReplayableOnlyWhenIdleHealthyAndRead) {
  Fabric fabric(mesh(4));
  std::vector<std::int8_t> fp;
  EXPECT_TRUE(fabric.replayable());
  EXPECT_NO_THROW(fabric.arbitration_fingerprint(fp));
  EXPECT_EQ(fp.size(), 16u * kDirectionCount + 16u);

  Message msg;
  msg.src = 0;
  msg.dst = 15;
  msg.payload = {1, 2, 3};
  fabric.send(msg);
  EXPECT_FALSE(fabric.replayable());  // queued at the NI
  fabric.drain();
  EXPECT_FALSE(fabric.replayable());  // delivered, not yet read
  EXPECT_THROW(fabric.arbitration_fingerprint(fp), CheckError);
  ASSERT_TRUE(fabric.try_receive(15).has_value());
  EXPECT_TRUE(fabric.replayable());

  fabric.set_injection_enabled(3, false);
  std::vector<std::int8_t> disabled;
  fabric.arbitration_fingerprint(disabled);
  fabric.arbitration_fingerprint(fp);
  EXPECT_EQ(fp, disabled);
  fabric.set_injection_enabled(3, true);
  fabric.arbitration_fingerprint(fp);
  EXPECT_NE(fp, disabled) << "NI-enabled flags are part of the key";

  fabric.configure_delivery_guard(DeliveryGuardConfig{});
  EXPECT_FALSE(fabric.replayable());
  EXPECT_THROW(fabric.arbitration_fingerprint(fp), CheckError);
}

// Recorded latency samples are u16: a larger sample is not recorded, so a
// record that spans one has fewer samples than deliveries and is refused.
TEST(NocDecoderReplayTest, LatencySampleOver16BitsRefusesTheRecord) {
  NetworkStats stats(4);
  std::vector<std::uint16_t> sink;
  stats.set_latency_sink(&sink);
  stats.note_packet_delivered(2, 65535);
  EXPECT_EQ(sink, std::vector<std::uint16_t>{65535});
  stats.note_packet_delivered(2, 70000);
  EXPECT_EQ(sink, std::vector<std::uint16_t>{65535}) << "sink unchanged";
  EXPECT_EQ(stats.packets_delivered(), 2u);
  EXPECT_EQ(stats.packet_latency().max(), 70000.0);

  Fabric fabric(mesh(4));
  BlockDelta delta;
  fabric.begin_record(delta);
  fabric.stats().note_packet_delivered(1, 70000);
  EXPECT_FALSE(fabric.end_record(delta));
  fabric.begin_record(delta);
  fabric.stats().note_packet_delivered(1, 65535);
  ASSERT_TRUE(fabric.end_record(delta));
  EXPECT_EQ(delta.latencies, std::vector<std::uint16_t>{65535});
}

// --- Block caches shared across decoders ------------------------------------

// The system tests' scaled-down configuration A.
ChipConfig fast_config() {
  ChipConfig cfg = config_A();
  cfg.workload.code_n = 510;
  cfg.ldpc_params.iterations = 4;
  return cfg;
}

/// A decoder of `chip` at the identity placement.
NocLdpcDecoder chip_decoder(Fabric& fabric, const BuiltChip& chip,
                            const LdpcNocParams& params,
                            std::shared_ptr<BlockCache> cache = nullptr) {
  std::vector<int> placement = identity_permutation(fabric.node_count());
  placement.resize(static_cast<std::size_t>(chip.partition.cluster_count));
  return NocLdpcDecoder(fabric, chip.code, chip.partition, placement, params,
                        std::move(cache));
}

// Equal inputs at different addresses share one cache: the second
// decoder's first block replays what the first one recorded, exactly.
TEST(NocDecoderSharedCacheTest, TwoBuildsOfOneConfigShare) {
  const ChipConfig cfg = fast_config();
  const BuiltChip first = build_chip(cfg);
  const BuiltChip second = build_chip(cfg);
  Fabric f1(cfg.noc);
  NocLdpcDecoder d1 = chip_decoder(f1, first, cfg.ldpc_params);
  (void)d1.decode_block(first.channel_llrs);

  Fabric f2(cfg.noc);
  NocLdpcDecoder d2 = chip_decoder(f2, second, cfg.ldpc_params);
  EXPECT_GE(d2.cached_blocks(), 1u);
  expect_hit_equals_miss(f2, d2, second.code, second.partition,
                         cfg.ldpc_params, second.channel_llrs);
  EXPECT_EQ(d2.simulated_blocks(), 0u);
  EXPECT_EQ(d2.replayed_blocks(), 1u);
}

// Any input difference keeps the caches apart: each variant's first block
// (same placement, same fresh-fabric fingerprint as the recorded one) is
// simulated.
TEST(NocDecoderSharedCacheTest, DifferentInputsNeverShare) {
  const ChipConfig base = fast_config();
  const BuiltChip base_chip = build_chip(base);
  Fabric base_fabric(base.noc);
  NocLdpcDecoder base_decoder =
      chip_decoder(base_fabric, base_chip, base.ldpc_params);
  (void)base_decoder.decode_block(base_chip.channel_llrs);
  ASSERT_GE(base_decoder.cached_blocks(), 1u);

  const char* const kVariants[] = {"code_seed", "vn_owner",
                                   "phase_overhead_cycles", "buffer_depth"};
  for (int v = 0; v < 4; ++v) {
    ChipConfig cfg = base;
    if (v == 0) cfg.workload.code_seed += 1;
    if (v == 2) cfg.ldpc_params.phase_overhead_cycles += 1;
    if (v == 3) cfg.noc.buffer_depth += 1;
    BuiltChip chip = build_chip(cfg);
    if (v == 1) {
      int& owner = chip.partition.vn_owner[0];
      owner = (owner + 1) % chip.partition.cluster_count;
    }
    Fabric fabric(cfg.noc);
    NocLdpcDecoder decoder = chip_decoder(fabric, chip, cfg.ldpc_params);
    EXPECT_EQ(decoder.cached_blocks(), 0u) << kVariants[v];
    const NocDecodeResult res = decoder.decode_block(chip.channel_llrs);
    EXPECT_EQ(decoder.simulated_blocks(), 1u) << kVariants[v];
    EXPECT_EQ(decoder.replayed_blocks(), 0u) << kVariants[v];
    const MinSumDecoder golden(chip.code, cfg.ldpc_params.iterations);
    EXPECT_EQ(res.hard_bits, golden.decode(chip.channel_llrs).hard_bits)
        << kVariants[v];
  }
}

// A private cache refuses a decoder whose inputs differ from the ones it
// was bound to.
TEST(NocDecoderSharedCacheTest, BoundCacheRefusesOtherInputs) {
  const ChipConfig cfg = fast_config();
  const BuiltChip chip = build_chip(cfg);
  const auto cache = std::make_shared<BlockCache>();
  Fabric fabric(cfg.noc);
  NocLdpcDecoder first = chip_decoder(fabric, chip, cfg.ldpc_params, cache);
  EXPECT_NO_THROW(chip_decoder(fabric, chip, cfg.ldpc_params, cache));
  LdpcNocParams other = cfg.ldpc_params;
  other.iterations += 1;
  EXPECT_THROW(chip_decoder(fabric, chip, other, cache), CheckError);
}

// Decoders on four threads share the registry's cache concurrently; each
// ends with the bits and the fabric of a serial private-cache run.
TEST(NocDecoderSharedCacheTest, ConcurrentDecodersMatchASerialRun) {
  const ChipConfig cfg = fast_config();
  const BuiltChip chip = build_chip(cfg);
  constexpr int kBlocks = 4;
  constexpr int kThreads = 4;

  Fabric serial_fabric(cfg.noc);
  NocLdpcDecoder serial = chip_decoder(serial_fabric, chip, cfg.ldpc_params,
                                       std::make_shared<BlockCache>());
  std::vector<NocDecodeResult> want;
  for (int b = 0; b < kBlocks; ++b)
    want.push_back(serial.decode_block(chip.channel_llrs));

  std::vector<std::optional<Fabric>> fabrics(kThreads);
  std::vector<std::vector<NocDecodeResult>> got(kThreads);
  std::vector<std::uint64_t> simulated(kThreads), replayed(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      const auto i = static_cast<std::size_t>(t);
      Fabric& fabric = fabrics[i].emplace(cfg.noc);
      NocLdpcDecoder decoder = chip_decoder(fabric, chip, cfg.ldpc_params);
      for (int b = 0; b < kBlocks; ++b)
        got[i].push_back(decoder.decode_block(chip.channel_llrs));
      simulated[i] = decoder.simulated_blocks();
      replayed[i] = decoder.replayed_blocks();
    });
  for (std::thread& th : threads) th.join();

  for (std::size_t i = 0; i < kThreads; ++i) {
    for (int b = 0; b < kBlocks; ++b) {
      const auto bi = static_cast<std::size_t>(b);
      EXPECT_EQ(got[i][bi].hard_bits, want[bi].hard_bits) << i << ":" << b;
      EXPECT_EQ(got[i][bi].cycles, want[bi].cycles) << i << ":" << b;
    }
    expect_same_fabric(*fabrics[i], serial_fabric);
    EXPECT_EQ(simulated[i] + replayed[i], static_cast<std::uint64_t>(kBlocks));
    // Each distinct key is simulated at most once per thread.
    EXPECT_LE(simulated[i], serial.simulated_blocks()) << i;
  }
}

// Every simulated statistic of the full-scale NoC decode, pinned at values
// recorded before the decode loop became event-driven (two blocks) and
// before the block cache (four blocks, the last two replayed): skipping
// idle cycles, ready-set delivery, mask-based arbitration and block replay
// are host-time optimizations and must not move a single count.
struct StatsPin {
  std::uint64_t tile_hash;  ///< every TileActivity counter of every tile
  std::uint64_t lat_count;
  double lat_mean;
  double lat_min;
  double lat_max;
  double lat_variance;
};

struct DecodePin {
  const char* config;
  Cycle cycles_per_block;
  StatsPin two_blocks;
  StatsPin four_blocks;
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
                         cfg.ldpc_params, std::make_shared<BlockCache>());
  const auto expect_stats = [&](const StatsPin& want, int blocks) {
    EXPECT_EQ(fabric.now(), static_cast<Cycle>(blocks) * pin.cycles_per_block);
    const NetworkStats& stats = fabric.stats();
    EXPECT_EQ(tile_activity_hash(stats), want.tile_hash) << blocks;
    EXPECT_EQ(stats.packet_latency().count(), want.lat_count) << blocks;
    EXPECT_EQ(stats.packet_latency().mean(), want.lat_mean) << blocks;
    EXPECT_EQ(stats.packet_latency().min(), want.lat_min) << blocks;
    EXPECT_EQ(stats.packet_latency().max(), want.lat_max) << blocks;
    EXPECT_EQ(stats.packet_latency().variance(), want.lat_variance) << blocks;
  };
  for (int block = 0; block < 4; ++block) {
    EXPECT_EQ(decoder.decode_block(chip.channel_llrs).cycles,
              pin.cycles_per_block)
        << "block " << block;
    if (block == 1) expect_stats(pin.two_blocks, 2);
  }
  expect_stats(pin.four_blocks, 4);
  EXPECT_EQ(decoder.simulated_blocks(), 2u);
  EXPECT_EQ(decoder.replayed_blocks(), 2u);
}

INSTANTIATE_TEST_SUITE_P(
    ConfigsAandE, NocDecodePinned,
    ::testing::Values(
        DecodePin{"A", 54103,
                  {5481769116214745883ULL, 14952, 0x1.3879a17d543eap+4, 2.0,
                   395.0, 0x1.16b63102e1dd6p+9},
                  {9774665239947486278ULL, 29904, 0x1.3879a17d543d1p+4, 2.0,
                   395.0, 0x1.16b3ce2e68087p+9}},
        DecodePin{"E", 55780,
                  {15686885616382683543ULL, 38016, 0x1.58490cede6249p+4, 4.0,
                   198.0, 0x1.cffd4e1a5513ep+7},
                  {5674609019395924368ULL, 76032, 0x1.58490cede625ep+4, 4.0,
                   198.0, 0x1.cffbbe2919896p+7}}),
    [](const ::testing::TestParamInfo<DecodePin>& param) {
      return std::string(param.param.config);
    });

}  // namespace
}  // namespace renoc
