// AllocGuard subsystem tests + the steady-state zero-allocation pins.
//
// The engine contract (PRs 3–5) is that every *warmed* hot path performs
// zero heap allocations: Fabric::step() under a periodic recycled load,
// MinSumDecoder::decode_into() with a reused result, the full BER block
// pipeline (data draw through decode_into), a warmed
// MigrationThermalRuntime::run() at two network sizes, and the sparse
// steady/transient solve paths. The warmed NoC-mapped decode_block is
// pinned at one allocation per block (the hard bits it returns). The four micro benches used to be the only
// enforcement, at bench time, on one load shape each; these suites pin the
// same invariant in every CI configuration (Debug, Release, every
// sanitizer build) through util/alloc_guard.
//
// Linking this binary against the guard API pulls the interposed
// operator new/delete out of the renoc archive (see util/alloc_guard.hpp),
// so the measurements here are real allocation counts. When the
// RENOC_ALLOC_GUARD option is off the pins skip rather than vacuously pass.
#include "util/alloc_guard.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/thermal_runtime.hpp"
#include "core/transform.hpp"
#include "floorplan/floorplan.hpp"
#include "ldpc/channel.hpp"
#include "ldpc/code.hpp"
#include "ldpc/decoder.hpp"
#include "ldpc/encoder.hpp"
#include "ldpc/noc_decoder.hpp"
#include "ldpc/partition.hpp"
#include "noc/fabric.hpp"
#include "thermal/hotspot_params.hpp"
#include "thermal/rc_network.hpp"
#include "thermal/solver.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace renoc {
namespace {

#define RENOC_REQUIRE_INSTRUMENTED()                                     \
  do {                                                                   \
    if (!alloc_guard::instrumented())                                    \
      GTEST_SKIP() << "RENOC_ALLOC_GUARD is off: operator new/delete "   \
                      "are not interposed, so allocation counts would "  \
                      "be vacuous";                                      \
  } while (0)

// --- Guard mechanics -------------------------------------------------------

TEST(AllocGuardTest, CountsAndSizesAllocations) {
  RENOC_REQUIRE_INSTRUMENTED();
  const AllocGuard guard;
  {
    std::vector<char> v;
    v.reserve(1024);
  }
  EXPECT_GE(guard.count(), 1);
  EXPECT_GE(guard.bytes(), 1024);
}

TEST(AllocGuardTest, QuietScopeCountsZero) {
  RENOC_REQUIRE_INSTRUMENTED();
  std::vector<int> v(16, 7);
  const AllocGuard guard;
  long long sum = 0;
  for (const int x : v) sum += x;
  EXPECT_EQ(sum, 112);
  EXPECT_EQ(guard.count(), 0);
  EXPECT_EQ(guard.bytes(), 0);
  guard.check_zero("quiet scope");  // must not throw
}

TEST(AllocGuardTest, CheckZeroThrowsOnAllocation) {
  RENOC_REQUIRE_INSTRUMENTED();
  const AllocGuard guard;
  std::vector<char> v(64);
  EXPECT_THROW(guard.check_zero("allocating scope"), CheckError);
}

TEST(AllocGuardTest, TotalsAdvanceMonotonically) {
  RENOC_REQUIRE_INSTRUMENTED();
  const AllocTotals before = alloc_guard::totals();
  std::vector<char> v(128);
  const AllocTotals after = alloc_guard::totals();
  EXPECT_GT(after.count, before.count);
  EXPECT_GE(after.bytes - before.bytes, 128);
}

// --- Engine pins: warmed hot paths must not allocate -----------------------

// Same deterministic periodic load as bench/micro_noc's steady-state guard:
// every node sends a 4-word message east every 6 cycles and every delivery
// is recycled, so pool/ring/staging demand is exactly periodic and one
// warm-up period reaches every high-water mark.
TEST(EngineAllocTest, WarmedFabricStepLoopIsAllocationFree) {
  RENOC_REQUIRE_INSTRUMENTED();
  NocConfig cfg;
  cfg.dim = GridDim{4, 4};
  Fabric fabric(cfg);
  const int n = fabric.node_count();
  const GridDim dim = fabric.config().dim;
  auto pump = [&](int cycles) {
    for (int c = 0; c < cycles; ++c) {
      if (c % 6 == 0) {
        for (int src = 0; src < n; ++src) {
          const GridCoord co = index_to_coord(src, dim);
          Message m = fabric.acquire_message();
          m.src = src;
          m.dst = coord_to_index({(co.x + 1) % dim.width, co.y}, dim);
          m.tag = static_cast<std::uint64_t>(c);
          m.payload.assign(4, 0xa5a5a5a5ULL);
          fabric.send(std::move(m));
        }
      }
      fabric.step();
      for (int node = 0; node < n; ++node)
        while (auto msg = fabric.try_receive(node))
          fabric.recycle(std::move(*msg));
    }
  };
  pump(240);  // warm-up: pool, rings, staging at high water
  const AllocGuard guard;
  pump(240);
  guard.check_zero("warmed Fabric::step traffic loop");
  EXPECT_EQ(guard.count(), 0);
}

TEST(EngineAllocTest, WarmedDecodeIntoIsAllocationFree) {
  RENOC_REQUIRE_INSTRUMENTED();
  Rng code_rng(3);
  const LdpcCode code = LdpcCode::make_regular(510, 3, 6, code_rng);
  const LdpcEncoder encoder(code);
  Rng rng(5);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(encoder.k()));
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(2));
  AwgnChannel channel(2.5, 0.5, rng.split());
  const auto llrs = quantize_llrs(channel.transmit(encoder.encode(data)));

  for (const bool early_exit : {false, true}) {
    const MinSumDecoder decoder(code, 10, early_exit);
    DecodeResult result;
    decoder.decode_into(llrs, result);  // warm-up sizes hard_bits
    const AllocGuard guard;
    for (int i = 0; i < 8; ++i) decoder.decode_into(llrs, result);
    guard.check_zero(early_exit ? "warmed decode_into (early exit)"
                                : "warmed decode_into");
    EXPECT_EQ(guard.count(), 0);
  }
}

// The whole per-block BER pipeline, as every run_ber_sweep worker runs it:
// data draw, encode_into, transmit_into, quantize_llrs_into, decode_into,
// each into a reused buffer. After one warm-up block every buffer is at
// block size, so further blocks must not touch the heap.
TEST(EngineAllocTest, WarmedBerBlockPipelineIsAllocationFree) {
  RENOC_REQUIRE_INSTRUMENTED();
  Rng code_rng(3);
  const LdpcCode code = LdpcCode::make_regular(510, 3, 6, code_rng);
  const LdpcEncoder encoder(code);
  const MinSumDecoder decoder(code, 10, true);
  const double rate = static_cast<double>(encoder.k()) /
                      static_cast<double>(encoder.n());
  std::vector<std::uint8_t> data(static_cast<std::size_t>(encoder.k()));
  std::vector<std::uint64_t> words;
  std::vector<std::uint8_t> cw;
  std::vector<double> soft;
  std::vector<std::int16_t> llrs;
  DecodeResult result;
  int iterations_total = 0;
  const auto block = [&](std::uint64_t seed) {
    Rng rng(seed);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(2));
    encoder.encode_into(data, words, cw);
    AwgnChannel channel(2.0, rate, rng.split());
    channel.transmit_into(cw, soft);
    quantize_llrs_into(soft, llrs);
    decoder.decode_into(llrs, result);
    iterations_total += result.iterations_run;
  };
  block(100);  // warm-up sizes every buffer
  const AllocGuard guard;
  for (std::uint64_t seed = 101; seed < 109; ++seed) block(seed);
  guard.check_zero("warmed BER block pipeline");
  EXPECT_EQ(guard.count(), 0);
  EXPECT_GT(iterations_total, 0);
}

// A warmed NocLdpcDecoder::decode_block allocates exactly once per block:
// the hard-decision vector it returns. PE runtime state, the per-phase
// receive counts (one pre-sized array), message payloads (pool-backed),
// the fabric's rings, the block cache's fingerprint scratch and the flat
// decoder's workspace are all reused, so any further allocation here is a
// regression. Two cases: a warmed decoder's blocks are block-cache
// replays; and once the cache is full, blocks under a new placement are
// simulated without recording. The decoder has a private cache, so its
// counts do not depend on what other tests of this process decoded.
struct NocAllocBench {
  LdpcCode code;
  std::vector<std::int16_t> llrs;
  Fabric fabric;
  NocLdpcDecoder decoder;

  static LdpcNocParams params() {
    LdpcNocParams p;
    p.iterations = 4;
    return p;
  }
  static NocConfig mesh() {
    NocConfig cfg;
    cfg.dim = GridDim{4, 4};
    return cfg;
  }
  NocAllocBench()
      : code([] {
          Rng code_rng(3);
          return LdpcCode::make_regular(240, 3, 6, code_rng);
        }()),
        llrs([this] {
          const LdpcEncoder encoder(code);
          Rng rng(5);
          std::vector<std::uint8_t> data(
              static_cast<std::size_t>(encoder.k()));
          for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(2));
          AwgnChannel channel(2.5, 0.5, rng.split());
          return quantize_llrs(channel.transmit(encoder.encode(data)));
        }()),
        fabric(mesh()),
        decoder(fabric, code, make_striped_partition(code, 16),
                identity_permutation(16), params(),
                std::make_shared<BlockCache>()) {}

  /// Allocations of `blocks` decode_block calls.
  long long count_blocks(int blocks) {
    const AllocGuard guard;
    for (int b = 0; b < blocks; ++b) (void)decoder.decode_block(llrs);
    return guard.count();
  }
};

TEST(EngineAllocTest, WarmedNocDecodeBlockAllocations) {
  RENOC_REQUIRE_INSTRUMENTED();
  NocAllocBench nb;
  // Warm-up: payload buffers circulate through the fabric's LIFO pool, so
  // it takes several blocks until every buffer has grown to the largest
  // message size (about ten here; a block then allocates exactly once).
  for (int b = 0; b < 12; ++b) (void)nb.decoder.decode_block(nb.llrs);
  constexpr int kBlocks = 4;
  const std::uint64_t replayed = nb.decoder.replayed_blocks();
  EXPECT_EQ(nb.count_blocks(kBlocks), kBlocks)
      << "one allocation per block expected (the returned hard_bits)";
  EXPECT_EQ(nb.decoder.replayed_blocks(), replayed + kBlocks)
      << "warmed blocks are block-cache replays";
}

TEST(EngineAllocTest, WarmedSimulatedNocDecodeBlockAllocations) {
  RENOC_REQUIRE_INSTRUMENTED();
  NocAllocBench nb;
  // Fill the block cache: cyclic shifts of the placement, a few blocks
  // each, until every entry is taken.
  std::vector<int> placement(16);
  int shift = 0;
  while (nb.decoder.cached_blocks() < NocLdpcDecoder::kBlockCacheCap) {
    ASSERT_LT(++shift, 16) << "ran out of placements to fill the cache";
    for (int c = 0; c < 16; ++c)
      placement[static_cast<std::size_t>(c)] = (c + shift) % 16;
    nb.decoder.set_placement(placement);
    for (int b = 0; b < 3; ++b) (void)nb.decoder.decode_block(nb.llrs);
  }
  // A placement the cache has never seen: every block simulates.
  std::reverse(placement.begin(), placement.end());
  nb.decoder.set_placement(placement);
  for (int b = 0; b < 12; ++b) (void)nb.decoder.decode_block(nb.llrs);
  constexpr int kBlocks = 4;
  const std::uint64_t simulated = nb.decoder.simulated_blocks();
  const std::uint64_t replayed = nb.decoder.replayed_blocks();
  EXPECT_EQ(nb.count_blocks(kBlocks), kBlocks)
      << "one allocation per block expected (the returned hard_bits)";
  EXPECT_EQ(nb.decoder.simulated_blocks(), simulated + kBlocks);
  EXPECT_EQ(nb.decoder.replayed_blocks(), replayed);
}

/// 4x4-tile die subdivided refine x refine (as RefinedThermalModel builds
/// it): refine=1 -> 58 nodes, refine=2 -> 202 nodes. Both sizes must hold
/// the zero-allocation contract once warmed.
RcNetwork runtime_net(int refine) {
  const int side = 4 * refine;
  return build_rc_network(
      make_grid_floorplan(GridDim{side, side},
                          date05_tile_area() /
                              (static_cast<double>(refine) * refine)),
      date05_hotspot_params());
}

TEST(EngineAllocTest, WarmedMigrationRuntimeRunIsAllocationFree) {
  RENOC_REQUIRE_INSTRUMENTED();
  for (const int refine : {1, 2}) {
    const RcNetwork net = runtime_net(refine);
    const int side = 4 * refine;
    const double tiles = static_cast<double>(refine) * refine;
    std::vector<double> power(static_cast<std::size_t>(net.die_count()),
                              2.0 / tiles);
    power[0] = 9.0 / tiles;
    const auto orbit = orbit_permutations(
        Transform{TransformKind::kRotation, 0}, GridDim{side, side});
    const std::vector<std::vector<double>> energy(
        orbit.size(),
        std::vector<double>(static_cast<std::size_t>(net.die_count()),
                            200e-6 / net.die_count()));

    const MigrationThermalRuntime engine(net, ThermalRunOptions{});
    (void)engine.run(power, orbit, energy);  // builds + warms the engine
    const AllocGuard guard;
    for (int i = 0; i < 3; ++i) (void)engine.run(power, orbit, energy);
    guard.check_zero(refine == 1
                         ? "warmed MigrationThermalRuntime::run (58 nodes)"
                         : "warmed MigrationThermalRuntime::run (202 nodes)");
    EXPECT_EQ(guard.count(), 0);
  }
}

TEST(EngineAllocTest, WarmedSparseSolvePathsAreAllocationFree) {
  RENOC_REQUIRE_INSTRUMENTED();
  const RcNetwork net = runtime_net(2);
  std::vector<double> power(static_cast<std::size_t>(net.die_count()), 2.0);
  power[0] = 9.0;
  const SteadyStateSolver steady(net);
  TransientSolver transient(net, 2e-6);
  const std::vector<double> full = net.expand_die_power(power);

  std::vector<double> rise;
  steady.solve_die_power_into(power, rise);  // warm-up sizes the buffer
  transient.step(full);
  const AllocGuard guard;
  for (int i = 0; i < 8; ++i) {
    steady.solve_die_power_into(power, rise);
    transient.step(full);
  }
  guard.check_zero("warmed sparse solve_die_power_into/step");
  EXPECT_EQ(guard.count(), 0);
}

}  // namespace
}  // namespace renoc
