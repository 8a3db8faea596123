// Times NocLdpcDecoder::decode_block both ways its block cache can run a
// block, for the self-timing benches (micro_noc, micro_ldpc).
//
// A decoder replays a block whose (placement, arbitration fingerprint) its
// block cache holds, so timing a warmed decoder would time replays. The
// two columns are therefore measured separately, each decoder with a
// private cache (a shared one would carry what the process decoded before):
//   simulated  a fresh decoder (empty cache: always a miss) on a copy of a
//              settled fabric, simulating the block cycle by cycle; the
//              copy and the decoder are built outside the timed region
//   replayed   the decoder that settled the fabric, whose every further
//              block is a hit
// Both paths' hard bits must equal the golden decoder's.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "bench_timing.hpp"
#include "ldpc/decoder.hpp"
#include "ldpc/noc_decoder.hpp"
#include "noc/fabric.hpp"

namespace renoc::bench {

struct NocDecodeTiming {
  Cycle cycles = 0;            ///< fabric cycles per block
  double simulated_ms = 0.0;   ///< best-of-N, a simulated block
  double replayed_ms = 0.0;    ///< best-of-N, a replayed block
  double skipped_share = 0.0;  ///< simulated cycles advanced by advance_idle
  /// Both paths decoded the golden decoder's bits in the same cycles, and
  /// each ran the path it was meant to time.
  bool golden_match = false;
};

inline NocDecodeTiming time_noc_decode(const NocConfig& noc,
                                       const LdpcCode& code,
                                       const Partition& partition,
                                       const std::vector<int>& placement,
                                       const LdpcNocParams& params,
                                       const std::vector<std::int16_t>& llrs,
                                       double budget_ms) {
  Fabric fabric(noc);
  NocLdpcDecoder warmed(fabric, code, partition, placement, params,
                        std::make_shared<BlockCache>());
  // Warm until a block replays: from then on the fabric cycles through
  // fingerprints the decoder has all recorded (the fresh-fabric one and the
  // one or few the blocks settle into are each simulated once).
  constexpr std::uint64_t kMaxWarmBlocks = 64;
  while (warmed.replayed_blocks() == 0 &&
         warmed.simulated_blocks() < kMaxWarmBlocks)
    (void)warmed.decode_block(llrs);
  const std::uint64_t warm_misses = warmed.simulated_blocks();

  NocDecodeTiming t;
  std::optional<Fabric> sim_fabric;
  std::optional<NocLdpcDecoder> sim;
  NocDecodeResult simulated;
  t.simulated_ms = time_ms(
      budget_ms,
      [&] {
        sim.reset();
        sim_fabric.emplace(fabric);
        sim.emplace(*sim_fabric, code, partition, placement, params,
                    std::make_shared<BlockCache>());
      },
      [&] { simulated = sim->decode_block(llrs); });
  t.cycles = simulated.cycles;
  t.skipped_share =
      static_cast<double>(sim_fabric->skipped_cycles() -
                          fabric.skipped_cycles()) /
      static_cast<double>(simulated.cycles);

  NocDecodeResult replayed;
  t.replayed_ms =
      time_ms(budget_ms, [&] { replayed = warmed.decode_block(llrs); });

  const MinSumDecoder golden(code, params.iterations);
  const std::vector<std::uint8_t> bits = golden.decode(llrs).hard_bits;
  t.golden_match = simulated.hard_bits == bits &&
                   replayed.hard_bits == bits &&
                   replayed.cycles == simulated.cycles &&
                   sim->simulated_blocks() == 1 &&
                   warmed.simulated_blocks() == warm_misses &&
                   warmed.replayed_blocks() > 1;
  return t;
}

}  // namespace renoc::bench
