// Decode quality is untouched by migration: a BER sweep with and without
// runtime reconfiguration.
//
// The functional half of the paper's claim: migration moves state between
// PEs mid-stream, yet every block must decode exactly as a monolithic
// decoder would. The sweep itself runs on the multithreaded Monte-Carlo
// harness (run_ber_sweep, 4 workers); ber_block_rng() then regenerates the
// exact blocks the harness measured so the NoC decoder — plain and
// migrating after every block — can re-decode them and prove identical
// error counts, while also reporting decoded throughput with and without
// migration.
//
// The decoders below have equal inputs, so they share one block cache
// (across Eb/N0 points too) and replay a block once its (placement,
// arbitration fingerprint) repeats (see ldpc/noc_decoder.hpp); a replayed
// block's bits come from the flat min-sum decoder. So the plain decoder
// below mostly checks the flat decoder against the golden sweep. The proof
// that the distributed decode equals the flat one lives in the
// NocDecoderEquivalence and NocDecoderReplay tests, and is repeated on
// every cache miss: each distinct key is simulated cycle by cycle once.
#include <cstdio>
#include <vector>

#include "core/chip_config.hpp"
#include "core/migration_controller.hpp"
#include "ldpc/ber_harness.hpp"
#include "ldpc/channel.hpp"
#include "ldpc/encoder.hpp"
#include "ldpc/noc_decoder.hpp"
#include "noc/fabric.hpp"
#include "util/check.hpp"

namespace renoc {
namespace {

int run() {
  // A small chip so the sweep stays quick: 4x4 mesh, n=510 code.
  Rng code_rng(7);
  const LdpcCode code = LdpcCode::make_regular(510, 3, 6, code_rng);
  const LdpcEncoder encoder(code);
  const Partition partition = make_striped_partition(code, 16);
  LdpcNocParams params;
  params.iterations = 8;

  BerConfig cfg;
  cfg.ebn0_db = {0.0, 1.0, 2.0, 3.0, 4.0};
  cfg.blocks_per_point = 6;
  cfg.iterations = params.iterations;
  // The NoC decoder always runs the full iteration budget, so the golden
  // sweep must too for the per-block comparison below to be exact.
  cfg.early_exit = false;
  cfg.threads = 4;
  cfg.seed = 2026;
  const std::vector<BerPoint> sweep = run_ber_sweep(code, encoder, cfg);

  const double rate =
      static_cast<double>(encoder.k()) / static_cast<double>(encoder.n());

  std::printf("Eb/N0   golden-BER   noc-BER     noc+mig-BER  blocks  "
              "cycles/blk  cycles/blk+mig\n");
  for (std::size_t p = 0; p < sweep.size(); ++p) {
    const BerPoint& pt = sweep[p];

    Fabric fabric_plain({GridDim{4, 4}});
    NocLdpcDecoder plain(fabric_plain, code, partition,
                         identity_permutation(16), params);

    Fabric fabric_mig({GridDim{4, 4}});
    NocLdpcDecoder migrating(fabric_mig, code, partition,
                             identity_permutation(16), params);
    MigrationController controller(fabric_mig,
                                   transform_of(MigrationScheme::kShiftXY));
    std::vector<int> placement = identity_permutation(16);
    std::vector<int> state_words(16);
    for (int c = 0; c < 16; ++c)
      state_words[static_cast<std::size_t>(c)] =
          migrating.migration_state_words(c);

    // Re-decode the harness's exact blocks on the NoC: ber_block_rng
    // replays the per-block RNG stream of (seed, point, block), so the
    // codewords and noise here are bit-identical to what the 4-thread
    // sweep above measured.
    long plain_errs = 0, mig_errs = 0;
    Cycle plain_cycles = 0;
    Cycle mig_cycles_with_halt = 0;
    for (int b = 0; b < cfg.blocks_per_point; ++b) {
      Rng rng = ber_block_rng(cfg.seed, static_cast<int>(p), b);
      std::vector<std::uint8_t> data(static_cast<std::size_t>(encoder.k()));
      for (auto& bit : data)
        bit = static_cast<std::uint8_t>(rng.next_below(2));
      const auto cw = encoder.encode(data);
      AwgnChannel channel(pt.ebn0_db, rate, rng.split());
      const auto llrs = quantize_llrs(channel.transmit(cw));

      const NocDecodeResult pr = plain.decode_block(llrs);
      const Cycle mig_start = fabric_mig.now();
      const NocDecodeResult m = migrating.decode_block(llrs);
      // Migrate after every block in the migrating system.
      controller.migrate(placement, state_words);
      migrating.set_placement(placement);
      mig_cycles_with_halt += fabric_mig.now() - mig_start;
      plain_cycles += pr.cycles;

      RENOC_CHECK_MSG(m.hard_bits == pr.hard_bits,
                      "migrating decoder diverged from plain NoC decoder");
      for (std::size_t i = 0; i < cw.size(); ++i) {
        plain_errs += pr.hard_bits[i] != cw[i];
        mig_errs += m.hard_bits[i] != cw[i];
      }
    }
    // The NoC decode of the replayed blocks must reproduce the golden
    // sweep's error count exactly — the distributed decoder is
    // bit-identical, and the harness's counts are thread-count-invariant.
    RENOC_CHECK_MSG(plain_errs == pt.bit_errors,
                    "NoC error count diverged from the golden sweep");

    const double total_bits = static_cast<double>(pt.bits);
    std::printf("%5.1f   %.3e   %.3e   %.3e    %lld      %llu       %llu\n",
                pt.ebn0_db,
                static_cast<double>(pt.bit_errors) / total_bits,
                static_cast<double>(plain_errs) / total_bits,
                static_cast<double>(mig_errs) / total_bits,
                static_cast<long long>(pt.blocks),
                static_cast<unsigned long long>(
                    plain_cycles / static_cast<Cycle>(cfg.blocks_per_point)),
                static_cast<unsigned long long>(
                    mig_cycles_with_halt /
                    static_cast<Cycle>(cfg.blocks_per_point)));
  }
  std::printf("\nall three BER columns are identical by construction — "
              "migration never changes decode results, and the threaded "
              "sweep never changes counts.\n");
  return 0;
}

}  // namespace
}  // namespace renoc

int main() { return renoc::run(); }
