// Multithreaded Monte-Carlo BER harness.
//
// Sweeps Eb/N0 points, transmitting encoded random blocks through the AWGN
// channel and decoding them with the flat min-sum engine, spread over
// std::thread workers. Determinism is the design center:
//
//   - every block of every sweep point gets its own RNG stream, derived
//     statelessly from (config seed, point index, block index) by a
//     SplitMix64 chain — never from the worker that happens to run it;
//   - workers pull (point, block) jobs from a shared atomic cursor and
//     accumulate counts into private accumulators;
//   - the merge is a plain sum of per-worker counts, which is order- and
//     schedule-independent.
//
// Result: run_ber_sweep() returns bit-identical counts for any thread
// count, so a 4-thread sweep is a drop-in replacement for the serial one —
// the property the determinism test and the bench guard pin.
//
// Each worker owns a private MinSumDecoder (decoder workspaces are not
// shareable across threads), a reused DecodeResult, and reused buffers for
// every stage of block generation (data draw, encode_into, transmit_into,
// quantize_llrs_into), so the warmed block pipeline performs no heap
// allocation. The shared LdpcEncoder is immutable and needs no per-worker
// copy.
#pragma once

#include <cstdint>
#include <vector>

#include "ldpc/code.hpp"
#include "ldpc/encoder.hpp"
#include "util/rng.hpp"
#include "util/sweep.hpp"

namespace renoc {

struct BerConfig {
  std::vector<double> ebn0_db;  ///< sweep points (one BerPoint per entry)
  int blocks_per_point = 100;
  int iterations = 10;       ///< decoder iterations per block
  bool early_exit = true;    ///< stop a block on zero syndrome
  int threads = 1;           ///< worker thread count (>= 1)
  std::uint64_t seed = 1;    ///< master seed for all per-block streams
  /// Codewords decoded per kernel pass (1..64). 1 keeps the scalar
  /// MinSumDecoder path; >1 routes workers through MinSumBatchDecoder,
  /// grabbing `batch_size` consecutive jobs per cursor bump. Because each
  /// block's stream still derives statelessly from (seed, point, block)
  /// and every lane is bit-identical to a scalar decode, the returned
  /// counts are invariant in batch_size as well as in threads.
  int batch_size = 1;

  void validate() const;
};

struct BerPoint {
  double ebn0_db = 0.0;
  std::int64_t blocks = 0;
  std::int64_t bits = 0;              ///< total codeword bits transmitted
  std::int64_t bit_errors = 0;
  std::int64_t block_errors = 0;      ///< blocks with any bit error
  std::int64_t iterations_total = 0;  ///< sum of iterations_run

  double ber() const {
    return bits > 0 ? static_cast<double>(bit_errors) /
                          static_cast<double>(bits)
                    : 0.0;
  }
  double bler() const {
    return blocks > 0 ? static_cast<double>(block_errors) /
                            static_cast<double>(blocks)
                      : 0.0;
  }
  double avg_iterations() const {
    return blocks > 0 ? static_cast<double>(iterations_total) /
                            static_cast<double>(blocks)
                      : 0.0;
  }
};

/// Runs the sweep; returns one BerPoint per cfg.ebn0_db entry, independent
/// of cfg.threads. The encoder must belong to `code`.
std::vector<BerPoint> run_ber_sweep(const LdpcCode& code,
                                    const LdpcEncoder& encoder,
                                    const BerConfig& cfg);

/// The RNG stream the sweep uses for block `block` of sweep point `point`
/// — exposed so examples/tests can regenerate the exact blocks a sweep
/// measured (e.g. to re-decode them on the NoC decoder and compare).
/// O(1): the stream seed is a stateless mix of the three coordinates.
Rng ber_block_rng(std::uint64_t seed, int point, int block);

/// Sweep-service spec for the same sweep: one scenario per (point, block)
/// job (scenario = point * blocks_per_point + block — the exact job index
/// run_ber_sweep enumerates), 4-word records {bits, bit_errors,
/// block_error, iterations_run}. Scenario streams and decode results are
/// bit-identical to run_ber_sweep's, so ber_points_from_records() of a
/// service run equals run_ber_sweep() exactly, for any shard split or
/// resume schedule. `code`, `encoder`, and `cfg` must outlive the spec.
sweep::SweepSpec make_ber_sweep_spec(const LdpcCode& code,
                                     const LdpcEncoder& encoder,
                                     const BerConfig& cfg);

/// Folds a merged service run back into run_ber_sweep()'s result shape.
/// Only kCompleted records contribute (a partial run yields partial
/// counts; the caller sees what is missing in MergeResult::incomplete).
std::vector<BerPoint> ber_points_from_records(
    const BerConfig& cfg,
    const std::vector<sweep::ScenarioRecord>& records);

}  // namespace renoc
