// Multithreaded Monte-Carlo BER harness.
//
// Sweeps Eb/N0 points, transmitting encoded random blocks through the AWGN
// channel and decoding them with the flat min-sum engine. The sweep is one
// util/sweep spec (make_ber_sweep_spec): one scenario per (point, block)
// job, a 4-word record per block. run_ber_sweep() runs that spec in
// process (one shard, no checkpoint, cfg.threads workers) and folds the
// records into per-point counts; tools/renoc_sweep runs the same spec
// sharded and checkpointed. Determinism is the design center:
//
//   - every block of every sweep point gets its own RNG stream, derived
//     statelessly from (config seed, point index, block index) by a
//     SplitMix64 chain — never from the worker, claim, or shard that
//     happens to run it;
//   - workers claim cfg.batch_size consecutive jobs per cursor bump; a
//     claim wider than one is decoded lane-per-codeword by
//     MinSumBatchDecoder, a claim of one by MinSumDecoder, and every lane
//     is bit-identical to a scalar decode;
//   - each block's counts are its own record, and the per-point fold in
//     ber_points_from_records() is a sum keyed by scenario index.
//
// Result: run_ber_sweep() returns bit-identical counts for any thread
// count, batch size, shard split, or resume schedule — the property the
// determinism tests and the bench guards pin.
//
// Each worker owns private decoders (decoder workspaces are not shareable
// across threads), reused DecodeResults, and reused buffers for every
// stage of block generation (data draw, encode_into, transmit_into,
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
  /// Codewords decoded per kernel pass (1..64): the spec's claim width.
  /// 1 keeps the scalar MinSumDecoder path; >1 has workers claim
  /// `batch_size` consecutive jobs per cursor bump and decode them through
  /// MinSumBatchDecoder. Because each block's stream still derives
  /// statelessly from (seed, point, block) and every lane is bit-identical
  /// to a scalar decode, the returned counts are invariant in batch_size
  /// as well as in threads.
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

/// Runs the sweep in process: make_ber_sweep_spec, one run_sweep_shard
/// call (one shard, no checkpoint, cfg.threads workers, the first error
/// rethrown), then ber_points_from_records. Returns one BerPoint per
/// cfg.ebn0_db entry, independent of cfg.threads and cfg.batch_size. The
/// encoder must belong to `code`.
std::vector<BerPoint> run_ber_sweep(const LdpcCode& code,
                                    const LdpcEncoder& encoder,
                                    const BerConfig& cfg);

/// The RNG stream the sweep uses for block `block` of sweep point `point`
/// — exposed so examples/tests can regenerate the exact blocks a sweep
/// measured (e.g. to re-decode them on the NoC decoder and compare).
/// O(1): the stream seed is a stateless mix of the three coordinates.
Rng ber_block_rng(std::uint64_t seed, int point, int block);

/// The sweep as a util/sweep spec: one scenario per (point, block) job
/// (scenario = point * blocks_per_point + block), 4-word records {bits,
/// bit_errors, block_error, iterations_run}, claim width
/// cfg.batch_size. ber_points_from_records() of any shard split or resume
/// schedule equals run_ber_sweep() exactly. `code`, `encoder`, and `cfg`
/// must outlive the spec.
sweep::SweepSpec make_ber_sweep_spec(const LdpcCode& code,
                                     const LdpcEncoder& encoder,
                                     const BerConfig& cfg);

/// Folds the records of a run (merged or single-shard) into per-point
/// counts.
/// Only kCompleted records contribute (a partial run yields partial
/// counts; the caller sees what is missing in MergeResult::incomplete).
std::vector<BerPoint> ber_points_from_records(
    const BerConfig& cfg,
    const std::vector<sweep::ScenarioRecord>& records);

}  // namespace renoc
