// Tests for the multithreaded Monte-Carlo BER harness.
//
// The harness's design center is schedule-independence: per-block RNG
// streams are derived up front from (seed, point, block), workers only pull
// jobs and sum private counters, so the reported counts must be identical
// for any thread count. This suite pins that property, the ber_block_rng
// replay contract, the serial-decode ground truth, and the config
// validation.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ldpc/ber_harness.hpp"
#include "ldpc/channel.hpp"
#include "ldpc/decoder.hpp"
#include "ldpc/encoder.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace renoc {
namespace {

struct BerFixture {
  LdpcCode code;
  LdpcEncoder encoder;

  BerFixture()
      : code([] {
          Rng rng(3);
          return LdpcCode::make_regular(240, 3, 6, rng);
        }()),
        encoder(code) {}
};

BerConfig small_config() {
  BerConfig cfg;
  cfg.ebn0_db = {1.0, 3.0};
  cfg.blocks_per_point = 10;
  cfg.iterations = 6;
  cfg.early_exit = true;
  cfg.seed = 77;
  return cfg;
}

void expect_points_equal(const std::vector<BerPoint>& a,
                         const std::vector<BerPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].blocks, b[i].blocks);
    EXPECT_EQ(a[i].bits, b[i].bits);
    EXPECT_EQ(a[i].bit_errors, b[i].bit_errors);
    EXPECT_EQ(a[i].block_errors, b[i].block_errors);
    EXPECT_EQ(a[i].iterations_total, b[i].iterations_total);
  }
}

TEST(BerHarnessTest, CountsIndependentOfThreadCount) {
  const BerFixture f;
  BerConfig cfg = small_config();
  cfg.threads = 1;
  const auto serial = run_ber_sweep(f.code, f.encoder, cfg);
  for (int threads : {2, 4, 7}) {
    cfg.threads = threads;
    expect_points_equal(serial, run_ber_sweep(f.code, f.encoder, cfg));
  }
}

TEST(BerHarnessTest, PointBookkeepingIsExact) {
  const BerFixture f;
  BerConfig cfg = small_config();
  cfg.threads = 4;
  const auto points = run_ber_sweep(f.code, f.encoder, cfg);
  ASSERT_EQ(points.size(), cfg.ebn0_db.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    EXPECT_DOUBLE_EQ(points[p].ebn0_db, cfg.ebn0_db[p]);
    EXPECT_EQ(points[p].blocks, cfg.blocks_per_point);
    EXPECT_EQ(points[p].bits,
              static_cast<std::int64_t>(cfg.blocks_per_point) * f.code.n());
    EXPECT_LE(points[p].block_errors, points[p].blocks);
    EXPECT_LE(points[p].bit_errors, points[p].bits);
    EXPECT_GE(points[p].iterations_total, points[p].blocks);
    EXPECT_LE(points[p].iterations_total,
              static_cast<std::int64_t>(cfg.blocks_per_point) *
                  cfg.iterations);
  }
  // More noise cannot give fewer errors on this spread (1 dB vs 3 dB).
  EXPECT_GE(points[0].bit_errors, points[1].bit_errors);
}

TEST(BerHarnessTest, BlockRngReplaysSweepBlocks) {
  // Decoding the replayed blocks serially must reproduce the sweep's
  // counts bit for bit — this is the contract the BER-under-migration
  // example leans on to re-decode the measured blocks on the NoC.
  const BerFixture f;
  BerConfig cfg = small_config();
  cfg.threads = 3;
  const auto points = run_ber_sweep(f.code, f.encoder, cfg);

  const double rate = static_cast<double>(f.encoder.k()) /
                      static_cast<double>(f.encoder.n());
  for (std::size_t p = 0; p < points.size(); ++p) {
    const MinSumDecoder decoder(f.code, cfg.iterations, cfg.early_exit);
    std::int64_t bit_errors = 0, iterations_total = 0;
    for (int b = 0; b < cfg.blocks_per_point; ++b) {
      Rng rng = ber_block_rng(cfg.seed, static_cast<int>(p), b);
      std::vector<std::uint8_t> data(static_cast<std::size_t>(f.encoder.k()));
      for (auto& bit : data)
        bit = static_cast<std::uint8_t>(rng.next_below(2));
      const auto cw = f.encoder.encode(data);
      AwgnChannel channel(cfg.ebn0_db[p], rate, rng.split());
      const DecodeResult result =
          decoder.decode(quantize_llrs(channel.transmit(cw)));
      for (std::size_t i = 0; i < cw.size(); ++i)
        bit_errors += result.hard_bits[i] != cw[i];
      iterations_total += result.iterations_run;
    }
    EXPECT_EQ(bit_errors, points[p].bit_errors);
    EXPECT_EQ(iterations_total, points[p].iterations_total);
  }
}

TEST(BerHarnessTest, MoreThreadsThanJobsIsFine) {
  const BerFixture f;
  BerConfig cfg = small_config();
  cfg.ebn0_db = {2.0};
  cfg.blocks_per_point = 3;
  cfg.threads = 16;  // workers are capped at the job count
  const auto many = run_ber_sweep(f.code, f.encoder, cfg);
  cfg.threads = 1;
  expect_points_equal(run_ber_sweep(f.code, f.encoder, cfg), many);
}

TEST(BerHarnessTest, CountsIndependentOfBatchWidth) {
  // Batched decoding is a pure throughput knob: every lane is bit-identical
  // to a scalar decode and the job->stream mapping ignores batching, so any
  // (batch_size, threads) combination must reproduce the serial counts —
  // including widths that do not divide the job count (tail batches) and
  // batches that straddle the Eb/N0-point boundary.
  const BerFixture f;
  BerConfig cfg = small_config();
  cfg.threads = 1;
  cfg.batch_size = 1;
  const auto serial = run_ber_sweep(f.code, f.encoder, cfg);
  for (const int batch : {3, 4, 8}) {
    for (const int threads : {1, 2, 4}) {
      cfg.batch_size = batch;
      cfg.threads = threads;
      SCOPED_TRACE("batch " + std::to_string(batch) + " threads " +
                   std::to_string(threads));
      expect_points_equal(serial, run_ber_sweep(f.code, f.encoder, cfg));
    }
  }
}

TEST(BerHarnessTest, PinnedCountsForFixedCodeAndSeed) {
  // Absolute counts recorded before the word-parallel encoder landed. Any
  // change to the codewords, the per-block RNG draws, the channel, the
  // quantizer or the decoder moves at least one of these, so a
  // bit-identity break fails here rather than only in the benchmark
  // digests. Both the scalar and the batched worker must hit them.
  const BerFixture f;
  BerConfig cfg = small_config();
  cfg.ebn0_db = {1.0, 2.0, 3.0};
  cfg.blocks_per_point = 16;
  struct Pinned {
    std::int64_t bit_errors, block_errors, iterations_total;
  };
  const Pinned pinned[] = {{309, 16, 96}, {111, 12, 94}, {15, 4, 71}};
  for (const int batch : {1, 8}) {
    cfg.batch_size = batch;
    cfg.threads = 2;
    SCOPED_TRACE("batch " + std::to_string(batch));
    const auto points = run_ber_sweep(f.code, f.encoder, cfg);
    ASSERT_EQ(points.size(), 3u);
    for (std::size_t p = 0; p < points.size(); ++p) {
      EXPECT_EQ(points[p].blocks, 16);
      EXPECT_EQ(points[p].bits, 16 * 240);
      EXPECT_EQ(points[p].bit_errors, pinned[p].bit_errors) << "point " << p;
      EXPECT_EQ(points[p].block_errors, pinned[p].block_errors)
          << "point " << p;
      EXPECT_EQ(points[p].iterations_total, pinned[p].iterations_total)
          << "point " << p;
    }
  }
}

TEST(BerHarnessTest, ValidatesConfig) {
  const BerFixture f;
  BerConfig cfg = small_config();
  cfg.ebn0_db.clear();
  EXPECT_THROW(run_ber_sweep(f.code, f.encoder, cfg), CheckError);
  cfg = small_config();
  cfg.blocks_per_point = 0;
  EXPECT_THROW(run_ber_sweep(f.code, f.encoder, cfg), CheckError);
  cfg = small_config();
  cfg.threads = 0;
  EXPECT_THROW(run_ber_sweep(f.code, f.encoder, cfg), CheckError);
  cfg = small_config();
  cfg.iterations = 0;
  EXPECT_THROW(run_ber_sweep(f.code, f.encoder, cfg), CheckError);
  cfg = small_config();
  cfg.batch_size = 0;
  EXPECT_THROW(run_ber_sweep(f.code, f.encoder, cfg), CheckError);
  cfg = small_config();
  cfg.batch_size = 65;
  EXPECT_THROW(run_ber_sweep(f.code, f.encoder, cfg), CheckError);
}

TEST(BerHarnessTest, BlockStreamsDistinctAcrossCoordinates) {
  // The stream seed must depend on all three coordinates. (Aggregate
  // error *counts* of two sweeps can legitimately collide, so the
  // property is pinned on the streams themselves.)
  const auto first_u64 = [](std::uint64_t seed, int point, int block) {
    return ber_block_rng(seed, point, block).next_u64();
  };
  EXPECT_NE(first_u64(77, 0, 0), first_u64(78, 0, 0));
  EXPECT_NE(first_u64(77, 0, 0), first_u64(77, 1, 0));
  EXPECT_NE(first_u64(77, 0, 0), first_u64(77, 0, 1));
  EXPECT_NE(first_u64(77, 1, 0), first_u64(77, 0, 1));
}

}  // namespace
}  // namespace renoc
