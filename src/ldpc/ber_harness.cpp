#include "ldpc/ber_harness.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

#include "ldpc/channel.hpp"
#include "ldpc/decoder.hpp"
#include "util/check.hpp"

namespace renoc {

void BerConfig::validate() const {
  // Axis and thread checks come from util/sweep so all three harnesses
  // fail with the same pinned messages (sweep_test asserts on them).
  sweep::require_axis(!ebn0_db.empty(), "Eb/N0");
  RENOC_CHECK(blocks_per_point >= 1);
  RENOC_CHECK(iterations >= 1);
  sweep::require_threads(threads);
  RENOC_CHECK_MSG(batch_size >= 1 && batch_size <= 64,
                  "batch_size " << batch_size << " outside 1..64");
}

Rng ber_block_rng(std::uint64_t seed, int point, int block) {
  RENOC_CHECK(point >= 0 && block >= 0);
  // Stateless derivation — two chained SplitMix64 steps fold the sweep
  // coordinates into the master seed, so any block of any point is
  // reachable in O(1): the sweep never materializes a seed table, replaying
  // a whole point is linear, and the job space is not bounded by memory.
  return Rng(derive_stream_seed(
      derive_stream_seed(seed, static_cast<std::uint64_t>(point)),
      static_cast<std::uint64_t>(block)));
}

namespace {

// One worker's block generator: the job grid plus reusable buffers for
// every stage of a block, so a warmed generate() allocates nothing. All
// three BER paths (run_ber_sweep's scalar and batch workers and the
// sweep-service runner) regenerate blocks through this one class.
class BlockSource {
 public:
  BlockSource(const LdpcEncoder& encoder, const BerConfig& cfg)
      : encoder_(encoder),
        cfg_(cfg),
        shape_{static_cast<std::int64_t>(cfg.ebn0_db.size()),
               cfg.blocks_per_point},
        rate_(static_cast<double>(encoder.k()) /
              static_cast<double>(encoder.n())),
        data_(static_cast<std::size_t>(encoder.k())) {}

  /// Regenerates job `job`'s block — data bits, codeword `cw`, quantized
  /// channel LLRs `llrs` — from the job's own stateless stream, and returns
  /// its sweep point. The job space is the row-major {points, blocks}
  /// grid, so the stream a block sees depends only on its (point, block)
  /// coordinates, never on which worker (or batch lane) runs it.
  int generate(std::int64_t job, std::vector<std::uint8_t>& cw,
               std::vector<std::int16_t>& llrs) {
    sweep::decode_scenario_index(job, shape_, digits_);
    const int p = static_cast<int>(digits_[0]);
    const int b = static_cast<int>(digits_[1]);
    Rng rng = ber_block_rng(cfg_.seed, p, b);
    for (auto& bit : data_)
      bit = static_cast<std::uint8_t>(rng.next_below(2));
    encoder_.encode_into(data_, words_, cw);
    AwgnChannel channel(cfg_.ebn0_db[static_cast<std::size_t>(p)], rate_,
                        rng.split());
    channel.transmit_into(cw, soft_);
    quantize_llrs_into(soft_, llrs);
    return p;
  }

 private:
  const LdpcEncoder& encoder_;
  const BerConfig& cfg_;
  const std::vector<std::int64_t> shape_;
  const double rate_;
  std::vector<std::int64_t> digits_;
  std::vector<std::uint8_t> data_;
  std::vector<std::uint64_t> words_;  // encoder bit buffer
  std::vector<double> soft_;          // unquantized channel LLRs
};

std::int64_t count_bit_errors(const std::vector<std::uint8_t>& cw,
                              const DecodeResult& result) {
  std::int64_t errs = 0;
  for (std::size_t i = 0; i < cw.size(); ++i)
    errs += result.hard_bits[i] != cw[i];
  return errs;
}

}  // namespace

std::vector<BerPoint> run_ber_sweep(const LdpcCode& code,
                                    const LdpcEncoder& encoder,
                                    const BerConfig& cfg) {
  cfg.validate();
  RENOC_CHECK_MSG(encoder.n() == code.n(), "encoder does not match code");

  const int points = static_cast<int>(cfg.ebn0_db.size());
  const std::int64_t total_jobs =
      static_cast<std::int64_t>(points) *
      static_cast<std::int64_t>(cfg.blocks_per_point);
  std::atomic<std::int64_t> cursor{0};

  const auto accumulate = [&code](BerPoint& pt,
                                  const std::vector<std::uint8_t>& cw,
                                  const DecodeResult& result) {
    const std::int64_t errs = count_bit_errors(cw, result);
    ++pt.blocks;
    pt.bits += code.n();
    pt.bit_errors += errs;
    pt.block_errors += errs > 0;
    pt.iterations_total += result.iterations_run;
  };

  // Each worker decodes with a private decoder/result (decoder workspaces
  // are single-threaded) and counts into a private accumulator; the merge
  // below is a plain sum, so any schedule yields identical totals.
  auto worker = [&](std::vector<BerPoint>& acc) {
    acc.assign(static_cast<std::size_t>(points), BerPoint{});
    const MinSumDecoder decoder(code, cfg.iterations, cfg.early_exit);
    BlockSource source(encoder, cfg);
    DecodeResult result;
    std::vector<std::uint8_t> cw;
    std::vector<std::int16_t> llrs;
    for (;;) {
      const std::int64_t job = cursor.fetch_add(1, std::memory_order_relaxed);
      if (job >= total_jobs) break;
      const int p = source.generate(job, cw, llrs);
      decoder.decode_into(llrs, result);
      accumulate(acc[static_cast<std::size_t>(p)], cw, result);
    }
  };

  // Batched worker: grabs batch_size consecutive jobs per cursor bump and
  // streams them lane-per-codeword through the batch decoder. Lanes are
  // fully independent (a batch may even straddle an Eb/N0-point boundary)
  // and each is bit-identical to a scalar decode, so the merged counts
  // match the batch_size=1 path exactly at any thread count.
  auto batch_worker = [&](std::vector<BerPoint>& acc) {
    acc.assign(static_cast<std::size_t>(points), BerPoint{});
    const int cap = cfg.batch_size;
    const MinSumBatchDecoder decoder(code, cfg.iterations, cfg.early_exit,
                                     cap);
    BlockSource source(encoder, cfg);
    const std::size_t capz = static_cast<std::size_t>(cap);
    std::vector<DecodeResult> results(capz);
    std::vector<std::vector<std::uint8_t>> cws(capz);
    std::vector<std::vector<std::int16_t>> llrs(capz);
    std::vector<const std::int16_t*> llr_ptrs(capz);
    std::vector<int> lane_point(capz);
    for (;;) {
      const std::int64_t first =
          cursor.fetch_add(cap, std::memory_order_relaxed);
      if (first >= total_jobs) break;
      const int run = static_cast<int>(
          std::min<std::int64_t>(cap, total_jobs - first));
      for (int b = 0; b < run; ++b) {
        const std::size_t bz = static_cast<std::size_t>(b);
        lane_point[bz] = source.generate(first + b, cws[bz], llrs[bz]);
        llr_ptrs[bz] = llrs[bz].data();
      }
      decoder.decode_batch_into(llr_ptrs.data(), run, results.data());
      for (int b = 0; b < run; ++b) {
        const std::size_t bz = static_cast<std::size_t>(b);
        accumulate(acc[static_cast<std::size_t>(lane_point[bz])], cws[bz],
                   results[bz]);
      }
    }
  };

  const auto run_one = [&](std::vector<BerPoint>& acc) {
    if (cfg.batch_size > 1) {
      batch_worker(acc);
    } else {
      worker(acc);
    }
  };

  const int workers = sweep::clamp_workers(cfg.threads, total_jobs);
  std::vector<std::vector<BerPoint>> partial(
      static_cast<std::size_t>(workers));
  sweep::run_workers(workers, [&run_one, &partial](int w) {
    run_one(partial[static_cast<std::size_t>(w)]);
  });

  std::vector<BerPoint> out(static_cast<std::size_t>(points));
  for (int p = 0; p < points; ++p)
    out[static_cast<std::size_t>(p)].ebn0_db =
        cfg.ebn0_db[static_cast<std::size_t>(p)];
  for (const std::vector<BerPoint>& acc : partial)
    for (int p = 0; p < points; ++p) {
      BerPoint& dst = out[static_cast<std::size_t>(p)];
      const BerPoint& src = acc[static_cast<std::size_t>(p)];
      dst.blocks += src.blocks;
      dst.bits += src.bits;
      dst.bit_errors += src.bit_errors;
      dst.block_errors += src.block_errors;
      dst.iterations_total += src.iterations_total;
    }
  return out;
}

namespace {

// Service-record layout: one record per (point, block) job.
enum BerWord { kBits = 0, kBitErrors, kBlockError, kIterationsRun };
constexpr int kBerRecordWords = 4;

}  // namespace

sweep::SweepSpec make_ber_sweep_spec(const LdpcCode& code,
                                     const LdpcEncoder& encoder,
                                     const BerConfig& cfg) {
  cfg.validate();
  RENOC_CHECK_MSG(encoder.n() == code.n(), "encoder does not match code");

  sweep::SweepSpec spec;
  spec.enumerated = static_cast<std::int64_t>(cfg.ebn0_db.size()) *
                    static_cast<std::int64_t>(cfg.blocks_per_point);
  spec.record_words = kBerRecordWords;
  // Everything that determines a block's decode result goes into the
  // fingerprint; thread and batch counts are excluded because the counts
  // are invariant in both (pinned by ber_harness_test and the bench).
  // The code enters as its full parity-check structure (check offsets and
  // the variable on every edge), not just its shape: two codes with equal
  // n and m must not share a checkpoint.
  sweep::DigestBuilder digest;
  digest.fold_string("ber")
      .fold(cfg.seed)
      .fold_int(cfg.blocks_per_point)
      .fold_int(cfg.iterations)
      .fold_int(cfg.early_exit ? 1 : 0)
      .fold_int(code.n())
      .fold_int(code.m());
  for (const int offset : code.check_offsets()) digest.fold_int(offset);
  for (const int var : code.check_neighbors()) digest.fold_int(var);
  for (const double ebn0 : cfg.ebn0_db) digest.fold_real(ebn0);
  spec.config_digest = digest.digest();

  spec.make_runner = [&code, &encoder, &cfg]() {
    // Per-worker setup hoisting: decoder workspace and block buffers are
    // built once per worker, exactly like run_ber_sweep's workers.
    struct WorkerState {
      MinSumDecoder decoder;
      BlockSource source;
      DecodeResult result;
      std::vector<std::uint8_t> cw;
      std::vector<std::int16_t> llrs;

      WorkerState(const LdpcCode& c, const LdpcEncoder& e,
                  const BerConfig& b)
          : decoder(c, b.iterations, b.early_exit), source(e, b) {}
    };
    auto state = std::make_shared<WorkerState>(code, encoder, cfg);
    return [state, &code](std::int64_t scenario, std::uint64_t* words) {
      WorkerState& ws = *state;
      ws.source.generate(scenario, ws.cw, ws.llrs);
      ws.decoder.decode_into(ws.llrs, ws.result);
      const std::int64_t errs = count_bit_errors(ws.cw, ws.result);
      words[kBits] = static_cast<std::uint64_t>(code.n());
      words[kBitErrors] = static_cast<std::uint64_t>(errs);
      words[kBlockError] = errs > 0 ? 1 : 0;
      words[kIterationsRun] =
          static_cast<std::uint64_t>(ws.result.iterations_run);
    };
  };
  return spec;
}

std::vector<BerPoint> ber_points_from_records(
    const BerConfig& cfg,
    const std::vector<sweep::ScenarioRecord>& records) {
  const std::int64_t points = static_cast<std::int64_t>(cfg.ebn0_db.size());
  const std::vector<std::int64_t> shape = {points, cfg.blocks_per_point};
  std::vector<BerPoint> out(static_cast<std::size_t>(points));
  for (std::int64_t p = 0; p < points; ++p)
    out[static_cast<std::size_t>(p)].ebn0_db =
        cfg.ebn0_db[static_cast<std::size_t>(p)];
  std::vector<std::int64_t> digits;
  for (const sweep::ScenarioRecord& rec : records) {
    if (rec.outcome != sweep::Outcome::kCompleted) continue;
    RENOC_CHECK_MSG(rec.words.size() == kBerRecordWords,
                    "BER record has " << rec.words.size() << " words");
    sweep::decode_scenario_index(rec.scenario, shape, digits);
    BerPoint& pt = out[static_cast<std::size_t>(digits[0])];
    ++pt.blocks;
    pt.bits += static_cast<std::int64_t>(rec.words[kBits]);
    pt.bit_errors += static_cast<std::int64_t>(rec.words[kBitErrors]);
    pt.block_errors += static_cast<std::int64_t>(rec.words[kBlockError]);
    pt.iterations_total +=
        static_cast<std::int64_t>(rec.words[kIterationsRun]);
  }
  return out;
}

}  // namespace renoc
