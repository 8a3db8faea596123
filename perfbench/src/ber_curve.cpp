// ber_curve: a Monte-Carlo BER curve through run_ber_sweep — an n=2046
// (3,6)-regular code at Eb/N0 {1.0, 1.5, 2.0, 2.5} dB, 10 min-sum
// iterations with early exit, the batched decoder, 2 worker threads.
//
// Why: per block the systematic encoder costs an order of magnitude more
// than the channel, quantizer and decoder together, so encoder, batch
// decode and sweep-path work shows here, while the NoC is bypassed.
//
// Set-up is the code construction plus the encoder's RREF preprocessing.
// The seed selects every block's data and noise, and the code: the
// default seed builds configuration A's own code, any other seed one
// derived from it (as period_stream derives each config's).
#include <algorithm>

#include "bench.hpp"
#include "core/chip_config.hpp"
#include "ldpc/ber_harness.hpp"
#include "ldpc/channel.hpp"
#include "ldpc/code.hpp"
#include "ldpc/decoder.hpp"
#include "ldpc/encoder.hpp"
#include "util/rng.hpp"
#include "util/sweep.hpp"

namespace perfbench {
namespace {

constexpr int kBatch = 16;

class BerCurve final : public Workload {
 public:
  explicit BerCurve(const WorkloadOptions& opt) {
    const renoc::ChipConfig a = renoc::config_A();
    code_seed_ = opt.seed == kDefaultSeed
                     ? a.workload.code_seed
                     : renoc::derive_stream_seed(a.workload.code_seed,
                                                 opt.seed);
    n_ = opt.smoke ? 510 : a.workload.code_n;
    wc_ = a.workload.wc;
    wr_ = a.workload.wr;
    cfg_.ebn0_db = opt.smoke ? std::vector<double>{1.5, 2.5}
                             : std::vector<double>{1.0, 1.5, 2.0, 2.5};
    cfg_.blocks_per_point = opt.smoke ? 8 : 100;
    cfg_.iterations = 10;
    cfg_.early_exit = true;
    cfg_.threads = kSweepThreads;
    cfg_.seed = opt.seed;
    cfg_.batch_size = kBatch;
  }

  void setup() override {
    encoder_.reset();
    renoc::Rng rng(code_seed_);
    code_ = std::make_unique<renoc::LdpcCode>(
        renoc::LdpcCode::make_regular(n_, wc_, wr_, rng));
    encoder_ = std::make_unique<renoc::LdpcEncoder>(*code_);
  }

  int setup_repeats() const override { return 3; }

  PassResult pass() override {
    points_ = renoc::run_ber_sweep(*code_, *encoder_, cfg_);
    renoc::sweep::DigestBuilder digest;
    PassResult out;
    for (const renoc::BerPoint& p : points_) {
      digest.fold_real(p.ebn0_db)
          .fold_int(p.blocks)
          .fold_int(p.bits)
          .fold_int(p.bit_errors)
          .fold_int(p.block_errors)
          .fold_int(p.iterations_total);
      out.work += static_cast<double>(p.blocks);
    }
    out.digest = digest.digest();
    return out;
  }

  void verify(Checks& checks) override {
    for (const renoc::BerPoint& p : points_) {
      checks.expect(p.blocks == cfg_.blocks_per_point,
                    "every BER block of the point was decoded");
      checks.expect(p.bits == p.blocks * n_, "BER bit count is blocks x n");
      checks.expect(p.iterations_total >= p.blocks &&
                        p.iterations_total <= p.blocks * cfg_.iterations,
                    "BER iterations within [1, max] per block");
    }
  }

  PassResult traced(Tracer& tracer, Checks& checks, double untraced_wall_s,
                    Metrics& out) override {
    PassResult result;
    {
      Span root(tracer, "bench.pass");
      result = pass();
    }
    verify(checks);

    // The split: the encoder preprocessing once, then every block
    // regenerated from its own stream, single-threaded, split into
    // encode / channel / quantize and batched decode.
    Span split(tracer, "bench.split");
    {
      Span s(tracer, "ldpc.encoder_setup");
      const renoc::LdpcEncoder encoder(*code_);
    }
    const renoc::MinSumBatchDecoder decoder(*code_, cfg_.iterations,
                                            cfg_.early_exit, kBatch);
    const double rate = static_cast<double>(encoder_->k()) /
                        static_cast<double>(encoder_->n());
    std::vector<renoc::BerPoint> counts(cfg_.ebn0_db.size());
    std::vector<std::uint8_t> data(static_cast<std::size_t>(encoder_->k()));
    std::vector<std::vector<std::uint8_t>> cws(kBatch);
    std::vector<std::vector<std::int16_t>> llrs(kBatch);
    std::vector<const std::int16_t*> llr_ptrs(kBatch);
    std::vector<renoc::DecodeResult> decoded(kBatch);
    std::int64_t blocks = 0;
    for (std::size_t p = 0; p < cfg_.ebn0_db.size(); ++p) {
      for (int first = 0; first < cfg_.blocks_per_point; first += kBatch) {
        const int lanes = std::min(kBatch, cfg_.blocks_per_point - first);
        for (int b = 0; b < lanes; ++b) {
          renoc::Rng rng = renoc::ber_block_rng(cfg_.seed, static_cast<int>(p),
                                                first + b);
          for (auto& bit : data)
            bit = static_cast<std::uint8_t>(rng.next_below(2));
          Span enc(tracer, "ldpc.encode");
          cws[static_cast<std::size_t>(b)] = encoder_->encode(data);
          enc.close();
          Span ch(tracer, "ldpc.channel");
          renoc::AwgnChannel channel(cfg_.ebn0_db[p], rate, rng.split());
          const std::vector<double> soft =
              channel.transmit(cws[static_cast<std::size_t>(b)]);
          ch.close();
          Span q(tracer, "ldpc.quantize");
          llrs[static_cast<std::size_t>(b)] = renoc::quantize_llrs(soft);
          q.close();
          llr_ptrs[static_cast<std::size_t>(b)] =
              llrs[static_cast<std::size_t>(b)].data();
        }
        {
          Span dec(tracer, "ldpc.decode");
          decoder.decode_batch_into(llr_ptrs.data(), lanes, decoded.data());
        }
        for (int b = 0; b < lanes; ++b) {
          const auto& cw = cws[static_cast<std::size_t>(b)];
          const auto& hard = decoded[static_cast<std::size_t>(b)].hard_bits;
          std::int64_t errs = 0;
          for (std::size_t i = 0; i < cw.size(); ++i) errs += hard[i] != cw[i];
          renoc::BerPoint& pt = counts[p];
          ++pt.blocks;
          pt.bit_errors += errs;
          pt.block_errors += errs > 0;
          pt.iterations_total +=
              decoded[static_cast<std::size_t>(b)].iterations_run;
        }
        blocks += lanes;
      }
    }
    split.close();
    std::int64_t iterations = 0;
    for (std::size_t p = 0; p < counts.size(); ++p) {
      checks.expect(counts[p].bit_errors == points_[p].bit_errors &&
                        counts[p].block_errors == points_[p].block_errors &&
                        counts[p].iterations_total ==
                            points_[p].iterations_total,
                    "regenerated BER blocks reproduce the sweep's counts");
      iterations += counts[p].iterations_total;
    }

    const double nb = static_cast<double>(blocks);
    const double per_block_s =
        tracer.total_s("ldpc.encode") + tracer.total_s("ldpc.channel") +
        tracer.total_s("ldpc.quantize") + tracer.total_s("ldpc.decode");
    out.push_back({"ldpc.encode_us", tracer.total_s("ldpc.encode") * 1e6 / nb,
                   "us"});
    out.push_back({"ldpc.channel_us",
                   tracer.total_s("ldpc.channel") * 1e6 / nb, "us"});
    out.push_back({"ldpc.quantize_us",
                   tracer.total_s("ldpc.quantize") * 1e6 / nb, "us"});
    out.push_back({"ldpc.decode_us", tracer.total_s("ldpc.decode") * 1e6 / nb,
                   "us"});
    out.push_back({"ldpc.encoder_setup_ms",
                   ms(tracer.total_s("ldpc.encoder_setup")), "ms"});
    out.push_back({"ldpc.avg_iterations",
                   static_cast<double>(iterations) / nb, "count"});
    out.push_back({"util.sweep.parallel_eff",
                   per_block_s / (kSweepThreads * untraced_wall_s), "ratio"});
    return result;
  }

 private:
  std::uint64_t code_seed_ = 0;
  int n_ = 0, wc_ = 0, wr_ = 0;
  renoc::BerConfig cfg_;
  std::unique_ptr<renoc::LdpcCode> code_;
  std::unique_ptr<renoc::LdpcEncoder> encoder_;
  std::vector<renoc::BerPoint> points_;
};

}  // namespace

std::unique_ptr<Workload> make_ber_curve(const WorkloadOptions& opt) {
  return std::make_unique<BerCurve>(opt);
}

}  // namespace perfbench
