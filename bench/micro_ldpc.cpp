// Before/after harness for the LDPC encode and flat decode engines.
//
// Times the word-parallel systematic encoder per block (every codeword is
// checked against H), times the seed (pointer-chasing, copy-in/copy-out)
// decode loop against the flat CSR engine on the same blocks, checks
// bit-exactness of every DecodeResult field while doing so, counts
// steady-state heap allocations of the encoder and the flat decoder, and
// scales the Monte-Carlo BER harness across threads with a determinism
// cross-check. Guards fail the binary (nonzero exit), so
// wiring `--smoke` into CI makes divergence from the golden semantics a
// build break instead of a silent regression.
//
// Results are also written as machine-readable JSON (BENCH_ldpc.json by
// default) so CI can archive them per commit.
//
// Usage: bench_micro_ldpc [--smoke] [--json <path>]
//   --smoke   tiny sizes and budgets; used by CI and scripts/check.sh so
//             this target can never silently rot.
//   --json    output path for the JSON record (default BENCH_ldpc.json).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include "bench_timing.hpp"
#include "core/transform.hpp"
#include "sweep_guard.hpp"
#include "util/json.hpp"
#include "ldpc/ber_harness.hpp"
#include "ldpc/channel.hpp"
#include "ldpc/decoder.hpp"
#include "ldpc/encoder.hpp"
#include "ldpc/noc_decoder.hpp"
#include "ldpc/reference_decoder.hpp"
#include "noc/fabric.hpp"
#include "util/simd.hpp"
#include "util/table.hpp"

// Steady-state allocations are counted by util/alloc_guard (referencing it
// links the interposed operator new/delete into this binary).
#include "util/alloc_guard.hpp"

namespace renoc {
namespace {

using bench::time_ms;

struct CodeFixture {
  LdpcCode code;
  LdpcEncoder encoder;
  std::vector<std::int16_t> llrs;  // one quantized noisy block at 2.5 dB

  explicit CodeFixture(int n)
      : code([&] {
          Rng rng(3);
          return LdpcCode::make_regular(n, 3, 6, rng);
        }()),
        encoder(code) {
    Rng rng(5);
    std::vector<std::uint8_t> data(static_cast<std::size_t>(encoder.k()));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(2));
    AwgnChannel channel(2.5, 0.5, rng.split());
    llrs = quantize_llrs(channel.transmit(encoder.encode(data)));
  }
};

struct EncodeRow {
  int n = 0;
  int k = 0;
  double us_per_block = 0.0;
  long long steady_allocs = 0;
  bool codewords_ok = true;
};

/// Times encode_into() over a set of random data words with reused
/// buffers, counts its warmed allocations, and checks every codeword
/// against the code's parity checks.
EncodeRow run_encode_row(int n, double budget_ms) {
  const CodeFixture f(n);
  constexpr int kBlocks = 16;
  std::vector<std::vector<std::uint8_t>> data(kBlocks);
  Rng rng(21);
  for (auto& d : data) {
    d.resize(static_cast<std::size_t>(f.encoder.k()));
    for (auto& b : d) b = static_cast<std::uint8_t>(rng.next_below(2));
  }
  std::vector<std::uint64_t> words;
  std::vector<std::uint8_t> cw;
  const auto encode_all = [&] {
    for (const auto& d : data) f.encoder.encode_into(d, words, cw);
  };

  EncodeRow row;
  row.n = n;
  row.k = f.encoder.k();
  row.us_per_block = time_ms(budget_ms, encode_all) * 1000.0 / kBlocks;
  {
    const AllocGuard guard;
    encode_all();
    row.steady_allocs = guard.count();
  }
  for (const auto& d : data) {
    f.encoder.encode_into(d, words, cw);
    row.codewords_ok = row.codewords_ok && f.code.is_codeword(cw);
  }
  return row;
}

bool results_equal(const DecodeResult& a, const DecodeResult& b) {
  return a.hard_bits == b.hard_bits && a.syndrome_ok == b.syndrome_ok &&
         a.iterations_run == b.iterations_run;
}

struct GoldenRow {
  int n = 0;
  double ref_ms = 0.0;
  double flat_ms = 0.0;
  double speedup = 0.0;
  long long steady_allocs = 0;
  bool bit_exact = true;
};

/// Times seed-vs-flat decode and verifies bit-exactness over a batch of
/// noisy blocks (several seeds, early-exit on and off).
GoldenRow run_golden_row(int n, int iterations, double budget_ms) {
  const CodeFixture f(n);
  GoldenRow row;
  row.n = n;

  row.ref_ms = time_ms(budget_ms, [&] {
    (void)reference_minsum_decode(f.code, iterations, false, f.llrs);
  });
  const MinSumDecoder flat(f.code, iterations);
  DecodeResult result;
  row.flat_ms =
      time_ms(budget_ms, [&] { flat.decode_into(f.llrs, result); });
  row.speedup = row.ref_ms / row.flat_ms;

  // Steady-state allocation count of the flat path (after warm-up above).
  const AllocGuard guard;
  for (int i = 0; i < 32; ++i) flat.decode_into(f.llrs, result);
  row.steady_allocs = guard.count();

  // Bit-exactness sweep: fresh noisy blocks, both early-exit modes.
  for (std::uint64_t seed = 11; seed < 16 && row.bit_exact; ++seed) {
    Rng rng(seed);
    std::vector<std::uint8_t> data(static_cast<std::size_t>(f.encoder.k()));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(2));
    AwgnChannel channel(2.0, 0.5, rng.split());
    const auto llrs = quantize_llrs(channel.transmit(f.encoder.encode(data)));
    for (bool early_exit : {false, true}) {
      const MinSumDecoder dec(f.code, iterations, early_exit);
      if (!results_equal(
              reference_minsum_decode(f.code, iterations, early_exit, llrs),
              dec.decode(llrs)))
        row.bit_exact = false;
    }
  }
  return row;
}

struct BatchTierRow {
  simd::Tier tier = simd::Tier::kScalar;
  double scalar_ms_per_cw = 0.0;  ///< sequential MinSumDecoder baseline
  double batch_ms_per_cw = 0.0;   ///< batch-of-8 through this tier's table
  double speedup = 0.0;
  long long steady_allocs = 0;
  bool bit_exact = true;
};

/// Times the batched multi-codeword decoder through every compiled SIMD
/// tier against the sequential scalar engine on the same eight blocks, and
/// sweeps batch sizes and early-exit modes demanding every per-lane
/// DecodeResult field match the scalar decode bit for bit.
std::vector<BatchTierRow> run_batch_rows(int n, int iterations,
                                         double budget_ms) {
  const CodeFixture f(n);
  constexpr int kBatch = 8;
  std::vector<std::vector<std::int16_t>> blocks;
  std::vector<const std::int16_t*> ptrs;
  for (int b = 0; b < kBatch; ++b) {
    Rng rng(40 + static_cast<std::uint64_t>(b));
    std::vector<std::uint8_t> data(static_cast<std::size_t>(f.encoder.k()));
    for (auto& bit : data) bit = static_cast<std::uint8_t>(rng.next_below(2));
    AwgnChannel channel(1.5 + 0.25 * b, 0.5, rng.split());
    blocks.push_back(quantize_llrs(channel.transmit(f.encoder.encode(data))));
    ptrs.push_back(blocks.back().data());
  }

  const MinSumDecoder scalar(f.code, iterations, true);
  DecodeResult scalar_result;
  const double scalar_ms = time_ms(budget_ms, [&] {
    for (int b = 0; b < kBatch; ++b)
      scalar.decode_into(blocks[static_cast<std::size_t>(b)], scalar_result);
  });

  std::vector<BatchTierRow> rows;
  for (int t = 0; t < simd::kTierCount; ++t) {
    const simd::KernelTable* table =
        simd::kernel_table(static_cast<simd::Tier>(t));
    if (table == nullptr) continue;
    BatchTierRow row;
    row.tier = table->tier;
    row.scalar_ms_per_cw = scalar_ms / kBatch;

    const MinSumBatchDecoder batched(f.code, iterations, true, kBatch, table);
    std::vector<DecodeResult> results(kBatch);
    row.batch_ms_per_cw =
        time_ms(budget_ms, [&] {
          batched.decode_batch_into(ptrs.data(), kBatch, results.data());
        }) /
        kBatch;
    row.speedup = row.scalar_ms_per_cw / row.batch_ms_per_cw;

    {
      const AllocGuard guard;
      for (int i = 0; i < 32; ++i)
        batched.decode_batch_into(ptrs.data(), kBatch, results.data());
      row.steady_allocs = guard.count();
    }

    for (const bool early : {false, true}) {
      const MinSumDecoder oracle(f.code, iterations, early);
      const MinSumBatchDecoder dec(f.code, iterations, early, kBatch, table);
      for (const int batch : {1, 3, kBatch}) {
        dec.decode_batch_into(ptrs.data(), batch, results.data());
        for (int b = 0; b < batch; ++b)
          if (!results_equal(
                  results[static_cast<std::size_t>(b)],
                  oracle.decode(blocks[static_cast<std::size_t>(b)])))
            row.bit_exact = false;
      }
    }
    rows.push_back(row);
  }
  return rows;
}

struct NocRow {
  int iterations = 0;
  double ms = 0.0;
  bool matches_golden = true;
};

NocRow run_noc_row(int iterations, double budget_ms) {
  CodeFixture f(510);
  NocConfig cfg;
  cfg.dim = GridDim{4, 4};
  Fabric fabric(cfg);
  LdpcNocParams params;
  params.iterations = iterations;
  NocLdpcDecoder decoder(fabric, f.code, make_striped_partition(f.code, 16),
                         identity_permutation(16), params);

  NocRow row;
  row.iterations = iterations;
  row.ms = time_ms(budget_ms, [&] { (void)decoder.decode_block(f.llrs); });
  const MinSumDecoder golden(f.code, iterations);
  row.matches_golden =
      decoder.decode_block(f.llrs).hard_bits == golden.decode(f.llrs).hard_bits;
  return row;
}

struct BerScalingRow {
  int threads = 0;
  double ms = 0.0;
  double speedup = 1.0;  // vs single thread
};

struct BerScaling {
  std::vector<BerScalingRow> rows;
  bool deterministic = true;
  std::int64_t blocks = 0;
  std::int64_t bit_errors = 0;
};

bool points_equal(const std::vector<BerPoint>& a,
                  const std::vector<BerPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].blocks != b[i].blocks || a[i].bits != b[i].bits ||
        a[i].bit_errors != b[i].bit_errors ||
        a[i].block_errors != b[i].block_errors ||
        a[i].iterations_total != b[i].iterations_total)
      return false;
  return true;
}

struct BerBatchRow {
  int batch = 0;
  double ms = 0.0;
};

struct BerBatch {
  std::vector<BerBatchRow> rows;
  bool deterministic = true;  ///< counts identical across batch widths
};

/// Runs the sweep at batch widths 1/4/8 (two threads, so batches race the
/// job cursor) and checks the counts are identical — the batch decoder is
/// a pure throughput knob, never a semantic one.
BerBatch run_ber_batch(const CodeFixture& f, BerConfig cfg,
                       double budget_ms) {
  cfg.threads = 2;
  BerBatch out;
  std::vector<BerPoint> baseline;
  for (const int batch : {1, 4, 8}) {
    cfg.batch_size = batch;
    std::vector<BerPoint> pts;
    BerBatchRow row;
    row.batch = batch;
    row.ms = time_ms(budget_ms,
                     [&] { pts = run_ber_sweep(f.code, f.encoder, cfg); });
    if (batch == 1) {
      baseline = pts;
    } else if (!points_equal(baseline, pts)) {
      out.deterministic = false;
    }
    out.rows.push_back(row);
  }
  return out;
}

BerScaling run_ber_scaling(const CodeFixture& f, BerConfig cfg,
                           double budget_ms) {
  BerScaling scaling;
  std::vector<BerPoint> baseline;
  for (int threads : {1, 2, 4}) {
    cfg.threads = threads;
    std::vector<BerPoint> pts;
    BerScalingRow row;
    row.threads = threads;
    row.ms = time_ms(budget_ms,
                     [&] { pts = run_ber_sweep(f.code, f.encoder, cfg); });
    if (threads == 1) {
      baseline = pts;
      for (const BerPoint& p : pts) {
        scaling.blocks += p.blocks;
        scaling.bit_errors += p.bit_errors;
      }
    } else if (!points_equal(baseline, pts)) {
      scaling.deterministic = false;
    }
    row.speedup = scaling.rows.empty() ? 1.0 : scaling.rows[0].ms / row.ms;
    scaling.rows.push_back(row);
  }
  return scaling;
}

void write_json(const std::string& path, bool smoke,
                const std::vector<EncodeRow>& encode,
                const std::vector<GoldenRow>& golden,
                const std::vector<BatchTierRow>& batch, const NocRow& noc,
                const BerScaling& ber, const BerBatch& ber_batch,
                const BerConfig& ber_cfg,
                const bench::ServiceGuardResult& service) {
  AtomicFile out(path);
  JsonWriter json(out.stream());
  json.begin_object();
  json.key("bench").string("micro_ldpc");
  json.key("smoke").boolean(smoke);
  bench::write_machine_json(json);
  json.key("encode").begin_array();
  for (const EncodeRow& r : encode) {
    json.begin_object();
    json.key("n").integer(r.n);
    json.key("k").integer(r.k);
    json.key("us_per_block").real(r.us_per_block, 3);
    json.key("steady_state_allocs").integer(r.steady_allocs);
    json.key("codewords_ok").boolean(r.codewords_ok);
    json.end_object();
  }
  json.end_array();
  json.key("golden_decode").begin_array();
  for (const GoldenRow& r : golden) {
    json.begin_object();
    json.key("n").integer(r.n);
    json.key("iterations").integer(10);
    json.key("ref_ms").real(r.ref_ms);
    json.key("flat_ms").real(r.flat_ms);
    json.key("speedup").real(r.speedup, 3);
    json.key("steady_state_allocs").integer(r.steady_allocs);
    json.key("bit_exact").boolean(r.bit_exact);
    json.end_object();
  }
  json.end_array();
  json.key("batch_decode").begin_object();
  json.key("active_tier").string(simd::active_tier_name());
  json.key("tiers").begin_array();
  for (const BatchTierRow& r : batch) {
    json.begin_object();
    json.key("tier").string(simd::tier_name(r.tier));
    json.key("scalar_ms_per_cw").real(r.scalar_ms_per_cw);
    json.key("batch_ms_per_cw").real(r.batch_ms_per_cw);
    json.key("speedup").real(r.speedup, 3);
    json.key("steady_state_allocs").integer(r.steady_allocs);
    json.key("bit_exact").boolean(r.bit_exact);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  json.key("ber_batch_widths").begin_object();
  json.key("deterministic").boolean(ber_batch.deterministic);
  json.key("widths").begin_array();
  for (const BerBatchRow& r : ber_batch.rows) {
    json.begin_object();
    json.key("batch_size").integer(r.batch);
    json.key("ms").real(r.ms);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  json.key("noc_block_decode").begin_object();
  json.key("n").integer(510);
  json.key("clusters").integer(16);
  json.key("iterations").integer(noc.iterations);
  json.key("ms").real(noc.ms);
  json.key("matches_golden").boolean(noc.matches_golden);
  json.end_object();
  json.key("ber_sweep").begin_object();
  json.key("points").integer(static_cast<int>(ber_cfg.ebn0_db.size()));
  json.key("blocks_per_point").integer(ber_cfg.blocks_per_point);
  json.key("iterations").integer(ber_cfg.iterations);
  json.key("blocks").integer(static_cast<long long>(ber.blocks));
  json.key("bit_errors").integer(static_cast<long long>(ber.bit_errors));
  json.key("deterministic").boolean(ber.deterministic);
  json.key("threads").begin_array();
  for (const BerScalingRow& r : ber.rows) {
    json.begin_object();
    json.key("threads").integer(r.threads);
    json.key("ms").real(r.ms);
    json.key("speedup").real(r.speedup, 3);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  bench::write_service_guard_json(json, service);
  json.end_object();
  out.commit();
  std::printf("\nwrote %s\n", path.c_str());
}

int run(bool smoke, const std::string& json_path) {
  const std::vector<int> sizes =
      smoke ? std::vector<int>{510} : std::vector<int>{510, 2046};
  const double budget_ms = smoke ? 10.0 : 300.0;
  bool ok = true;

  // --- Systematic encode: word-parallel encode_into ---------------------
  Table encode_table({"n", "k", "us/block", "steady allocs", "codewords"});
  encode_table.set_title(
      std::string("Systematic encode (word-parallel encode_into, reused "
                  "buffers), best-of-N") +
      (smoke ? " [smoke]" : ""));
  std::vector<EncodeRow> encode_rows;
  for (int n : sizes) {
    const EncodeRow r = run_encode_row(n, budget_ms);
    encode_rows.push_back(r);
    encode_table.add_row({std::to_string(r.n), std::to_string(r.k),
                          Table::num(r.us_per_block, 2),
                          std::to_string(r.steady_allocs),
                          r.codewords_ok ? "ok" : "NOT CODEWORDS"});
    ok = ok && r.codewords_ok &&
         (r.steady_allocs == 0 || !alloc_guard::instrumented());
  }
  encode_table.print(std::cout);

  // --- Golden decode: seed loop vs flat engine -------------------------
  Table golden_table({"n", "edges", "seed ms", "flat ms", "speedup",
                      "steady allocs", "bit-exact"});
  golden_table.set_title(
      std::string("Golden min-sum decode, 10 iterations: seed "
                  "(copy-in/copy-out) vs flat CSR engine, best-of-N") +
      (smoke ? " [smoke]" : ""));
  std::vector<GoldenRow> golden_rows;
  for (int n : sizes) {
    const GoldenRow r = run_golden_row(n, 10, budget_ms);
    golden_rows.push_back(r);
    golden_table.add_row({std::to_string(r.n), std::to_string(n * 3),
                          Table::num(r.ref_ms, 4), Table::num(r.flat_ms, 4),
                          Table::num(r.speedup, 2),
                          std::to_string(r.steady_allocs),
                          r.bit_exact ? "yes" : "NO"});
    ok = ok && r.bit_exact &&
         (r.steady_allocs == 0 || !alloc_guard::instrumented());
  }
  golden_table.print(std::cout);

  // --- Batched multi-codeword decode, per SIMD tier --------------------
  const std::vector<BatchTierRow> batch_rows =
      run_batch_rows(sizes.front(), 10, budget_ms);
  Table batch_table({"tier", "scalar ms/cw", "batch ms/cw", "speedup",
                     "steady allocs", "bit-exact"});
  batch_table.set_title(
      std::string("Batched decode (8 codewords/pass) vs sequential scalar, "
                  "every compiled SIMD tier; active tier: ") +
      simd::active_tier_name() + (smoke ? " [smoke]" : ""));
  for (const BatchTierRow& r : batch_rows) {
    batch_table.add_row({simd::tier_name(r.tier),
                         Table::num(r.scalar_ms_per_cw, 4),
                         Table::num(r.batch_ms_per_cw, 4),
                         Table::num(r.speedup, 2),
                         std::to_string(r.steady_allocs),
                         r.bit_exact ? "yes" : "NO"});
    ok = ok && r.bit_exact &&
         (r.steady_allocs == 0 || !alloc_guard::instrumented());
  }
  batch_table.print(std::cout);

  // --- NoC block decode -------------------------------------------------
  const NocRow noc = run_noc_row(smoke ? 2 : 8, budget_ms);
  Table noc_table({"n", "clusters", "iterations", "block ms", "== golden"});
  noc_table.set_title("Cycle-accurate NoC block decode (4x4 mesh)");
  noc_table.add_row({"510", "16", std::to_string(noc.iterations),
                     Table::num(noc.ms, 3),
                     noc.matches_golden ? "yes" : "NO"});
  noc_table.print(std::cout);
  ok = ok && noc.matches_golden;

  // --- BER harness thread scaling --------------------------------------
  const CodeFixture f(510);
  BerConfig cfg;
  cfg.ebn0_db = smoke ? std::vector<double>{2.0}
                      : std::vector<double>{1.0, 2.0};
  cfg.blocks_per_point = smoke ? 16 : 128;
  cfg.iterations = smoke ? 4 : 10;
  cfg.early_exit = true;
  cfg.seed = 99;
  const BerScaling ber = run_ber_scaling(f, cfg, smoke ? 1.0 : 50.0);
  Table ber_table({"threads", "sweep ms", "speedup", "deterministic"});
  ber_table.set_title(
      "Monte-Carlo BER sweep (n=510, " +
      std::to_string(cfg.ebn0_db.size()) + " points x " +
      std::to_string(cfg.blocks_per_point) +
      " blocks): thread scaling; counts must not depend on thread count");
  for (const BerScalingRow& r : ber.rows)
    ber_table.add_row({std::to_string(r.threads), Table::num(r.ms, 2),
                       Table::num(r.speedup, 2),
                       ber.deterministic ? "yes" : "NO"});
  ber_table.print(std::cout);
  ok = ok && ber.deterministic;

  // --- BER batch-width indifference ------------------------------------
  const BerBatch ber_batch = run_ber_batch(f, cfg, smoke ? 1.0 : 50.0);
  Table batch_width_table({"batch", "sweep ms", "deterministic"});
  batch_width_table.set_title(
      "Monte-Carlo BER sweep, 2 threads: batch-width scaling; counts must "
      "not depend on batch size");
  for (const BerBatchRow& r : ber_batch.rows)
    batch_width_table.add_row({std::to_string(r.batch), Table::num(r.ms, 2),
                               ber_batch.deterministic ? "yes" : "NO"});
  batch_width_table.print(std::cout);
  ok = ok && ber_batch.deterministic;

  // --- Sweep service guards ---------------------------------------------
  // The BER sweep through util/sweep: shard splits and a kill/resume cycle
  // must merge to the exact counts the direct sweep produced.
  BerConfig svc_cfg = cfg;
  svc_cfg.blocks_per_point = smoke ? 8 : 24;
  const sweep::SweepSpec svc_spec =
      make_ber_sweep_spec(f.code, f.encoder, svc_cfg);
  const bench::ServiceGuardResult service =
      bench::run_service_guard(svc_spec, "bench_ldpc_sweep_ckpt");
  Table service_table(
      {"scenarios", "resumed", "shard identity", "resume identity",
       "conserved"});
  service_table.set_title(
      "Sweep service (BER spec): shard merges and checkpoint resume must "
      "be bit-identical to the direct run");
  service_table.add_row({std::to_string(service.scenarios),
                         std::to_string(service.resumed),
                         service.shard_identity ? "yes" : "NO",
                         service.resume_identity ? "yes" : "NO",
                         service.conserved ? "yes" : "NO"});
  service_table.print(std::cout);
  ok = ok && service.ok();

  write_json(json_path, smoke, encode_rows, golden_rows, batch_rows, noc,
             ber, ber_batch, cfg, service);

  if (!ok) {
    std::cerr << "FAIL: the encoder emitted a non-codeword, flat or "
                 "batched decode diverged from the golden semantics, the "
                 "encoder or a decoder allocated in steady state, the BER "
                 "sweep depended on thread count or batch width, or the sweep "
                 "service broke shard/resume identity\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace renoc

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_ldpc.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json <path>]\n", argv[0]);
      return 2;
    }
  }
  return renoc::run(smoke, json_path);
}
