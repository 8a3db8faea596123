// Before/after harness for the flat SoA NoC fabric engine.
//
// Drives the seed engine (noc/reference_fabric: per-Router deque FIFOs,
// unordered_map reassembly) and the flat engine (noc/fabric: one flit
// arena, flat credit/wormhole/round-robin arrays, pooled payload buffers)
// with byte-identical send schedules, and checks bit-exactness of the
// delivery stream (order, contents, cycle of arrival), the final cycle
// count, and every NocStats counter while timing both. It also counts
// steady-state heap allocations of the flat traffic loop and cross-checks
// the scenario-sweep harness across thread counts. Guards fail the binary
// (nonzero exit), so wiring `--smoke` into CI makes divergence from the
// seed semantics a build break instead of a silent regression.
//
// A decode section times the layer the paper pipeline actually spends its
// NoC time in: NocLdpcDecoder::decode_block on the full-scale chip
// configurations (A and E; A only under --smoke), reporting host ns per
// simulated cycle and the share of cycles the decoder skipped with
// Fabric::advance_idle instead of stepping. Its decoded bits must equal
// the golden decoder's.
//
// Results are also written as machine-readable JSON (BENCH_noc.json by
// default) so CI can archive them per commit.
//
// Usage: bench_micro_noc [--smoke] [--json <path>]
//   --smoke   tiny meshes and budgets; used by CI and scripts/check.sh so
//             this target can never silently rot.
//   --json    output path for the JSON record (default BENCH_noc.json).
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
#include "core/chip_config.hpp"
#include "core/transform.hpp"
#include "ldpc/decoder.hpp"
#include "ldpc/noc_decoder.hpp"
#include "noc/fabric.hpp"
#include "noc/fault_model.hpp"
#include "util/json.hpp"
#include "noc/reference_fabric.hpp"
#include "noc/routing.hpp"
#include "noc/sweep_harness.hpp"
#include "noc/traffic.hpp"
#include "sweep_guard.hpp"
#include "util/aligned.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/table.hpp"

// Steady-state allocations are counted by util/alloc_guard (referencing it
// links the interposed operator new/delete into this binary).
#include "util/alloc_guard.hpp"

namespace renoc {
namespace {

using bench::time_ms;  // mix64 comes from util/rng.hpp

/// Everything observable about one driven simulation. Two engines are
/// bit-identical iff their DriveRecords compare equal.
struct DriveRecord {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t delivery_hash = 0;  ///< (cycle, node, src, tag, payload...)
  std::uint64_t final_cycle = 0;
  std::uint64_t packets = 0;
  std::uint64_t flits = 0;
  std::uint64_t lat_count = 0;
  double lat_mean = 0.0;
  double lat_min = 0.0;
  double lat_max = 0.0;
  std::uint64_t tile_hash = 0;  ///< every TileActivity counter, in order

  bool operator==(const DriveRecord&) const = default;
};

/// Uniform-random Bernoulli load: the send schedule depends only on the
/// private Rng (never on fabric responses), so seed and flat engines given
/// the same seed see byte-identical traffic.
template <class FabricT>
DriveRecord drive_uniform(FabricT& fabric, int cycles, double rate,
                          int words, std::uint64_t seed) {
  Rng rng(seed);
  const int n = fabric.node_count();
  const double p = rate / words;
  DriveRecord rec;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto note_delivery = [&](int node, const Message& m) {
    h = mix64(h ^ fabric.now());
    h = mix64(h ^ static_cast<std::uint64_t>(node));
    h = mix64(h ^ static_cast<std::uint64_t>(m.src));
    h = mix64(h ^ m.tag);
    for (std::uint64_t w : m.payload) h = mix64(h ^ w);
    ++rec.received;
  };
  for (int c = 0; c < cycles; ++c) {
    for (int src = 0; src < n; ++src) {
      if (!rng.next_bool(p)) continue;
      int dst = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(n - 1)));
      if (dst >= src) ++dst;
      Message m;
      m.src = src;
      m.dst = dst;
      m.tag = rec.sent;
      m.payload.assign(static_cast<std::size_t>(words),
                       static_cast<std::uint64_t>(src) * 1000u +
                           static_cast<std::uint64_t>(c));
      fabric.send(m);
      ++rec.sent;
    }
    fabric.step();
    for (int node = 0; node < n; ++node)
      while (auto got = fabric.try_receive(node)) note_delivery(node, *got);
  }
  int guard = 0;
  while (!fabric.idle()) {
    fabric.step();
    for (int node = 0; node < n; ++node)
      while (auto got = fabric.try_receive(node)) note_delivery(node, *got);
    RENOC_CHECK_MSG(++guard < 2'000'000, "bench drive failed to drain");
  }
  rec.delivery_hash = h;
  rec.final_cycle = fabric.now();

  const NetworkStats& st = fabric.stats();
  rec.packets = st.packets_delivered();
  rec.flits = st.flits_delivered();
  rec.lat_count = st.packet_latency().count();
  rec.lat_mean = st.packet_latency().mean();
  rec.lat_min = st.packet_latency().min();
  rec.lat_max = st.packet_latency().max();
  std::uint64_t th = 0x100001b3ULL;
  for (int t = 0; t < n; ++t) {
    const TileActivity& a = st.tile(t);
    for (std::uint64_t v : {a.buffer_writes, a.buffer_reads,
                            a.crossbar_traversals, a.arbitrations,
                            a.link_flits, a.injected_flits, a.ejected_flits,
                            a.pe_compute_ops, a.pe_state_words})
      th = mix64(th ^ v);
  }
  rec.tile_hash = th;
  return rec;
}

/// All-to-one long-message contention: maximal wormhole blocking and
/// credit churn on the hotspot column.
template <class FabricT>
DriveRecord drive_hotspot(FabricT& fabric, int rounds, int words) {
  const int n = fabric.node_count();
  DriveRecord rec;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int r = 0; r < rounds; ++r) {
    for (int s = 1; s < n; ++s) {
      Message m;
      m.src = s;
      m.dst = 0;
      m.tag = rec.sent;
      m.payload.assign(static_cast<std::size_t>(words),
                       static_cast<std::uint64_t>(s * 37 + r));
      fabric.send(m);
      ++rec.sent;
    }
  }
  int guard = 0;
  while (!fabric.idle()) {
    fabric.step();
    while (auto got = fabric.try_receive(0)) {
      h = mix64(h ^ fabric.now());
      h = mix64(h ^ got->tag);
      h = mix64(h ^ got->payload.front());
      ++rec.received;
    }
    RENOC_CHECK_MSG(++guard < 2'000'000, "hotspot drive failed to drain");
  }
  rec.delivery_hash = h;
  rec.final_cycle = fabric.now();
  rec.packets = fabric.stats().packets_delivered();
  rec.flits = fabric.stats().flits_delivered();
  rec.lat_count = fabric.stats().packet_latency().count();
  rec.lat_mean = fabric.stats().packet_latency().mean();
  rec.lat_min = fabric.stats().packet_latency().min();
  rec.lat_max = fabric.stats().packet_latency().max();
  return rec;
}

NocConfig mesh(int side, int depth = 4) {
  NocConfig cfg;
  cfg.dim = GridDim{side, side};
  cfg.buffer_depth = depth;
  return cfg;
}

/// A fabric with `msgs_per_node` uniform-random messages backlogged at
/// every NI: stepping it exercises a continuously loaded mesh with no
/// traffic-driver code inside the timed region.
template <class FabricT>
FabricT make_backlogged(int side, int msgs_per_node, int words,
                        std::uint64_t seed) {
  FabricT fabric(mesh(side));
  Rng rng(seed);
  const int n = fabric.node_count();
  for (int i = 0; i < msgs_per_node; ++i)
    for (int src = 0; src < n; ++src) {
      int dst = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(n - 1)));
      if (dst >= src) ++dst;
      Message m;
      m.src = src;
      m.dst = dst;
      m.tag = static_cast<std::uint64_t>(i);
      m.payload.assign(static_cast<std::size_t>(words),
                       static_cast<std::uint64_t>(src));
      fabric.send(m);
    }
  return fabric;
}

/// Best-of-N wall time of `cycles` steps on a freshly backlogged fabric —
/// setup is rebuilt per rep and excluded from the measurement.
template <class FabricT>
double time_backlogged_run_ms(double budget_ms, int side, int msgs_per_node,
                              int words, int cycles) {
  using clock = std::chrono::steady_clock;
  double best = 1e300;
  double spent = 0.0;
  int reps = 0;
  while (reps < 2 || spent < budget_ms) {
    FabricT fabric = make_backlogged<FabricT>(side, msgs_per_node, words, 5);
    const auto t0 = clock::now();
    fabric.run(cycles);
    const auto t1 = clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    best = std::min(best, ms);
    spent += ms;
    ++reps;
  }
  return best;
}

struct CompareRow {
  std::string scenario;
  std::uint64_t cycles = 0;
  std::uint64_t packets = 0;
  bool bit_exact = false;
};

struct RateRow {
  int side = 0;
  double rate = 0.0;
  int words = 0;
  double seed_ms = 0.0;
  double flat_ms = 0.0;
  double seed_cps = 0.0;  ///< simulated fabric cycles per wall-clock second
  double flat_cps = 0.0;
  double speedup = 0.0;
};

struct WantScanRow {
  simd::Tier tier = simd::Tier::kScalar;
  double ms = 0.0;  ///< one full-mesh want[] prepass over all port mirrors
  double speedup = 0.0;  // vs the scalar tier
  bool exact = true;     ///< agrees with the inline scalar computation
};

/// Times the arbitration want[]-prepass kernel through every compiled SIMD
/// tier on synthetic head-flit mirrors of a side x side mesh (the arrays
/// Fabric::step() feeds it), checking exact agreement with the fabric's
/// inline scalar computation — including unreachable routes and the zeroed
/// pad lanes, which must scan as "wants nothing" (-1).
std::vector<WantScanRow> run_want_scan_rows(int side, double budget_ms) {
  const int nodes = side * side;
  const int ports = nodes * kDirectionCount;
  const int padded = (ports + 7) / 8 * 8;
  AlignedVec<int> fifo_size, head_dst, route_base, want;
  AlignedVec<std::uint8_t> head_is_head;
  fifo_size.assign(static_cast<std::size_t>(padded), 0);
  head_dst.assign(static_cast<std::size_t>(padded), 0);
  route_base.assign(static_cast<std::size_t>(padded), 0);
  want.assign(static_cast<std::size_t>(padded), 0);
  head_is_head.assign(static_cast<std::size_t>(padded), 0);
  std::vector<std::uint8_t> table(
      static_cast<std::size_t>(nodes) * static_cast<std::size_t>(nodes) + 4,
      0);
  Rng rng(31);
  for (std::size_t i = 0; i + 4 < table.size(); ++i) {
    const std::uint64_t roll = rng.next_below(8);
    table[i] =
        roll == 7 ? kUnreachableRoute : static_cast<std::uint8_t>(roll % 5);
  }
  for (int f = 0; f < ports; ++f) {
    const std::size_t fz = static_cast<std::size_t>(f);
    fifo_size[fz] = static_cast<int>(rng.next_below(3));
    head_is_head[fz] = static_cast<std::uint8_t>(rng.next_below(2));
    head_dst[fz] =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(nodes)));
    route_base[fz] = (f / kDirectionCount) * nodes;
  }

  std::vector<int> expect(static_cast<std::size_t>(padded), -1);
  for (int f = 0; f < ports; ++f) {
    const std::size_t fz = static_cast<std::size_t>(f);
    if (fifo_size[fz] > 0 && head_is_head[fz] != 0) {
      const std::uint8_t out =
          table[static_cast<std::size_t>(route_base[fz] + head_dst[fz])];
      expect[fz] = out == kUnreachableRoute ? -1 : static_cast<int>(out);
    }
  }

  std::vector<WantScanRow> rows;
  for (int t = 0; t < simd::kTierCount; ++t) {
    const simd::KernelTable* kt =
        simd::kernel_table(static_cast<simd::Tier>(t));
    if (kt == nullptr) continue;
    WantScanRow row;
    row.tier = kt->tier;
    row.ms = time_ms(budget_ms, [&] {
      kt->noc_want_scan(fifo_size.data(), head_is_head.data(),
                        head_dst.data(), route_base.data(), table.data(),
                        padded, want.data());
    });
    row.speedup = rows.empty() ? 1.0 : rows[0].ms / row.ms;
    for (int f = 0; f < padded && row.exact; ++f)
      if (want[static_cast<std::size_t>(f)] !=
          expect[static_cast<std::size_t>(f)])
        row.exact = false;
    rows.push_back(row);
  }
  return rows;
}

struct DecodeRow {
  std::string config;
  int mesh = 0;
  std::uint64_t cycles_per_block = 0;
  double ms_per_block = 0.0;
  double ns_per_cycle = 0.0;   ///< host time per simulated fabric cycle
  double skipped_share = 0.0;  ///< cycles advanced by advance_idle
  bool golden_match = false;
};

/// Times decode_block on one full-scale chip configuration, placed the way
/// ReconfigurableLdpcSystem places it (cluster c on tile c).
DecodeRow run_decode_row(const std::string& name, double budget_ms) {
  const ChipConfig cfg = config_by_name(name);
  const BuiltChip chip = build_chip(cfg);
  std::vector<int> placement = identity_permutation(cfg.dim.node_count());
  placement.resize(static_cast<std::size_t>(chip.partition.cluster_count));
  Fabric fabric(cfg.noc);
  NocLdpcDecoder decoder(fabric, chip.code, chip.partition, placement,
                         cfg.ldpc_params);
  DecodeRow row;
  row.config = name;
  row.mesh = cfg.dim.width;
  // The first block warms the payload pool and doubles as the skip probe.
  const Cycle now0 = fabric.now();
  const Cycle skipped0 = fabric.skipped_cycles();
  NocDecodeResult res = decoder.decode_block(chip.channel_llrs);
  row.cycles_per_block = res.cycles;
  row.skipped_share =
      static_cast<double>(fabric.skipped_cycles() - skipped0) /
      static_cast<double>(fabric.now() - now0);
  row.ms_per_block = time_ms(
      budget_ms, [&] { res = decoder.decode_block(chip.channel_llrs); });
  row.ns_per_cycle =
      row.ms_per_block * 1e6 / static_cast<double>(row.cycles_per_block);
  const MinSumDecoder golden(chip.code, cfg.ldpc_params.iterations);
  row.golden_match =
      res.hard_bits == golden.decode(chip.channel_llrs).hard_bits;
  return row;
}

struct SweepGuard {
  int scenarios = 0;
  bool deterministic = true;
  std::vector<std::pair<int, double>> thread_ms;
};

bool points_equal(const std::vector<SweepPoint>& a,
                  const std::vector<SweepPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const SweepPoint& x = a[i];
    const SweepPoint& y = b[i];
    if (x.messages_sent != y.messages_sent ||
        x.messages_received != y.messages_received ||
        x.messages_skipped != y.messages_skipped ||
        x.packets_delivered != y.packets_delivered ||
        x.flits_delivered != y.flits_delivered || x.cycles != y.cycles ||
        x.avg_latency_cycles != y.avg_latency_cycles ||
        x.max_latency_cycles != y.max_latency_cycles ||
        x.packets_retried != y.packets_retried ||
        x.packets_dropped != y.packets_dropped ||
        x.packets_unreachable != y.packets_unreachable ||
        x.duplicates_suppressed != y.duplicates_suppressed ||
        x.route_epochs != y.route_epochs)
      return false;
  }
  return true;
}

/// Degraded-fabric CI guards: packet conservation under faults, zero
/// steady-state allocations with an active fault plan, and thread-count
/// invariance of the fault-axis sweep.
struct DegradedGuard {
  bool conservation = true;
  long long steady_allocs = 0;
  int fault_scenarios = 0;
  bool fault_sweep_deterministic = true;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t unreachable = 0;
  std::uint64_t retried = 0;
  std::uint64_t duplicates = 0;
  int route_epochs = 0;
};

void write_json(const std::string& path, bool smoke,
                const std::vector<CompareRow>& compares,
                const std::vector<RateRow>& rates,
                const std::vector<WantScanRow>& want_scan,
                const std::vector<DecodeRow>& decode,
                long long steady_allocs, const SweepGuard& sweep,
                const DegradedGuard& degraded,
                const bench::ServiceGuardResult& service) {
  AtomicFile out(path);
  JsonWriter json(out.stream());
  json.begin_object();
  json.key("bench").string("micro_noc");
  json.key("smoke").boolean(smoke);
  bench::write_machine_json(json);
  json.key("engine_compare").begin_array();
  for (const CompareRow& r : compares) {
    json.begin_object();
    json.key("scenario").string(r.scenario);
    json.key("cycles").uinteger(r.cycles);
    json.key("packets").uinteger(r.packets);
    json.key("bit_exact").boolean(r.bit_exact);
    json.end_object();
  }
  json.end_array();
  json.key("step_rate").begin_array();
  for (const RateRow& r : rates) {
    json.begin_object();
    json.key("mesh").integer(r.side);
    json.key("rate").real(r.rate, 2);
    json.key("words").integer(r.words);
    json.key("seed_ms").real(r.seed_ms);
    json.key("flat_ms").real(r.flat_ms);
    json.key("seed_cycles_per_sec").real(r.seed_cps, 0);
    json.key("flat_cycles_per_sec").real(r.flat_cps, 0);
    json.key("speedup").real(r.speedup, 3);
    json.end_object();
  }
  json.end_array();
  json.key("want_scan").begin_object();
  json.key("active_tier").string(simd::active_tier_name());
  json.key("tiers").begin_array();
  for (const WantScanRow& r : want_scan) {
    json.begin_object();
    json.key("tier").string(simd::tier_name(r.tier));
    json.key("ms").real(r.ms);
    json.key("speedup").real(r.speedup, 3);
    json.key("exact").boolean(r.exact);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  json.key("decode").begin_array();
  for (const DecodeRow& r : decode) {
    json.begin_object();
    json.key("config").string(r.config);
    json.key("mesh").integer(r.mesh);
    json.key("cycles_per_block").uinteger(r.cycles_per_block);
    json.key("ms_per_block").real(r.ms_per_block, 3);
    json.key("ns_per_cycle").real(r.ns_per_cycle, 1);
    json.key("skipped_share").real(r.skipped_share, 4);
    json.key("golden_match").boolean(r.golden_match);
    json.end_object();
  }
  json.end_array();
  json.key("steady_state_allocs").integer(steady_allocs);
  json.key("sweep_determinism").begin_object();
  json.key("scenarios").integer(sweep.scenarios);
  json.key("deterministic").boolean(sweep.deterministic);
  json.key("threads").begin_array();
  for (const auto& [threads, ms] : sweep.thread_ms) {
    json.begin_object();
    json.key("threads").integer(threads);
    json.key("ms").real(ms, 3);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  json.key("degraded_fabric").begin_object();
  json.key("conservation").boolean(degraded.conservation);
  json.key("steady_state_allocs").integer(degraded.steady_allocs);
  json.key("fault_scenarios").integer(degraded.fault_scenarios);
  json.key("fault_sweep_deterministic")
      .boolean(degraded.fault_sweep_deterministic);
  json.key("packets_delivered").uinteger(degraded.delivered);
  json.key("packets_dropped").uinteger(degraded.dropped);
  json.key("packets_unreachable").uinteger(degraded.unreachable);
  json.key("packets_retried").uinteger(degraded.retried);
  json.key("duplicates_suppressed").uinteger(degraded.duplicates);
  json.key("route_epochs").integer(degraded.route_epochs);
  json.end_object();
  bench::write_service_guard_json(json, service);
  json.end_object();
  out.commit();
  std::printf("\nwrote %s\n", path.c_str());
}

int run(bool smoke, const std::string& json_path) {
  const std::vector<int> sides = smoke ? std::vector<int>{4}
                                       : std::vector<int>{4, 8};
  const int compare_cycles = smoke ? 400 : 2000;
  const double budget_ms = smoke ? 15.0 : 400.0;
  bool ok = true;

  // --- Bit-exactness: seed vs flat on identical schedules ---------------
  Table cmp_table({"scenario", "cycles", "packets", "bit-exact"});
  cmp_table.set_title(
      std::string("Seed (deque/map) vs flat (arena) engine on identical "
                  "send schedules") +
      (smoke ? " [smoke]" : ""));
  std::vector<CompareRow> compares;
  auto add_compare = [&](const std::string& name, const DriveRecord& ref,
                         const DriveRecord& flat) {
    CompareRow row;
    row.scenario = name;
    row.cycles = ref.final_cycle;
    row.packets = ref.packets;
    row.bit_exact = ref == flat;
    compares.push_back(row);
    cmp_table.add_row({row.scenario, std::to_string(row.cycles),
                       std::to_string(row.packets),
                       row.bit_exact ? "yes" : "NO"});
    ok = ok && row.bit_exact;
  };
  for (int side : sides)
    for (double rate : {0.10, 0.30}) {
      ReferenceFabric ref(mesh(side));
      Fabric flat(mesh(side));
      const auto a = drive_uniform(ref, compare_cycles, rate, 4, 42);
      const auto b = drive_uniform(flat, compare_cycles, rate, 4, 42);
      add_compare("uniform-" + std::to_string(side) + "x" +
                      std::to_string(side) + "-r" + Table::num(rate, 2),
                  a, b);
    }
  for (int depth : {1, 4}) {
    ReferenceFabric ref(mesh(4, depth));
    Fabric flat(mesh(4, depth));
    const auto a = drive_hotspot(ref, smoke ? 4 : 12, 16);
    const auto b = drive_hotspot(flat, smoke ? 4 : 12, 16);
    add_compare("hotspot-4x4-d" + std::to_string(depth), a, b);
  }
  cmp_table.print(std::cout);

  // --- Step-rate: simulated cycles per second, seed vs flat -------------
  // Every NI starts with a deep uniform backlog and only fabric.run() is
  // inside the timed region, so this is the cost of step() itself on a
  // continuously loaded mesh (the acceptance number for the flat engine).
  Table rate_table({"mesh", "msgs/node", "words", "cycles", "seed ms",
                    "flat ms", "seed Mcyc/s", "flat Mcyc/s", "speedup"});
  rate_table.set_title(
      "Loaded-mesh step rate: pure fabric.run() on a backlogged mesh, "
      "best-of-N");
  std::vector<RateRow> rate_rows;
  for (int side : sides) {
    RateRow row;
    row.side = side;
    row.words = 4;
    const int msgs_per_node = smoke ? 20 : 60;
    row.rate = 1.0;  // NIs saturate: one flit injected per node per cycle
    // Run for 3/4 of the backlog's drain time so the mesh stays loaded
    // through the whole timed region (verified below).
    Fabric probe =
        make_backlogged<Fabric>(side, msgs_per_node, row.words, 5);
    const int drain_cycles = probe.drain();
    const int cycles = std::max(50, drain_cycles * 3 / 4);
    {
      Fabric check =
          make_backlogged<Fabric>(side, msgs_per_node, row.words, 5);
      check.run(cycles);
      RENOC_CHECK_MSG(!check.idle(),
                      "timed region outlived the backlog — raise msgs/node");
    }
    row.seed_ms = time_backlogged_run_ms<ReferenceFabric>(
        budget_ms, side, msgs_per_node, row.words, cycles);
    row.flat_ms = time_backlogged_run_ms<Fabric>(
        budget_ms, side, msgs_per_node, row.words, cycles);
    row.seed_cps = static_cast<double>(cycles) / (row.seed_ms / 1e3);
    row.flat_cps = static_cast<double>(cycles) / (row.flat_ms / 1e3);
    row.speedup = row.seed_ms / row.flat_ms;
    rate_rows.push_back(row);
    rate_table.add_row(
        {std::to_string(side) + "x" + std::to_string(side),
         std::to_string(msgs_per_node), std::to_string(row.words),
         std::to_string(cycles), Table::num(row.seed_ms, 3),
         Table::num(row.flat_ms, 3), Table::num(row.seed_cps / 1e6, 2),
         Table::num(row.flat_cps / 1e6, 2), Table::num(row.speedup, 2)});
  }
  rate_table.print(std::cout);

  // --- Arbitration want-scan kernel, per SIMD tier ----------------------
  const std::vector<WantScanRow> want_rows =
      run_want_scan_rows(smoke ? 8 : 16, budget_ms);
  Table want_table({"tier", "scan ms", "speedup", "exact"});
  want_table.set_title(
      std::string("Arbitration want[]-prepass over all port mirrors (") +
      (smoke ? "8x8" : "16x16") +
      " mesh), every compiled SIMD tier; active tier: " +
      simd::active_tier_name());
  for (const WantScanRow& r : want_rows) {
    want_table.add_row({simd::tier_name(r.tier), Table::num(r.ms, 5),
                        Table::num(r.speedup, 2), r.exact ? "yes" : "NO"});
    ok = ok && r.exact;
  }
  want_table.print(std::cout);

  // --- NoC-mapped LDPC decode: the end-to-end NoC layer ------------------
  Table decode_table({"config", "mesh", "cycles/block", "ms/block",
                      "ns/cycle", "skipped", "== golden"});
  decode_table.set_title(
      "NocLdpcDecoder::decode_block at full scale, best-of-N; skipped = "
      "share of cycles advanced by advance_idle");
  std::vector<DecodeRow> decode_rows;
  for (const char* name : smoke ? std::vector<const char*>{"A"}
                                : std::vector<const char*>{"A", "E"}) {
    const DecodeRow r = run_decode_row(name, smoke ? 1.0 : 2000.0);
    decode_table.add_row(
        {r.config,
         std::to_string(r.mesh) + "x" + std::to_string(r.mesh),
         std::to_string(r.cycles_per_block), Table::num(r.ms_per_block, 2),
         Table::num(r.ns_per_cycle, 0),
         Table::num(100.0 * r.skipped_share, 1) + "%",
         r.golden_match ? "yes" : "NO"});
    ok = ok && r.golden_match;
    decode_rows.push_back(r);
  }
  decode_table.print(std::cout);

  // --- Steady-state allocation guard ------------------------------------
  // Deterministic periodic load (every node sends a 4-word message to its
  // east neighbor every 6 cycles, all deliveries recycled): demand on the
  // payload pool and every ring is exactly periodic, so one warm-up period
  // reaches every high-water mark and the measured window must perform
  // ZERO heap allocations. A stochastic load would merely make this
  // probabilistic — extreme-value queue tails keep finding new maxima.
  long long steady_allocs = 0;
  {
    Fabric fabric(mesh(smoke ? 4 : 8));
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
    pump(smoke ? 240 : 600);  // warm-up: pool, rings, staging at high water
    const AllocGuard guard;
    pump(smoke ? 240 : 600);
    steady_allocs = guard.count();
  }
  std::printf(
      "steady-state allocations over the measured step window: %lld%s\n",
      steady_allocs,
      alloc_guard::instrumented() ? "" : " (uninstrumented: not checked)");
  ok = ok && (steady_allocs == 0 || !alloc_guard::instrumented());

  // --- Sweep-harness thread determinism ----------------------------------
  SweepConfig scfg;
  scfg.patterns = {TrafficPattern::kUniformRandom, TrafficPattern::kTranspose,
                   TrafficPattern::kBitReverse};
  scfg.mesh_sides = {4};
  scfg.injection_rates = {0.05, 0.25};
  scfg.message_words = {2, 8};
  scfg.warmup_cycles = smoke ? 100 : 300;
  scfg.measure_cycles = smoke ? 300 : 1500;
  scfg.seed = 99;
  SweepGuard sweep;
  sweep.scenarios = static_cast<int>(scfg.scenarios().size());
  std::vector<SweepPoint> baseline;
  for (int threads : {1, 2, 4}) {
    scfg.threads = threads;
    std::vector<SweepPoint> pts;
    const double ms =
        time_ms(smoke ? 1.0 : 50.0, [&] { pts = run_noc_sweep(scfg); });
    sweep.thread_ms.emplace_back(threads, ms);
    if (threads == 1)
      baseline = pts;
    else if (!points_equal(baseline, pts))
      sweep.deterministic = false;
  }
  Table sweep_table({"threads", "sweep ms", "deterministic"});
  sweep_table.set_title(
      "Scenario sweep (" + std::to_string(sweep.scenarios) +
      " scenarios): results must not depend on thread count");
  for (const auto& [threads, ms] : sweep.thread_ms)
    sweep_table.add_row({std::to_string(threads), Table::num(ms, 2),
                         sweep.deterministic ? "yes" : "NO"});
  sweep_table.print(std::cout);
  ok = ok && sweep.deterministic;

  // --- Degraded-fabric guards --------------------------------------------
  DegradedGuard degraded;

  // (a) Packet conservation under every fault kind: every message send()
  // accepts resolves as exactly one of delivered / dropped / unreachable
  // once the fabric drains. A packet lost without a drop record breaks the
  // count and fails the bench.
  {
    int plan_index = 0;
    for (FaultKind kind :
         {FaultKind::kLinkDead, FaultKind::kRouterDead, FaultKind::kLinkFlaky}) {
      Fabric fabric(mesh(smoke ? 4 : 6));
      DeliveryGuardConfig g;
      g.timeout_cycles = 256;
      fabric.configure_delivery_guard(g);
      FaultSpec spec;
      spec.kind = kind;
      spec.count = kind == FaultKind::kRouterDead ? 2 : 3;
      spec.onset_min = 100;
      spec.onset_max = 600;
      fabric.install_fault_plan(
          make_fault_plan(fabric.config().dim, spec,
                          fault_scenario_rng(7, plan_index++)));
      const DriveRecord rec =
          drive_uniform(fabric, smoke ? 900 : 1500, 0.05, 4, 1234);
      const NetworkStats& st = fabric.stats();
      degraded.conservation =
          degraded.conservation &&
          st.packets_delivered() + st.packets_dropped() +
                  st.packets_unreachable() ==
              rec.sent;
      degraded.delivered += st.packets_delivered();
      degraded.dropped += st.packets_dropped();
      degraded.unreachable += st.packets_unreachable();
      degraded.retried += st.packets_retried();
      degraded.duplicates += st.duplicates_suppressed();
      degraded.route_epochs += fabric.route_epoch();
    }
  }

  // (b) Steady-state allocation guard with an active fault plan: all fault
  // events land during warm-up, so the measured window steps a degraded
  // fabric (adaptive tables, delivery guard, tracked sends) that must be
  // allocation-free just like the pristine engine. The send period is slow
  // enough that stop-and-wait never backs the NI queues up.
  {
    Fabric fabric(mesh(4));
    fabric.configure_delivery_guard(DeliveryGuardConfig{});
    FaultSpec spec;
    spec.kind = FaultKind::kLinkDead;
    spec.count = 2;
    spec.onset_min = 50;
    spec.onset_max = 150;
    fabric.install_fault_plan(
        make_fault_plan(fabric.config().dim, spec, fault_scenario_rng(11, 0)));
    const int n = fabric.node_count();
    const GridDim dim = fabric.config().dim;
    auto pump = [&](int cycles) {
      for (int c = 0; c < cycles; ++c) {
        if (c % 64 == 0) {
          for (int src = 0; src < n; ++src) {
            const GridCoord co = index_to_coord(src, dim);
            Message m = fabric.acquire_message();
            m.src = src;
            m.dst = coord_to_index({(co.x + 1) % dim.width, co.y}, dim);
            m.tag = static_cast<std::uint64_t>(c);
            m.payload.assign(4, 0x5a5a5a5aULL);
            fabric.send(std::move(m));
          }
        }
        fabric.step();
        for (int node = 0; node < n; ++node)
          while (auto msg = fabric.try_receive(node))
            fabric.recycle(std::move(*msg));
      }
    };
    pump(1600);  // warm-up: every fault applied, retries settled, rings warm
    const AllocGuard guard;
    pump(512);
    degraded.steady_allocs = guard.count();
  }

  // (c) Fault-axis sweep: bit-identical results for any thread count, with
  // the degraded axes exercising plan installation and the delivery guard.
  {
    SweepConfig fcfg;
    fcfg.mesh_sides = {4};
    fcfg.injection_rates = {0.05};
    fcfg.message_words = {4};
    fcfg.fault_counts = {0, 2};
    fcfg.fault_kinds = {FaultKind::kLinkDead, FaultKind::kLinkFlaky};
    fcfg.retry_budgets = {kGuardDisabled, 2};
    fcfg.warmup_cycles = smoke ? 100 : 300;
    fcfg.measure_cycles = smoke ? 300 : 1000;
    fcfg.seed = 1307;
    degraded.fault_scenarios = static_cast<int>(fcfg.scenarios().size());
    std::vector<SweepPoint> fault_baseline;
    for (int threads : {1, 2, 4}) {
      fcfg.threads = threads;
      const std::vector<SweepPoint> pts = run_noc_sweep(fcfg);
      if (threads == 1)
        fault_baseline = pts;
      else if (!points_equal(fault_baseline, pts))
        degraded.fault_sweep_deterministic = false;
    }
  }

  std::printf(
      "degraded fabric: conservation %s, steady-state allocs %lld%s, "
      "fault sweep (%d scenarios) %s\n",
      degraded.conservation ? "holds" : "BROKEN", degraded.steady_allocs,
      alloc_guard::instrumented() ? "" : " (uninstrumented: not checked)",
      degraded.fault_scenarios,
      degraded.fault_sweep_deterministic ? "deterministic" : "NONDETERMINISTIC");
  ok = ok && degraded.conservation && degraded.fault_sweep_deterministic &&
       (degraded.steady_allocs == 0 || !alloc_guard::instrumented());

  // --- Sweep service guards ---------------------------------------------
  // The NoC sweep through util/sweep: shard splits and a kill/resume cycle
  // must merge to the exact points the direct sweep produced.
  SweepConfig svc_cfg;
  svc_cfg.patterns = {TrafficPattern::kUniformRandom,
                      TrafficPattern::kTranspose};
  svc_cfg.mesh_sides = {4};
  svc_cfg.injection_rates = {0.05, 0.15, 0.25};
  svc_cfg.message_words = {4};
  svc_cfg.fault_counts = {0, 2};
  svc_cfg.retry_budgets = {3};
  svc_cfg.warmup_cycles = smoke ? 100 : 300;
  svc_cfg.measure_cycles = smoke ? 300 : 1000;
  svc_cfg.seed = 99;
  const sweep::SweepSpec svc_spec = make_noc_sweep_spec(svc_cfg);
  const bench::ServiceGuardResult service =
      bench::run_service_guard(svc_spec, "bench_noc_sweep_ckpt");
  Table service_table(
      {"scenarios", "resumed", "shard identity", "resume identity",
       "conserved"});
  service_table.set_title(
      "Sweep service (NoC spec): shard merges and checkpoint resume must "
      "be bit-identical to the direct run");
  service_table.add_row({std::to_string(service.scenarios),
                         std::to_string(service.resumed),
                         service.shard_identity ? "yes" : "NO",
                         service.resume_identity ? "yes" : "NO",
                         service.conserved ? "yes" : "NO"});
  service_table.print(std::cout);
  ok = ok && service.ok();

  write_json(json_path, smoke, compares, rate_rows, want_rows, decode_rows,
             steady_allocs, sweep, degraded, service);

  if (!ok) {
    std::cerr << "FAIL: flat fabric diverged from the seed reference, "
                 "a SIMD want-scan tier disagreed with the scalar prepass, "
                 "the NoC decode diverged from the golden decoder, "
                 "allocated in steady state, lost a packet without a drop "
                 "record, a sweep depended on thread count, or the sweep "
                 "service broke shard/resume identity\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace renoc

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_noc.json";
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
