// period_stream: the paper's Section-3 migration-period study at full
// scale — configs A–E x {X-Y shift, rotation} x {1, 4, 8} blocks per
// period, each through ExperimentDriver::migration_energy_map,
// scheme_study and ReconfigurableLdpcSystem::run_stream, serially.
//
// Why: it is the slowest paper artifact, and run_stream's cycle-accurate
// NoC decode dominates it while the fabric is idle for a large share of
// decode cycles — the case NoC idle-skip work must speed up.
//
// Set-up is ExperimentDriver::prepare for every config (build_chip,
// placement, power measurement, steady factorization). The seed selects
// each config's LDPC code and the channel noise of its decoded block; the
// default seed keeps the paper configs' own.
#include <iterator>

#include "bench.hpp"
#include "core/experiment.hpp"
#include "core/reconfigurable_system.hpp"
#include "ldpc/noc_decoder.hpp"
#include "mapping/placer.hpp"
#include "thermal/rc_network.hpp"
#include "thermal/solver.hpp"
#include "util/rng.hpp"
#include "util/sweep.hpp"

namespace perfbench {
namespace {

using renoc::ChipConfig;
using renoc::MigrationScheme;

const MigrationScheme kSchemes[] = {MigrationScheme::kShiftXY,
                                    MigrationScheme::kRotation};

std::vector<ChipConfig> roster(const WorkloadOptions& opt) {
  std::vector<ChipConfig> cfgs;
  if (opt.smoke) {
    // The test suite's fast_config scale on the 4x4 chip.
    ChipConfig a = renoc::config_A();
    a.workload.code_n = 510;
    a.ldpc_params.iterations = 4;
    a.placer.iterations = 4000;
    cfgs.push_back(a);
  } else {
    cfgs = renoc::all_configs();
  }
  if (opt.seed != kDefaultSeed)
    for (ChipConfig& c : cfgs) {
      c.workload.code_seed =
          renoc::derive_stream_seed(c.workload.code_seed, opt.seed);
      c.channel_seed = renoc::derive_stream_seed(c.channel_seed, opt.seed);
    }
  return cfgs;
}

/// One run_stream of the study and what it measured.
struct StreamRun {
  renoc::StreamResult result;
  renoc::Cycle block_cycles = 0;
  std::uint64_t link_flits = 0;
  std::uint64_t node_cycles = 0;  ///< nodes x fabric cycles
};

class PeriodStream final : public Workload {
 public:
  explicit PeriodStream(const WorkloadOptions& opt)
      : cfgs_(roster(opt)),
        blocks_per_period_(opt.smoke ? std::vector<int>{1, 2}
                                     : std::vector<int>{1, 4, 8}) {}

  void setup() override {
    drivers_.clear();
    for (const ChipConfig& cfg : cfgs_) {
      drivers_.push_back(std::make_unique<renoc::ExperimentDriver>(cfg));
      drivers_.back()->prepare();
    }
  }

  PassResult pass() override { return study(nullptr); }

  void verify(Checks& checks) override {
    for (const renoc::SchemeEvaluation& ev : evals_)
      checks.expect(ev.thermal_converged,
                    "scheme study thermal co-simulation converged");
    for (const StreamRun& s : streams_) {
      checks.expect(s.result.all_blocks_match_golden,
                    "run_stream blocks match the golden decoder");
      checks.expect(s.result.migrations == 1,
                    "run_stream migrated exactly once");
    }
  }

  PassResult traced(Tracer& tracer, Checks& checks,
                    double /*untraced_wall_s*/, Metrics& out) override {
    std::vector<renoc::Cycle> prepared_block_cycles;
    std::vector<std::vector<int>> prepared_placement;
    for (const auto& d : drivers_) {
      prepared_block_cycles.push_back(d->block_cycles());
      prepared_placement.push_back(d->baseline_placement());
    }
    const PassResult result = study(&tracer);
    verify(checks);

    std::uint64_t cycles = 0, mig_cycles = 0, blocks = 0, link = 0, nc = 0;
    for (const StreamRun& s : streams_) {
      cycles += s.result.total_cycles;
      mig_cycles += s.result.migration_cycles;
      blocks += static_cast<std::uint64_t>(s.result.blocks);
      link += s.link_flits;
      nc += s.node_cycles;
    }
    const double stream_run_s = tracer.total_s("core.run_stream");

    // The split: prepare() one level finer through the public API, per
    // config: build_chip, the RC network's steady factorization,
    // placement, and the cycle-accurate measurement blocks. (The pass
    // itself already runs under spans one level below the study.)
    Span split(tracer, "bench.split");
    for (std::size_t i = 0; i < cfgs_.size(); ++i) {
      const ChipConfig& cfg = cfgs_[i];
      Span build(tracer, "ldpc.build_chip");
      const renoc::BuiltChip chip = renoc::build_chip(cfg);
      build.close();
      Span factor(tracer, "thermal.steady_factor");
      const renoc::RcNetwork net =
          renoc::build_rc_network(chip.floorplan, cfg.hotspot);
      const renoc::SteadyStateSolver steady(net);
      factor.close();
      Span place(tracer, "mapping.place");
      renoc::ThermalAwarePlacer placer(steady, cfg.dim, cfg.placer);
      const renoc::PlacementResult placed = placer.place(
          chip.compute_power_estimate, chip.traffic, cfg.workload.pins);
      place.close();
      checks.expect(placed.placement == prepared_placement[i],
                    "split placement matches prepare()");
      renoc::Fabric fabric(cfg.noc);
      renoc::NocLdpcDecoder decoder(fabric, chip.code, chip.partition,
                                    placed.placement, cfg.ldpc_params);
      renoc::Cycle last_block_cycles = 0;
      for (int b = 0; b < kMeasureBlocks; ++b) {
        Span block(tracer, "ldpc.noc_block");
        last_block_cycles = decoder.decode_block(chip.channel_llrs).cycles;
      }
      checks.expect(last_block_cycles == prepared_block_cycles[i],
                    "split decode_block cycles match prepare()");
    }
    split.close();

    const double n_cfg = static_cast<double>(cfgs_.size());
    out.push_back({"ldpc.build_chip_ms",
                   ms(tracer.total_s("ldpc.build_chip")) / n_cfg, "ms"});
    out.push_back({"mapping.place_ms",
                   ms(tracer.total_s("mapping.place")) / n_cfg, "ms"});
    out.push_back({"thermal.steady_factor_ms",
                   ms(tracer.total_s("thermal.steady_factor")) / n_cfg, "ms"});
    out.push_back({"ldpc.noc_block_ms",
                   ms(tracer.total_s("ldpc.noc_block")) /
                       (n_cfg * kMeasureBlocks),
                   "ms"});
    out.push_back({"noc.ns_per_cycle",
                   stream_run_s * 1e9 / static_cast<double>(cycles), "ns"});
    out.push_back({"core.migration_ms", ms(tracer.total_s("core.migration")),
                   "ms"});
    out.push_back({"core.thermal_study_ms",
                   ms(tracer.total_s("core.thermal_study")), "ms"});
    out.push_back({"core.stream_ms", ms(tracer.total_s("core.stream")), "ms"});
    out.push_back({"noc.cycles_per_block",
                   static_cast<double>(cycles - mig_cycles) /
                       static_cast<double>(blocks),
                   "cycles"});
    out.push_back({"core.migration_cycles", static_cast<double>(mig_cycles),
                   "cycles"});
    out.push_back({"noc.link_util",
                   static_cast<double>(link) / static_cast<double>(nc),
                   "ratio"});
    return result;
  }

 private:
  static constexpr int kMeasureBlocks = 2;  // prepare()'s default

  // The timed phase; with a tracer, the same calls under coarse spans.
  PassResult study(Tracer* tracer) {
    Span root(tracer, "bench.pass");
    evals_.clear();
    streams_.clear();
    renoc::sweep::DigestBuilder digest;
    PassResult out;
    for (std::size_t i = 0; i < cfgs_.size(); ++i) {
      renoc::ExperimentDriver& driver = *drivers_[i];
      std::vector<double> periods;
      for (const int blocks : blocks_per_period_)
        periods.push_back(blocks * driver.block_seconds());
      {
        Span s(tracer, "core.migration");
        for (const MigrationScheme scheme : kSchemes) {
          double joules = 0.0;
          for (const double j : driver.migration_energy_map(scheme))
            joules += j;
          out.reals.push_back(joules);
        }
      }
      std::vector<renoc::SchemeEvaluation> evals;
      {
        Span s(tracer, "core.thermal_study");
        evals = driver.scheme_study(
            std::vector<MigrationScheme>(std::begin(kSchemes),
                                         std::end(kSchemes)),
            periods);
      }
      digest.fold(driver.block_cycles());
      out.reals.push_back(driver.base_peak_temp_c());
      for (std::size_t e = 0; e < evals.size(); ++e) {
        const renoc::SchemeEvaluation& ev = evals[e];
        const int bpp = blocks_per_period_[e % blocks_per_period_.size()];
        digest.fold_int(ev.orbit_length).fold_int(ev.phases).fold(
            ev.state_flits);
        out.reals.push_back(ev.peak_temp_c);

        Span stream(tracer, "core.stream");
        Span build(tracer, "core.system_build");
        renoc::ReconfigurableLdpcSystem system(cfgs_[i], ev.scheme);
        build.close();
        Span run_span(tracer, "core.run_stream");
        StreamRun run;
        const Clock::time_point t0 = Clock::now();
        run.result = system.run_stream(2 * bpp, bpp);
        out.work_s += seconds_since(t0);
        run_span.close();
        run.block_cycles = system.block_cycles();
        const renoc::Fabric& fabric = system.fabric();
        run.link_flits = fabric.stats().total().link_flits;
        run.node_cycles = static_cast<std::uint64_t>(fabric.node_count()) *
                          fabric.now();
        digest.fold(run.result.total_cycles)
            .fold(run.result.migration_cycles)
            .fold(run.block_cycles)
            .fold_int(run.result.migrations);
        out.work += static_cast<double>(run.result.total_cycles);
        streams_.push_back(std::move(run));
      }
      evals_.insert(evals_.end(), evals.begin(), evals.end());
    }
    out.digest = digest.digest();
    drivers_.clear();  // the study consumed the prepared drivers' caches
    return out;
  }

  std::vector<ChipConfig> cfgs_;
  std::vector<int> blocks_per_period_;
  std::vector<std::unique_ptr<renoc::ExperimentDriver>> drivers_;
  std::vector<renoc::SchemeEvaluation> evals_;
  std::vector<StreamRun> streams_;
};

}  // namespace

std::unique_ptr<Workload> make_period_stream(const WorkloadOptions& opt) {
  return std::make_unique<PeriodStream>(opt);
}

}  // namespace perfbench
