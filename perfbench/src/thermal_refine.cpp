// thermal_refine: run_experiment_sweep on the 4x4 tile grid — the five
// Figure-1 schemes x periods {109.3, 437.2} us x grid refinement
// {1, 2, 4, 6}, at least 8 orbits each, 2 worker threads.
//
// Why: it exercises only thermal/core factorisation and orbit
// integration. Refine 1 sits below the dense-solver node cutoff and
// refine >= 2 above it, so work on either thermal backend, or on the
// fill-reducing ordering, shows on its own side of the cutoff.
//
// Set-up builds one refined RC network and steady factorization per
// refinement; the check uses them to confirm each scenario's static
// baseline equals the steady-state solution. The seed drives the sweep's
// per-tile power jitter.
#include <cmath>
#include <map>

#include "bench.hpp"
#include "core/experiment_sweep.hpp"
#include "thermal/grid_refine.hpp"
#include "util/sweep.hpp"

namespace perfbench {
namespace {

using renoc::MigrationScheme;

/// Tile permutation lifted to the refined grid: every sub-block moves with
/// its tile (the same lift the sweep applies to its orbits).
std::vector<int> lift(const std::vector<int>& tile_perm,
                      const renoc::GridDim& dim, int refine) {
  const int fine_w = dim.width * refine;
  std::vector<int> out(tile_perm.size() * static_cast<std::size_t>(refine) *
                       static_cast<std::size_t>(refine));
  for (int ty = 0; ty < dim.height; ++ty)
    for (int tx = 0; tx < dim.width; ++tx) {
      const int dst = tile_perm[static_cast<std::size_t>(ty * dim.width + tx)];
      const int dx = dst % dim.width;
      const int dy = dst / dim.width;
      for (int sy = 0; sy < refine; ++sy)
        for (int sx = 0; sx < refine; ++sx)
          out[static_cast<std::size_t>((ty * refine + sy) * fine_w +
                                       tx * refine + sx)] =
              (dy * refine + sy) * fine_w + dx * refine + sx;
    }
  return out;
}

class ThermalRefine final : public Workload {
 public:
  explicit ThermalRefine(const WorkloadOptions& opt) {
    if (opt.smoke) {
      cfg_.schemes = {MigrationScheme::kNone, MigrationScheme::kShiftXY};
      cfg_.periods_s = {109.3e-6};
    } else {
      cfg_.periods_s = {109.3e-6, 437.2e-6};
    }
    cfg_.refines = {1, 2, 4, 6};
    // Most scenarios converge within 3-6 orbits, depending on the seed's
    // power jitter; integrating at least 8 makes nearly every scenario run
    // exactly 8, so each seed simulates the same work (to within 1%).
    cfg_.thermal.min_orbits = 8;
    cfg_.threads = kSweepThreads;
    cfg_.seed = opt.seed;
  }

  void setup() override {
    models_.clear();
    for (const int r : cfg_.refines) {
      auto model = std::make_unique<renoc::RefinedThermalModel>(
          cfg_.dim, cfg_.tile_area, cfg_.hotspot, r);
      model->steady_solver();
      models_.emplace(r, std::move(model));
    }
  }

  int setup_repeats() const override { return 10; }

  PassResult pass() override {
    points_ = renoc::run_experiment_sweep(cfg_);
    renoc::sweep::DigestBuilder digest;
    PassResult out;
    for (const renoc::ExperimentSweepPoint& p : points_) {
      digest.fold_int(p.orbit_length).fold_int(p.fine_nodes).fold_int(
          p.orbits_run);
      out.reals.push_back(p.peak_temp_c);
      out.reals.push_back(p.static_peak_c);
      out.reals.push_back(p.mean_temp_c);
      out.work += static_cast<double>(p.orbits_run) * p.orbit_length;
    }
    out.digest = digest.digest();
    return out;
  }

  void verify(Checks& checks) override {
    const std::vector<renoc::ExperimentScenario> grid = cfg_.scenarios();
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const renoc::ExperimentSweepPoint& p = points_[i];
      checks.expect(p.converged, "thermal scenario converged");
      const double steady = models_.at(p.scenario.refine)
                                ->peak_tile_temperature(
                                    renoc::experiment_scenario_power(
                                        cfg_, grid[i], static_cast<int>(i)));
      checks.expect(std::abs(p.static_peak_c - steady) <= 1e-6,
                    "static baseline equals the steady-state peak");
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

    // The split, per scenario, single-threaded: the sweep's own replay,
    // then the co-simulation run twice on one runtime — the first run pays
    // the factorizations, the second reuses them.
    Span split(tracer, "bench.split");
    const std::vector<renoc::ExperimentScenario> grid = cfg_.scenarios();
    struct PerRefine {
      double scenario_s = 0.0, factor_s = 0.0, orbit_s = 0.0;
      int scenarios = 0, orbit_scenarios = 0, fine_nodes = 0;
    };
    std::map<int, PerRefine> by_refine;
    int orbits_run = 0;
    double scenario_total_s = 0.0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const renoc::ExperimentScenario& sc = grid[i];
      const int idx = static_cast<int>(i);
      PerRefine& acc = by_refine[sc.refine];
      Span scenario(tracer, "core.scenario");
      const renoc::ExperimentSweepPoint replay =
          renoc::run_experiment_scenario(sc, cfg_, idx);
      const double scenario_s = scenario.close();
      acc.scenario_s += scenario_s;
      scenario_total_s += scenario_s;
      checks.expect(replay.peak_temp_c == points_[i].peak_temp_c &&
                        replay.orbits_run == points_[i].orbits_run,
                    "scenario replay reproduces the sweep point");
      orbits_run += points_[i].orbits_run;

      Span model_span(tracer, "thermal.refine_model");
      const renoc::RefinedThermalModel model(cfg_.dim, cfg_.tile_area,
                                             cfg_.hotspot, sc.refine);
      model_span.close();
      const int fine_nodes = model.fine_dim().node_count();
      std::vector<std::vector<int>> orbit;
      if (sc.scheme == MigrationScheme::kNone) {
        orbit.push_back(renoc::identity_permutation(fine_nodes));
      } else {
        for (const auto& perm : renoc::orbit_permutations(
                 renoc::transform_of(sc.scheme), cfg_.dim))
          orbit.push_back(lift(perm, cfg_.dim, sc.refine));
      }
      const std::vector<double> power = model.refine_power(
          renoc::experiment_scenario_power(cfg_, sc, idx));
      renoc::ThermalRunOptions topt = cfg_.thermal;
      topt.period_s = sc.period_s;
      const renoc::MigrationThermalRuntime runtime(model.network(), topt);
      Span cold(tracer, "core.runtime_run");
      const renoc::ThermalRunResult first = runtime.run(power, orbit, {});
      const double cold_s = cold.close();
      Span warm(tracer, "core.runtime_run");
      const renoc::ThermalRunResult second = runtime.run(power, orbit, {});
      const double warm_s = warm.close();
      checks.expect(first.peak_temp_c == points_[i].peak_temp_c &&
                        second.peak_temp_c == first.peak_temp_c,
                    "cold and warm runtime runs reproduce the sweep point");
      acc.factor_s += cold_s - warm_s;
      if (second.orbits_run > 0) {  // the static shortcut integrates none
        acc.orbit_s += warm_s / second.orbits_run;
        ++acc.orbit_scenarios;
      }
      acc.fine_nodes = fine_nodes;
      ++acc.scenarios;
    }
    split.close();

    for (const auto& [refine, acc] : by_refine) {
      const std::string suffix = ".r" + std::to_string(refine);
      const double n = acc.scenarios;
      out.push_back({"thermal.scenario_ms" + suffix, ms(acc.scenario_s) / n,
                     "ms"});
      out.push_back({"thermal.factor_ms" + suffix, ms(acc.factor_s) / n, "ms"});
      out.push_back({"thermal.orbit_ms" + suffix,
                     ms(acc.orbit_s) / std::max(1, acc.orbit_scenarios),
                     "ms"});
      out.push_back({"thermal.fine_nodes" + suffix,
                     static_cast<double>(acc.fine_nodes), "count"});
    }
    out.push_back({"thermal.orbits_run", static_cast<double>(orbits_run),
                   "count"});
    out.push_back({"util.sweep.parallel_eff",
                   scenario_total_s / (kSweepThreads * untraced_wall_s),
                   "ratio"});
    return result;
  }

 private:
  renoc::ExperimentSweepConfig cfg_;
  std::map<int, std::unique_ptr<renoc::RefinedThermalModel>> models_;
  std::vector<renoc::ExperimentSweepPoint> points_;
};

}  // namespace

std::unique_ptr<Workload> make_thermal_refine(const WorkloadOptions& opt) {
  return std::make_unique<ThermalRefine>(opt);
}

}  // namespace perfbench
