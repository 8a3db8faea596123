// Before/after harness for the orbit co-simulation engine.
//
// Times the seed scalar orbit integration (core/reference_runtime) against
// the streamed engine (core/thermal_runtime) on the same migration
// scenarios, checking per-field agreement (<= 1e-10, exact on the
// integer/bool fields) while doing so; counts steady-state heap
// allocations of a warmed engine run(); times the multi-RHS adaptive
// lookahead against the per-candidate scalar path with a bit-match check;
// and scales the experiment sweep across threads with a determinism +
// replay cross-check. Guards fail the binary (nonzero exit), so wiring
// `--smoke` into CI makes divergence from the reference semantics a build
// break instead of a silent regression.
//
// Results are also written as machine-readable JSON (BENCH_runtime.json
// by default) so CI can archive them per commit.
//
// Usage: bench_micro_runtime [--smoke] [--json <path>]
//   --smoke   tiny sizes and budgets; used by CI and scripts/check.sh so
//             this target can never silently rot.
//   --json    output path for the JSON record (default BENCH_runtime.json).
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include "bench_timing.hpp"
#include "core/adaptive_policy.hpp"
#include "sweep_guard.hpp"
#include "util/json.hpp"
#include "core/experiment_sweep.hpp"
#include "core/reference_runtime.hpp"
#include "core/thermal_runtime.hpp"
#include "core/transform.hpp"
#include "floorplan/floorplan.hpp"
#include "thermal/hotspot_params.hpp"
#include "thermal/rc_network.hpp"
#include "thermal/solver.hpp"
#include "util/sparse.hpp"
#include "util/table.hpp"

// Steady-state allocations are counted by util/alloc_guard (referencing it
// links the interposed operator new/delete into this binary).
#include "util/alloc_guard.hpp"

namespace renoc {
namespace {

using bench::time_ms;

/// Network of a 4x4-tile die subdivided refine x refine per tile (the
/// same construction as RefinedThermalModel): node count grows as
/// 48 * refine^2 + 10.
RcNetwork net_for(int refine) {
  const int side = 4 * refine;
  return build_rc_network(
      make_grid_floorplan(GridDim{side, side},
                          date05_tile_area() /
                              (static_cast<double>(refine) * refine)),
      date05_hotspot_params());
}

/// Per-field agreement between an engine and a reference run.
bool results_agree(const ThermalRunResult& a, const ThermalRunResult& b,
                   double tol) {
  return std::fabs(a.peak_temp_c - b.peak_temp_c) <= tol &&
         std::fabs(a.mean_temp_c - b.mean_temp_c) <= tol &&
         std::fabs(a.ripple_c - b.ripple_c) <= tol &&
         std::fabs(a.steady_peak_of_avg_c - b.steady_peak_of_avg_c) <= tol &&
         a.orbits_run == b.orbits_run && a.converged == b.converged;
}

struct CosimRow {
  int refine = 0;
  int nodes = 0;
  int nnz_rcm = 0;   // factor fill under the default RCM ordering
  int nnz_md = 0;    // ... under the engine's minimum-degree ordering
  double ref_ms = 0.0;
  double engine_ms = 0.0;
  double speedup = 0.0;
  int orbits = 0;
  long long steady_allocs = 0;
  bool agree = true;
};

CosimRow run_cosim_row(int refine, double budget_ms) {
  const RcNetwork net = net_for(refine);
  const int side = 4 * refine;
  const double tiles = static_cast<double>(refine) * refine;
  std::vector<double> power(static_cast<std::size_t>(net.die_count()),
                            2.0 / tiles);
  power[0] = 9.0 / tiles;
  const auto orbit = orbit_permutations(
      Transform{TransformKind::kRotation, 0}, GridDim{side, side});
  // Uniform migration energy so the spiked-power path is exercised too.
  const std::vector<std::vector<double>> energy(
      orbit.size(),
      std::vector<double>(static_cast<std::size_t>(net.die_count()),
                          200e-6 / net.die_count()));

  CosimRow row;
  row.refine = refine;
  row.nodes = net.node_count();
  {
    const std::vector<double> cd(
        static_cast<std::size_t>(net.node_count()), 1.0);
    const SparseMatrix step = net.conductance_sparse().plus_diagonal(cd);
    row.nnz_rcm = SparseLdlt(step).factor_nnz();
    row.nnz_md = SparseLdlt(step, minimum_degree_ordering(step)).factor_nnz();
  }

  const ThermalRunOptions opt;
  const MigrationThermalRuntime engine(net, opt);
  const ReferenceThermalRuntime reference(net, opt);

  const ThermalRunResult re = engine.run(power, orbit, energy);
  const ThermalRunResult rr = reference.run(power, orbit, energy);
  row.orbits = re.orbits_run;
  row.agree = results_agree(re, rr, 1e-10);
  // The free-running (no-energy) scenario must agree too.
  row.agree = row.agree && results_agree(engine.run(power, orbit, {}),
                                         reference.run(power, orbit, {}),
                                         1e-10);

  row.engine_ms =
      time_ms(budget_ms, [&] { (void)engine.run(power, orbit, energy); });
  row.ref_ms =
      time_ms(budget_ms, [&] { (void)reference.run(power, orbit, energy); });
  row.speedup = row.ref_ms / row.engine_ms;

  // Steady-state allocation count of the warmed engine.
  const AllocGuard guard;
  for (int i = 0; i < 4; ++i) (void)engine.run(power, orbit, energy);
  row.steady_allocs = guard.count();
  return row;
}

struct PolicyRow {
  int nodes = 0;
  int candidates = 0;
  double scalar_ms = 0.0;
  double batch_ms = 0.0;
  double speedup = 0.0;
  bool bit_match = true;
};

PolicyRow run_policy_row(int refine, double budget_ms) {
  const RcNetwork net = net_for(refine);
  const int side = 4 * refine;
  const GridDim dim{side, side};
  AdaptivePolicy policy(net, dim, AdaptiveObjective::kPredictivePeak,
                        109.3e-6);
  std::vector<double> power(static_cast<std::size_t>(dim.node_count()), 1.0);
  power[static_cast<std::size_t>(dim.node_count() / 3)] = 6.0;
  const SteadyStateSolver steady(net);
  const std::vector<double> state = steady.solve_die_power(power);

  PolicyRow row;
  row.nodes = net.node_count();
  row.candidates = static_cast<int>(policy.candidates().size());

  std::vector<double> scalar_scores(policy.candidates().size());
  row.scalar_ms = time_ms(budget_ms, [&] {
    for (std::size_t j = 0; j < policy.candidates().size(); ++j)
      scalar_scores[j] =
          policy.predicted_peak(policy.candidates()[j], power, state);
  });
  std::vector<double> batch_scores;
  row.batch_ms = time_ms(budget_ms, [&] {
    batch_scores = policy.candidate_scores(power, state);
  });
  row.speedup = row.scalar_ms / row.batch_ms;
  row.bit_match = batch_scores.size() == scalar_scores.size();
  for (std::size_t j = 0; row.bit_match && j < batch_scores.size(); ++j)
    if (batch_scores[j] != scalar_scores[j]) row.bit_match = false;
  return row;
}

struct SweepScalingRow {
  int threads = 0;
  double ms = 0.0;
};

struct SweepScaling {
  std::vector<SweepScalingRow> rows;
  int scenarios = 0;
  bool deterministic = true;
  bool replay_ok = true;
};

bool points_equal(const ExperimentSweepPoint& a,
                  const ExperimentSweepPoint& b) {
  return a.scenario_index == b.scenario_index &&
         a.orbit_length == b.orbit_length && a.fine_nodes == b.fine_nodes &&
         a.static_peak_c == b.static_peak_c &&
         a.peak_temp_c == b.peak_temp_c &&
         a.reduction_c == b.reduction_c &&
         a.mean_temp_c == b.mean_temp_c && a.ripple_c == b.ripple_c &&
         a.steady_peak_of_avg_c == b.steady_peak_of_avg_c &&
         a.orbits_run == b.orbits_run && a.converged == b.converged;
}

SweepScaling run_sweep_scaling(bool smoke, double budget_ms) {
  ExperimentSweepConfig cfg;
  cfg.schemes = smoke ? std::vector<MigrationScheme>{
                            MigrationScheme::kRotation}
                      : std::vector<MigrationScheme>{
                            MigrationScheme::kRotation,
                            MigrationScheme::kShiftXY};
  cfg.periods_s = smoke ? std::vector<double>{109.3e-6}
                        : std::vector<double>{54.65e-6, 109.3e-6};
  cfg.power_scales = {1.0, 1.5};
  cfg.refines = {1, 2};
  cfg.power_jitter = 0.25;
  cfg.migration_energy_j = 50e-6;
  cfg.seed = 1234;

  SweepScaling scaling;
  std::vector<ExperimentSweepPoint> baseline;
  for (const int threads : {1, 2, 4}) {
    cfg.threads = threads;
    std::vector<ExperimentSweepPoint> pts;
    SweepScalingRow row;
    row.threads = threads;
    row.ms = time_ms(budget_ms, [&] { pts = run_experiment_sweep(cfg); });
    if (threads == 1) {
      baseline = pts;
      scaling.scenarios = static_cast<int>(pts.size());
    } else {
      if (pts.size() != baseline.size()) scaling.deterministic = false;
      for (std::size_t i = 0;
           scaling.deterministic && i < baseline.size(); ++i)
        if (!points_equal(baseline[i], pts[i]))
          scaling.deterministic = false;
    }
    scaling.rows.push_back(row);
  }
  // O(1) replay: any cell reproduces its sweep point exactly.
  const auto grid = cfg.scenarios();
  const int probe = static_cast<int>(grid.size()) / 2;
  scaling.replay_ok = points_equal(
      baseline[static_cast<std::size_t>(probe)],
      run_experiment_scenario(grid[static_cast<std::size_t>(probe)], cfg,
                              probe));
  return scaling;
}

void write_json(const std::string& path, bool smoke,
                const std::vector<CosimRow>& cosim,
                const PolicyRow& policy, const SweepScaling& sweep,
                const bench::ServiceGuardResult& service) {
  AtomicFile out(path);
  JsonWriter json(out.stream());
  json.begin_object();
  json.key("bench").string("micro_runtime");
  json.key("smoke").boolean(smoke);
  bench::write_machine_json(json);
  json.key("cosim").begin_array();
  for (const CosimRow& r : cosim) {
    json.begin_object();
    json.key("refine").integer(r.refine);
    json.key("nodes").integer(r.nodes);
    json.key("nnz_rcm").integer(r.nnz_rcm);
    json.key("nnz_md").integer(r.nnz_md);
    json.key("ref_ms").real(r.ref_ms);
    json.key("engine_ms").real(r.engine_ms);
    json.key("speedup").real(r.speedup, 3);
    json.key("orbits").integer(r.orbits);
    json.key("steady_state_allocs").integer(r.steady_allocs);
    json.key("agree_1e10").boolean(r.agree);
    json.end_object();
  }
  json.end_array();
  json.key("policy_lookahead").begin_object();
  json.key("nodes").integer(policy.nodes);
  json.key("candidates").integer(policy.candidates);
  json.key("scalar_ms").real(policy.scalar_ms);
  json.key("batch_ms").real(policy.batch_ms);
  json.key("speedup").real(policy.speedup, 3);
  json.key("bit_match").boolean(policy.bit_match);
  json.end_object();
  json.key("experiment_sweep").begin_object();
  json.key("scenarios").integer(sweep.scenarios);
  json.key("deterministic").boolean(sweep.deterministic);
  json.key("replay_ok").boolean(sweep.replay_ok);
  json.key("threads").begin_array();
  for (const SweepScalingRow& r : sweep.rows) {
    json.begin_object();
    json.key("threads").integer(r.threads);
    json.key("ms").real(r.ms);
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
  const std::vector<int> refines =
      smoke ? std::vector<int>{2} : std::vector<int>{2, 4, 6};
  const double budget_ms = smoke ? 1.0 : 400.0;

  // --- Orbit co-simulation: reference scalar loop vs streamed engine ---
  Table cosim_table({"refine", "nodes", "nnz rcm", "nnz md", "seed ms",
                     "engine ms", "speedup", "orbits", "steady allocs",
                     "agree<=1e-10"});
  cosim_table.set_title(
      std::string("Orbit co-simulation (4x4 tiles subdivided refine x "
                  "refine, rotation orbit + migration energy): seed scalar "
                  "loop vs streamed engine, best-of-N") +
      (smoke ? " [smoke]" : ""));
  std::vector<CosimRow> cosim_rows;
  bool ok = true;
  for (const int refine : refines) {
    const CosimRow r = run_cosim_row(refine, budget_ms);
    cosim_rows.push_back(r);
    cosim_table.add_row(
        {std::to_string(r.refine), std::to_string(r.nodes),
         std::to_string(r.nnz_rcm), std::to_string(r.nnz_md),
         Table::num(r.ref_ms, 2), Table::num(r.engine_ms, 2),
         Table::num(r.speedup, 2), std::to_string(r.orbits),
         std::to_string(r.steady_allocs), r.agree ? "yes" : "NO"});
    ok = ok && r.agree &&
         (r.steady_allocs == 0 || !alloc_guard::instrumented());
  }
  cosim_table.print(std::cout);

  // --- Adaptive lookahead: per-candidate scalar vs multi-RHS batch ------
  const PolicyRow policy = run_policy_row(smoke ? 2 : 4, budget_ms);
  Table policy_table({"nodes", "candidates", "scalar ms", "batch ms",
                      "speedup", "bit-match"});
  policy_table.set_title(
      "Predictive lookahead, one choose() round: k scalar integrations vs "
      "one multi-RHS batch");
  policy_table.add_row(
      {std::to_string(policy.nodes), std::to_string(policy.candidates),
       Table::num(policy.scalar_ms, 3), Table::num(policy.batch_ms, 3),
       Table::num(policy.speedup, 2), policy.bit_match ? "yes" : "NO"});
  policy_table.print(std::cout);
  ok = ok && policy.bit_match;

  // --- Experiment sweep thread scaling ----------------------------------
  const SweepScaling sweep = run_sweep_scaling(smoke, smoke ? 1.0 : 100.0);
  Table sweep_table({"threads", "sweep ms", "deterministic", "replay"});
  sweep_table.set_title(
      "Experiment sweep (" + std::to_string(sweep.scenarios) +
      " scenarios): thread scaling; results must not depend on thread "
      "count");
  for (const SweepScalingRow& r : sweep.rows)
    sweep_table.add_row({std::to_string(r.threads), Table::num(r.ms, 2),
                         sweep.deterministic ? "yes" : "NO",
                         sweep.replay_ok ? "yes" : "NO"});
  sweep_table.print(std::cout);
  ok = ok && sweep.deterministic && sweep.replay_ok;

  // --- Sweep service guards ---------------------------------------------
  // The experiment sweep through util/sweep: shard splits and a
  // kill/resume cycle must merge to the exact points the direct run
  // produced.
  ExperimentSweepConfig svc_cfg;
  svc_cfg.schemes = {MigrationScheme::kNone, MigrationScheme::kRotation};
  svc_cfg.periods_s = {109.3e-6};
  svc_cfg.power_scales = {1.0, 1.25};
  svc_cfg.refines = {1};
  svc_cfg.thermal.min_orbits = 1;
  svc_cfg.thermal.max_orbits = smoke ? 2 : 4;
  svc_cfg.thermal.tol_c = 0.5;
  svc_cfg.seed = 1234;
  const sweep::SweepSpec svc_spec = make_experiment_sweep_spec(svc_cfg);
  const bench::ServiceGuardResult service =
      bench::run_service_guard(svc_spec, "bench_runtime_sweep_ckpt");
  Table service_table(
      {"scenarios", "resumed", "shard identity", "resume identity",
       "conserved"});
  service_table.set_title(
      "Sweep service (experiment spec): shard merges and checkpoint "
      "resume must be bit-identical to the direct run");
  service_table.add_row({std::to_string(service.scenarios),
                         std::to_string(service.resumed),
                         service.shard_identity ? "yes" : "NO",
                         service.resume_identity ? "yes" : "NO",
                         service.conserved ? "yes" : "NO"});
  service_table.print(std::cout);
  ok = ok && service.ok();

  write_json(json_path, smoke, cosim_rows, policy, sweep, service);

  if (!ok) {
    std::cerr << "FAIL: engine diverged from the reference runtime, "
                 "allocated in steady state, batched lookahead scores "
                 "drifted, the experiment sweep depended on thread count, "
                 "or the sweep service broke shard/resume identity\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace renoc

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_runtime.json";
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
