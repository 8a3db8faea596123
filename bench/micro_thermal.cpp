// Microbenchmark of the thermal solvers against their dense LU oracle.
//
// Sweeps the refinement factor of a 4x4-tile die (node count = 48 *
// refine^2 + 10) and times, for the same RC network, the production
// solvers (sparse LDL^T) against a dense LU built here from
// RcNetwork::conductance() — the oracle the thermal tests compare against:
// factorization of G, steady solves, and backward-Euler transient steps —
// the inner loops of the periodic co-simulation and the grid-resolution
// ablation. Every row also cross-checks that the solver and the oracle
// agree to 1e-8 on a steady solve, so a broken sparse path fails the
// binary instead of printing fast nonsense.
//
// Results are also written as machine-readable JSON (BENCH_thermal.json
// by default, shared util/json emitter) so CI can archive them per commit
// alongside the other BENCH_*.json records.
//
// Usage: bench_micro_thermal [--smoke] [--json <path>]
//   --smoke   tiny sizes and budgets; used by CI and scripts/check.sh so
//             this target can never silently rot.
//   --json    output path for the JSON record (default BENCH_thermal.json).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_timing.hpp"
#include "floorplan/floorplan.hpp"
#include "thermal/hotspot_params.hpp"
#include "thermal/rc_network.hpp"
#include "thermal/solver.hpp"
#include "util/alloc_guard.hpp"
#include "util/json.hpp"
#include "util/matrix.hpp"
#include "util/sparse.hpp"
#include "util/table.hpp"

namespace renoc {
namespace {

/// Network of a 4x4-tile die subdivided refine x refine per tile (the same
/// construction as RefinedThermalModel): node count grows as 48 * refine^2
/// + 10 while the die keeps fitting the package.
RcNetwork net_for(int refine) {
  const int side = 4 * refine;
  return build_rc_network(
      make_grid_floorplan(GridDim{side, side},
                          date05_tile_area() /
                              (static_cast<double>(refine) * refine)),
      date05_hotspot_params());
}

using bench::time_ms;

struct RowResult {
  int refine = 0;
  int nodes = 0;
  int nnz_g = 0;
  int nnz_l = 0;
  double dense_factor_ms = 0.0;
  double sparse_factor_ms = 0.0;
  double dense_solve_ms = 0.0;
  double sparse_solve_ms = 0.0;
  double dense_step_ms = 0.0;
  double sparse_step_ms = 0.0;
  bool agree = true;
  double speedup = 0.0;  // dense / sparse, factor + solve
  long long steady_allocs = 0;  // warmed solve_die_power_into + step
};

RowResult run_row(Table& table, int refine, double budget_ms) {
  const RcNetwork net = net_for(refine);
  RowResult r;
  r.refine = refine;
  r.nodes = net.node_count();
  std::vector<double> power(static_cast<std::size_t>(net.die_count()), 2.0);
  power[0] = 9.0;

  constexpr double kDt = 2e-6;
  const std::vector<double> full = net.expand_die_power(power);
  const std::vector<double> c_over_dt = step_capacitance_diagonal(net, kDt);
  Matrix step_matrix = net.conductance();
  for (std::size_t i = 0; i < c_over_dt.size(); ++i)
    step_matrix(i, i) += c_over_dt[i];

  r.dense_factor_ms = time_ms(budget_ms, [&] {
    LuFactorization lu(net.conductance());
    (void)lu;
  });
  r.sparse_factor_ms = time_ms(budget_ms, [&] {
    SteadyStateSolver s(net);
    (void)s;
  });

  const LuFactorization dense(net.conductance());
  const SteadyStateSolver sparse(net);
  r.dense_solve_ms = time_ms(budget_ms, [&] { dense.solve(full); });
  r.sparse_solve_ms = time_ms(budget_ms, [&] { sparse.solve(full); });

  // The oracle's backward-Euler step does what TransientSolver::step does:
  // build C/dt * T + P, then solve against the factored C/dt + G.
  const LuFactorization dense_step(step_matrix);
  std::vector<double> dense_state(full.size(), 0.0);
  TransientSolver sparse_tr(net, kDt);
  r.dense_step_ms = time_ms(budget_ms, [&] {
    for (std::size_t i = 0; i < full.size(); ++i)
      dense_state[i] = c_over_dt[i] * dense_state[i] + full[i];
    dense_step.solve_in_place(dense_state);
  });
  r.sparse_step_ms = time_ms(budget_ms, [&] { sparse_tr.step(full); });

  const std::vector<double> rise_d = dense.solve(full);
  const std::vector<double> rise_s = sparse.solve(full);
  for (std::size_t i = 0; i < rise_d.size(); ++i)
    if (std::fabs(rise_d[i] - rise_s[i]) > 1e-8) r.agree = false;
  r.speedup = (r.dense_factor_ms + r.dense_solve_ms) /
              (r.sparse_factor_ms + r.sparse_solve_ms);

  // Steady-state allocation guard over the warmed allocation-free solve
  // paths (the value-returning solve above legitimately
  // allocates its result vector; the engines run on the _into/step forms).
  {
    std::vector<double> rise;
    sparse.solve_die_power_into(power, rise);  // warm-up sizes the buffer
    const AllocGuard guard;
    for (int i = 0; i < 8; ++i) {
      sparse.solve_die_power_into(power, rise);
      sparse_tr.step(full);
    }
    r.steady_allocs = guard.count();
  }

  const SparseLdlt ldlt(net.conductance_sparse());
  r.nnz_g = net.conductance_sparse().nnz();
  r.nnz_l = ldlt.factor_nnz();
  table.add_row({std::to_string(refine), std::to_string(4 * refine),
                 std::to_string(r.nodes), std::to_string(r.nnz_g),
                 std::to_string(r.nnz_l),
                 Table::num(r.dense_factor_ms, 3),
                 Table::num(r.sparse_factor_ms, 3),
                 Table::num(r.dense_solve_ms, 4),
                 Table::num(r.sparse_solve_ms, 4),
                 Table::num(r.dense_step_ms, 4),
                 Table::num(r.sparse_step_ms, 4),
                 Table::num(r.speedup, 1), r.agree ? "yes" : "NO"});
  return r;
}

void write_json(const std::string& path, bool smoke,
                const std::vector<RowResult>& rows) {
  AtomicFile out(path);
  JsonWriter json(out.stream());
  json.begin_object();
  json.key("bench").string("micro_thermal");
  json.key("smoke").boolean(smoke);
  json.key("rows").begin_array();
  for (const RowResult& r : rows) {
    json.begin_object();
    json.key("refine").integer(r.refine);
    json.key("nodes").integer(r.nodes);
    json.key("nnz_g").integer(r.nnz_g);
    json.key("nnz_l").integer(r.nnz_l);
    json.key("dense_factor_ms").real(r.dense_factor_ms);
    json.key("sparse_factor_ms").real(r.sparse_factor_ms);
    json.key("dense_solve_ms").real(r.dense_solve_ms);
    json.key("sparse_solve_ms").real(r.sparse_solve_ms);
    json.key("dense_step_ms").real(r.dense_step_ms);
    json.key("sparse_step_ms").real(r.sparse_step_ms);
    json.key("speedup").real(r.speedup, 3);
    json.key("steady_state_allocs").integer(r.steady_allocs);
    json.key("agree_1e8").boolean(r.agree);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  out.commit();
  std::printf("\nwrote %s\n", path.c_str());
}

int run(bool smoke, const std::string& json_path) {
  const std::vector<int> refines =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 3, 4, 6, 8};
  const double budget_ms = smoke ? 5.0 : 200.0;

  Table table({"refine", "side", "nodes", "nnz(G)", "nnz(L)", "LU fact ms",
               "LDLt fact ms", "LU solve ms", "LDLt solve ms", "LU step ms",
               "LDLt step ms", "speedup", "agree<=1e-8"});
  table.set_title(
      std::string("Thermal solve: sparse LDLt vs the dense LU oracle (4x4 "
                  "tiles subdivided refine x refine; speedup = dense "
                  "factor+solve over sparse)") +
      (smoke ? " [smoke]" : ""));

  std::vector<RowResult> rows;
  bool all_agree = true;
  bool alloc_free = true;
  for (int refine : refines) {
    rows.push_back(run_row(table, refine, budget_ms));
    all_agree = all_agree && rows.back().agree;
    alloc_free = alloc_free && (rows.back().steady_allocs == 0 ||
                                !alloc_guard::instrumented());
  }
  table.print(std::cout);
  write_json(json_path, smoke, rows);

  if (!all_agree) {
    std::cerr << "FAIL: sparse solver and dense LU oracle disagree beyond "
                 "1e-8\n";
    return 1;
  }
  if (!alloc_free) {
    std::cerr << "FAIL: warmed sparse solve_die_power_into/step allocated "
                 "in steady state\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace renoc

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_thermal.json";
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
