// Shared timing and machine-metadata helpers for the self-timing
// before/after benches (micro_thermal, micro_ldpc, micro_noc). One
// definition so the BENCH_*.json records are measured with the same
// methodology and name the machine the same way.
#pragma once

#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <string>
#include <thread>

#include "util/json.hpp"
#include "util/simd.hpp"

namespace renoc::bench {

/// Best-of-N wall time of op() in milliseconds: repeats until the budget is
/// spent (at least twice), reporting the fastest run. An untimed setup()
/// runs before every op(), for ops that consume their state.
inline double time_ms(double budget_ms, const std::function<void()>& setup,
                      const std::function<void()>& op) {
  using clock = std::chrono::steady_clock;
  double best = 1e300;
  double spent = 0.0;
  int reps = 0;
  while (reps < 2 || spent < budget_ms) {
    setup();
    const auto t0 = clock::now();
    op();
    const auto t1 = clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    best = std::min(best, ms);
    spent += ms;
    ++reps;
  }
  return best;
}

inline double time_ms(double budget_ms, const std::function<void()>& op) {
  return time_ms(budget_ms, [] {}, op);
}

/// First "model name" line of /proc/cpuinfo, or "unknown".
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

/// Writes the "machine" block of a BENCH_*.json record: core count, CPU
/// model, compiler (RENOC_BENCH_COMPILER, defined for every bench by
/// bench/CMakeLists.txt) and the active SIMD tier.
inline void write_machine_json(JsonWriter& json) {
  json.key("machine").begin_object();
  json.key("nproc").integer(
      static_cast<long long>(std::thread::hardware_concurrency()));
  json.key("cpu").string(cpu_model());
  json.key("compiler").string(RENOC_BENCH_COMPILER);
  json.key("simd_tier").string(simd::active_tier_name());
  json.end_object();
}

}  // namespace renoc::bench
