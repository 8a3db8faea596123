// renoc_perfbench: runs one benchmark workload and prints its record.
//
//   renoc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--smoke] [--spans PATH]
//
// Untraced (--trace 0): set up and run timed passes until the next pass
// would overrun S seconds (at least one pass, at least kMinSetupSamples
// set-ups), and report the end-to-end metrics as medians over them.
// Traced (--trace 1): one untraced pass, then one traced pass plus the
// workload's per-layer split; reports the per-layer metrics, the tracing
// overhead, and writes the spans to PATH.
//
// The last stdout line is one JSON object: metrics, check counts, the
// result digest and tolerance-compared reals, and the run's provenance.
// perfbench/run.py turns it into the benchmark's result line.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/simd.hpp"

namespace perfbench {
namespace {

constexpr int kMinSetupSamples = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string spans_path;
};

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload NAME --seed N --seconds S --trace 0|1"
               " [--smoke] [--spans PATH]\n";
  return 2;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      a.smoke = true;
    } else if (arg == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      a.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      a.seconds = std::stod(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (arg == "--spans" && has_value) {
      a.spans_path = argv[++i];
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0;
}

double median(std::vector<double> v) {
  RENOC_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// VmHWM, not getrusage: ru_maxrss survives execve, so a child would
// report its parent's peak when that is larger.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  RENOC_FAIL("no VmHWM in /proc/self/status");
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

bool same_result(const PassResult& a, const PassResult& b) {
  return a.digest == b.digest && a.reals == b.reals;
}

std::unique_ptr<Workload> make(const std::string& name,
                               const WorkloadOptions& opt) {
  if (name == "period_stream") return make_period_stream(opt);
  if (name == "ber_curve") return make_ber_curve(opt);
  if (name == "thermal_refine") return make_thermal_refine(opt);
  if (name == "noc_load") return make_noc_load(opt);
  return nullptr;
}

// Layers that get a self-time metric in the traced run. power and
// floorplan cost well under 1%, and util (the sweep orchestration) runs
// only inside whole-sweep calls the public API cannot split; all three
// are folded into their callers.
const std::vector<std::string> kLayers = {"noc", "ldpc", "core", "thermal",
                                          "mapping"};

int run(const Args& args) {
  std::unique_ptr<Workload> wl = make(args.workload, {args.seed, args.smoke});
  if (!wl) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  Checks checks;
  Metrics metrics;
  PassResult first;
  int passes = 0;
  const Clock::time_point start = Clock::now();

  std::vector<double> wall_samples;
  if (!args.trace) {
    std::vector<double> setup_samples;
    std::vector<double> rate_samples;
    const int repeats = wl->setup_repeats();
    const auto timed_setup = [&] {
      const Clock::time_point t0 = Clock::now();
      for (int r = 0; r < repeats; ++r) wl->setup();
      const double s = seconds_since(t0);
      setup_samples.push_back(s / repeats);
      return s;
    };
    double last_round = 0.0;
    do {
      const double setup = timed_setup();
      const Clock::time_point t0 = Clock::now();
      PassResult r = wl->pass();
      const double wall = seconds_since(t0);
      wl->verify(checks);
      wall_samples.push_back(wall);
      rate_samples.push_back(r.work / (r.work_s > 0.0 ? r.work_s : wall));
      if (passes == 0)
        first = std::move(r);
      else
        checks.expect(same_result(first, r),
                      "pass " + std::to_string(passes + 1) +
                          " reproduces pass 1 exactly");
      ++passes;
      last_round = setup + wall;
    } while (seconds_since(start) + last_round <= args.seconds);
    while (static_cast<int>(setup_samples.size()) < kMinSetupSamples)
      timed_setup();

    metrics.push_back({"setup_s", median(setup_samples), "s"});
    metrics.push_back({"wall_s", median(wall_samples), "s"});
    metrics.push_back({"work_per_s", median(rate_samples), "1/s"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MiB"});
  } else {
    wl->setup();
    const Clock::time_point t0 = Clock::now();
    first = wl->pass();
    const double untraced_wall = seconds_since(t0);
    wl->verify(checks);
    wl->setup();
    Tracer tracer;
    const PassResult traced =
        wl->traced(tracer, checks, untraced_wall, metrics);
    checks.expect(same_result(first, traced),
                  "traced pass reproduces the untraced pass exactly");
    passes = 2;
    // One pass of each kind, so this is noise-bound where a pass is long:
    // on period_stream (one ~20 s pass) a few percent of host noise swamps
    // the spans' own cost and the difference can come out negative.
    metrics.push_back({"trace.overhead_s",
                       tracer.total_s("bench.pass") - untraced_wall, "s"});
    const std::vector<double> self = tracer.self_s(kLayers);
    for (std::size_t l = 0; l < kLayers.size(); ++l)
      metrics.push_back({kLayers[l] + ".self_ms", ms(self[l]), "ms"});
    if (!args.spans_path.empty()) tracer.write_json(args.spans_path);
  }

  char digest_hex[17];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                static_cast<unsigned long long>(first.digest));
  std::ostringstream line;
  renoc::JsonWriter json(line);
  json.begin_object();
  json.key("workload").string(args.workload);
  json.key("seed").uinteger(args.seed);
  json.key("smoke").boolean(args.smoke);
  json.key("trace").integer(args.trace ? 1 : 0);
  json.key("passes").integer(passes);
  json.key("provenance").begin_object();
  json.key("nproc").integer(sysconf(_SC_NPROCESSORS_ONLN));
  json.key("cpu").string(cpu_model());
  json.key("compiler").string(RENOC_PERFBENCH_COMPILER);
  json.key("build_type").string(RENOC_PERFBENCH_BUILD_TYPE);
  json.key("simd_tier").string(renoc::simd::active_tier_name());
  json.end_object();
  json.key("metrics").begin_object();
  for (const Metric& m : metrics) {
    json.key(m.name).begin_object();
    json.key("value").real(m.value, 17);
    json.key("unit").string(m.unit);
    json.end_object();
  }
  json.end_object();
  json.key("attempted").integer(checks.attempted());
  json.key("failed").integer(checks.failed());
  json.key("failures").begin_array();
  for (const std::string& f : checks.failures()) json.string(f);
  json.end_array();
  json.key("wall_samples").begin_array();
  for (const double w : wall_samples) json.real(w, 9);
  json.end_array();
  json.key("digest").string(digest_hex);
  json.key("reals").begin_array();
  for (const double v : first.reals) json.real(v, 17);
  json.end_array();
  json.end_object();
  // JsonWriter pretty-prints; strings never hold a raw newline, so dropping
  // each newline and its indentation leaves the same JSON on one line.
  std::string compact;
  const std::string pretty = line.str();
  for (std::size_t i = 0; i < pretty.size(); ++i) {
    if (pretty[i] != '\n') {
      compact += pretty[i];
      continue;
    }
    while (i + 1 < pretty.size() && pretty[i + 1] == ' ') ++i;
  }
  std::cout << compact << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    if (!perfbench::parse(argc, argv, args)) return perfbench::usage(argv[0]);
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "renoc_perfbench: " << e.what() << "\n";
    return 1;
  }
}
