// Shared plumbing of the repository benchmark: the workload interface,
// correctness-check accounting, and the span tracer of the per-layer run.
//
// A workload has a set-up (timed as `setup_s`), a timed pass (the phase
// whose host time is `wall_s`), and a traced variant that repeats the
// pass's public library calls one level finer under a Tracer. Spans are recorded
// from the benchmark's own files around calls into each library module;
// the library itself is not instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One reported metric: value with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Correctness-check ledger: every check counts as attempted; a check that
/// does not hold counts as failed and keeps its description.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// What one timed pass produced. `digest` folds every exact simulated
/// count; `reals` holds the simulated temperatures/latencies that are
/// compared within the golden tolerance instead of bit-for-bit.
struct PassResult {
  double work = 0.0;    ///< simulated work items the pass completed
  double work_s = 0.0;  ///< host time of that work; 0 means the whole pass
  std::uint64_t digest = 0;
  std::vector<double> reals;
};

/// Span recorder: name, start, end and parent, kept in memory and written
/// out when the run ends. The layer of a span is its name up to the first
/// '.': the src/ module whose public function the span times, or "bench"
/// for the benchmark's own wrappers (the traced pass, the split).
class Tracer {
 public:
  struct Record {
    std::string name;
    double start_s = 0.0;  ///< since the tracer was created
    double end_s = 0.0;
    int parent = -1;       ///< index of the enclosing span, -1 for a root
  };

  Tracer();
  int begin(std::string name);
  /// Closes span `id` and returns its duration in seconds.
  double end(int id);

  /// Sum over spans named `name` of their durations, in seconds.
  double total_s(const std::string& name) const;
  /// Self time per layer (span duration minus the part its children
  /// cover), in seconds, for every layer in `layers` (0 if unused). Spans
  /// of other layers, the bench wrappers among them, are left out. Work a
  /// timed call does in a lower module counts toward the caller's layer.
  std::vector<double> self_s(const std::vector<std::string>& layers) const;

  void write_json(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Record> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer makes it a no-op, so one code path serves
/// the untraced and the traced pass.
class Span {
 public:
  Span(Tracer* tracer, std::string name)
      : tracer_(tracer), id_(tracer ? tracer->begin(std::move(name)) : -1) {}
  Span(Tracer& tracer, std::string name) : Span(&tracer, std::move(name)) {}
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  /// Ends the span early and returns its duration in seconds.
  double close() {
    if (id_ < 0) return 0.0;
    const double d = tracer_->end(id_);
    id_ = -1;
    return d;
  }

 private:
  Tracer* tracer_;
  int id_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds what the next pass reuses. Called before every pass.
  virtual void setup() = 0;
  /// The timed phase. Consumes the state setup() built.
  virtual PassResult pass() = 0;
  /// Checks the last pass's simulated results (untimed).
  virtual void verify(Checks& checks) = 0;
  /// Traced run after a fresh setup(): repeats the pass under `tracer`
  /// inside a root span named "bench.pass" and verifies it, then splits
  /// it one level finer for the per-layer metrics it appends to `out`.
  /// `untraced_wall_s` is the wall time of an untraced pass of the run.
  virtual PassResult traced(Tracer& tracer, Checks& checks,
                            double untraced_wall_s, Metrics& out) = 0;
  /// Number of set-ups one setup_s sample times (and divides by), so a
  /// sample is long enough to read steadily.
  virtual int setup_repeats() const { return 1; }
};

/// The seed that reproduces the paper configurations unchanged.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct WorkloadOptions {
  std::uint64_t seed = kDefaultSeed;
  bool smoke = false;
};

std::unique_ptr<Workload> make_period_stream(const WorkloadOptions& opt);
std::unique_ptr<Workload> make_ber_curve(const WorkloadOptions& opt);
std::unique_ptr<Workload> make_thermal_refine(const WorkloadOptions& opt);
std::unique_ptr<Workload> make_noc_load(const WorkloadOptions& opt);

/// Worker threads of the sweep workloads (the traced per-item split runs
/// single-threaded).
inline constexpr int kSweepThreads = 2;

inline double ms(double s) { return s * 1e3; }

}  // namespace perfbench
