// Sweep service: the one scenario execution path behind the repo's three
// Monte-Carlo/scenario harnesses (ldpc/ber_harness, noc/sweep_harness,
// core/experiment_sweep).
//
// Each harness describes its sweep as a SweepSpec (scenario count, record
// shape, config fingerprint, runner factory) through its make_*_sweep_spec
// adapter. Everything that runs scenarios goes through run_sweep_shard:
// the in-process run_*_sweep entry points (one shard, no checkpoint,
// failures rethrown), the multi-process tools/renoc_sweep driver, and the
// bench guards. Its worker loop is the only one in src/. The contract it
// implements:
//
//   * scenario indexing — decode_scenario_index maps a flat index to
//     row-major axis digits (outermost axis first, last axis fastest), the
//     order every harness's scenario grid enumerates; any cell is
//     reachable in O(1) without walking the grid before it;
//   * stateless RNG — scenario_rng(seed, i) is the shared
//     derive_stream_seed idiom, so a scenario's stream never depends on
//     which worker, claim, shard, process, or resume attempt runs it;
//   * claims — workers take up to SweepSpec::claim_width scenarios per
//     bump of an atomic cursor and hand them to the runner in one call
//     (the BER adapter sets the width from BerConfig::batch_size and
//     decodes a wide claim through the batched decoder). Records are
//     per scenario, so the width never changes a result;
//   * sharding — shard i of n owns scenario indices {s : s % n == i}. A
//     stride (not a block split) keeps every shard's workload statistically
//     identical, and because records are keyed by scenario index the merge
//     of any N-way split is byte-identical to a 1-shard run;
//   * checkpointing — run_sweep_shard periodically flushes the completed
//     contiguous prefix of its scenarios to an append-only segment file
//     (schema/version header, scenario-range manifest, payload checksum),
//     published with util/json's atomic temp+fsync+rename writer, so a
//     SIGKILL at any instant leaves only whole, valid segments;
//   * resume — a restarted shard loads its segments, validates them
//     (truncated, bit-flipped, wrong-schema, overlapping-range, and
//     stale-config files are rejected with a CheckError naming the defect,
//     never silently merged), and re-enumerates only the missing
//     scenarios;
//   * conservation — every merge resolves each enumerated scenario as
//     exactly one of completed/failed/skipped and pins
//     completed + failed + skipped == enumerated (the same discipline the
//     degraded NoC applies to packet delivery).
//
// Results travel as fixed-width std::uint64_t records (doubles bit-packed
// via pack_double), so "byte-identical" is meaningful across processes and
// JSON round trips: the checkpoint files store the words as hex strings,
// never as JSON numbers, because the parser holds numbers as double and
// would silently round a 64-bit payload.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/rng.hpp"

namespace renoc::sweep {

// ---------------------------------------------------------------------------
// Scenario indexing
// ---------------------------------------------------------------------------

/// Number of scenarios a row-major axis shape enumerates (product of the
/// axis sizes). Every axis must be >= 1; the product must fit int64.
std::int64_t axis_product(const std::vector<std::int64_t>& shape);

/// Decodes flat `index` into per-axis digits, row-major with the LAST axis
/// fastest — the order of every harness's nested loops (outermost loop =
/// first axis). `digits` is caller-owned and resized to shape.size(), so a
/// worker loop decodes with zero allocations after the first call.
void decode_scenario_index(std::int64_t index,
                           const std::vector<std::int64_t>& shape,
                           std::vector<std::int64_t>& digits);

/// Inverse of decode_scenario_index. digits[k] must be in [0, shape[k]).
std::int64_t encode_scenario_index(const std::vector<std::int64_t>& digits,
                                   const std::vector<std::int64_t>& shape);

// ---------------------------------------------------------------------------
// Stateless per-scenario RNG
// ---------------------------------------------------------------------------

/// The RNG stream scenario `scenario_index` uses: a stateless SplitMix64
/// derivation from (seed, index), shared by all three harnesses. O(1), so
/// any scenario replays in isolation and shards never exchange RNG state.
/// Chain derive_stream_seed to fold more coordinates (ber_block_rng folds
/// point then block).
Rng scenario_rng(std::uint64_t seed, std::int64_t scenario_index);

// ---------------------------------------------------------------------------
// Config-validation and worker boilerplate (hoisted from the harnesses)
// ---------------------------------------------------------------------------

/// Axis non-emptiness check with the pinned shared message
/// "sweep needs at least one <axis>".
void require_axis(bool non_empty, const char* axis);

/// Thread-count check with the pinned shared message
/// "sweep threads must be >= 1, got <threads>".
void require_threads(int threads);

/// Workers actually spawned for `jobs` jobs: min(threads, jobs), at least 1.
int clamp_workers(int threads, std::int64_t jobs);

/// Runs body(0..workers-1) on `workers` threads (inline when workers == 1,
/// so single-threaded sweeps stay debuggable and allocation-free).
void run_workers(int workers, const std::function<void(int)>& body);

// ---------------------------------------------------------------------------
// Sharding
// ---------------------------------------------------------------------------

/// Shard `index` of `count`: owns scenario indices {s : s % count == index}.
struct Shard {
  int index = 0;
  int count = 1;

  void validate() const;
  bool owns(std::int64_t scenario) const {
    return scenario % count == index;
  }
  /// Scenarios this shard owns out of `enumerated`.
  std::int64_t owned_count(std::int64_t enumerated) const;
  /// The pos-th owned scenario (ascending): index + pos * count.
  std::int64_t owned_at(std::int64_t pos) const {
    return static_cast<std::int64_t>(index) + pos * count;
  }
};

// ---------------------------------------------------------------------------
// Records and specs
// ---------------------------------------------------------------------------

/// How an enumerated scenario resolved. Every merge classifies every
/// scenario as exactly one of these (the conservation law).
enum class Outcome { kCompleted = 0, kFailed = 1, kSkipped = 2 };

const char* to_string(Outcome o);

/// One scenario's result: `record_words` raw 64-bit words for kCompleted,
/// empty for kFailed/kSkipped. Doubles ride as pack_double bit patterns so
/// equality is bitwise, not approximate.
struct ScenarioRecord {
  std::int64_t scenario = 0;
  Outcome outcome = Outcome::kSkipped;
  std::vector<std::uint64_t> words;
};

/// Bit-exact double <-> uint64 transport (memcpy of the IEEE-754 pattern).
std::uint64_t pack_double(double v);
double unpack_double(std::uint64_t bits);

/// mix64-chained config fingerprint. Harness adapters fold every field
/// that determines scenario results (axes, seed, methodology knobs —
/// never thread/shard counts, which must not change results) so a resumed
/// checkpoint written under a different config is rejected, not merged.
class DigestBuilder {
 public:
  DigestBuilder& fold(std::uint64_t v);
  DigestBuilder& fold_int(long long v) {
    return fold(static_cast<std::uint64_t>(v));
  }
  DigestBuilder& fold_real(double v) { return fold(pack_double(v)); }
  DigestBuilder& fold_string(std::string_view s);
  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 0x243f6a8885a308d3ULL;  // pi fraction: fixed origin
};

/// One runner call: the scenario indices of a claim in, their records out
/// (scenario k's record_words words at words + k * record_words).
using SweepRunner =
    std::function<void(std::span<const std::int64_t>, std::uint64_t*)>;

/// A generic sweep: how many scenarios exist, the record shape, the config
/// fingerprint, and a runner factory. make_runner() is called once per
/// worker (the setup-hoisting point: decoders, fabrics, scratch buffers
/// live here, outside the per-scenario path); the returned runner takes
/// between 1 and claim_width scenarios per call.
struct SweepSpec {
  std::int64_t enumerated = 0;
  int record_words = 0;
  /// Most scenarios a worker claims per cursor bump and passes to one
  /// runner call (>= 1). Only adapters set it (the BER adapter from
  /// BerConfig::batch_size); it stays out of config_digest because a
  /// record never depends on which claim carried its scenario.
  int claim_width = 1;
  std::uint64_t config_digest = 0;
  std::function<SweepRunner()> make_runner;

  void validate() const;
};

/// Conservation counters for one merged sweep.
struct SweepCounts {
  std::int64_t enumerated = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  std::int64_t skipped = 0;

  bool conserved() const {
    return completed + failed + skipped == enumerated;
  }
};

// ---------------------------------------------------------------------------
// Checkpointing
// ---------------------------------------------------------------------------

/// Where a shard's checkpoint segments live. An empty directory disables
/// checkpointing. Segments are
///   <directory>/<tag>.shard<i>of<n>.seg<k>.json
/// with k dense from 0: a shard writes seg k only after seg k-1 exists, so
/// discovery probes sequentially and a crash can never leave a gap.
struct CheckpointConfig {
  std::string directory;
  std::string tag = "sweep";
  /// Completed scenarios per flushed segment (the checkpoint period).
  int every = 16;

  bool enabled() const { return !directory.empty(); }
};

/// Exit code of a crash injected via ShardRunOptions::crash_after_segments
/// (distinct from 0/1 so the driver can tell an injected crash from an
/// honest failure in tests).
inline constexpr int kCrashExitCode = 86;

struct ShardRunOptions {
  Shard shard{};
  int threads = 1;
  CheckpointConfig checkpoint{};
  /// true: a throwing runner call marks each scenario of its claim
  /// kFailed and the sweep continues (tools/renoc_sweep). false: the
  /// first exception aborts the run and is rethrown after the join (the
  /// in-process run_*_sweep entry points).
  bool capture_failures = false;
  /// >= 0: abandon the run (no tail flush — as a SIGKILL would) after this
  /// many not-yet-checkpointed scenarios have been claimed. The claim that
  /// crosses the limit is truncated to it, so the stop point is exact at
  /// any claim width. Test hook for kill-at-every-boundary resume sweeps;
  /// deterministic with threads == 1.
  std::int64_t stop_after = -1;
  /// >= 0: std::_Exit(kCrashExitCode) right after this run flushes its
  /// n-th segment — a real process death with its checkpoint files left
  /// behind. Used by tools/renoc_sweep --inject-crash and the CI
  /// sweep-resume job.
  int crash_after_segments = -1;
};

struct ShardRunResult {
  /// Owned scenarios that resolved, ascending by scenario index. Complete
  /// runs have owned_count(enumerated) records; a stop_after run returns
  /// only what finished.
  std::vector<ScenarioRecord> records;
  std::int64_t resumed = 0;     ///< records recovered from checkpoints
  int segments_loaded = 0;      ///< valid segments found on disk
  int segments_written = 0;     ///< segments flushed by this run
};

/// Path of segment `segment` of `shard` under `ckpt` (exposed for tests
/// that corrupt specific files).
std::string checkpoint_segment_path(const CheckpointConfig& ckpt,
                                    const Shard& shard, int segment);

/// Loads and validates every existing segment of `shard`, in segment
/// order. Throws CheckError naming the defect for: unreadable/truncated/
/// malformed files, wrong schema or version, shard-geometry or
/// record-shape mismatches, config-digest mismatches (stale config),
/// checksum mismatches (bit flips), malformed records, and overlapping
/// scenario ranges across segments. Returns the recovered records,
/// ascending; *segments_seen gets the number of segments consumed.
std::vector<ScenarioRecord> load_shard_checkpoints(
    const SweepSpec& spec, const CheckpointConfig& ckpt, const Shard& shard,
    int* segments_seen);

/// Runs (or resumes) one shard. Workers claim up to spec.claim_width
/// not-yet-done scenarios per cursor bump and run them in one runner call.
/// With checkpointing enabled, previously flushed scenarios are validated
/// and skipped, new completions are flushed every `checkpoint.every`
/// scenarios from the worker loop (a segment may end inside a claim), and
/// a final partial segment is flushed on normal completion.
ShardRunResult run_sweep_shard(const SweepSpec& spec,
                               const ShardRunOptions& opts);

// ---------------------------------------------------------------------------
// Merging
// ---------------------------------------------------------------------------

/// One record per enumerated scenario (missing ones materialized as
/// kSkipped), the conservation counters, and the explicit list of
/// scenarios that did not complete or fail (the incomplete_scenarios
/// record every artifact carries).
struct MergeResult {
  std::vector<ScenarioRecord> records;
  SweepCounts counts;
  std::vector<std::int64_t> incomplete;
};

/// Identity merge of per-shard record sets: records are keyed by scenario
/// index, so shard order cannot matter. A scenario reported twice is an
/// overlap error (shards own disjoint stride classes).
MergeResult merge_shard_records(
    std::int64_t enumerated,
    const std::vector<std::vector<ScenarioRecord>>& shards);

/// Loads and validates all shards' checkpoint segments under `ckpt` for a
/// `shard_count`-way split and merges them. Shards with no segments
/// contribute nothing (their scenarios resolve as kSkipped).
MergeResult merge_checkpoints(const SweepSpec& spec,
                              const CheckpointConfig& ckpt, int shard_count);

}  // namespace renoc::sweep
