#include "util/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <mutex>
#include <thread>

#include "util/check.hpp"

namespace renoc::sweep {

// ---------------------------------------------------------------------------
// Scenario indexing
// ---------------------------------------------------------------------------

std::int64_t axis_product(const std::vector<std::int64_t>& shape) {
  RENOC_CHECK_MSG(!shape.empty(), "axis shape must have at least one axis");
  std::int64_t total = 1;
  for (const std::int64_t n : shape) {
    RENOC_CHECK_MSG(n >= 1, "axis size must be >= 1, got " << n);
    RENOC_CHECK_MSG(total <= INT64_MAX / n, "axis product overflows int64");
    total *= n;
  }
  return total;
}

void decode_scenario_index(std::int64_t index,
                           const std::vector<std::int64_t>& shape,
                           std::vector<std::int64_t>& digits) {
  RENOC_CHECK_MSG(index >= 0, "scenario index must be >= 0, got " << index);
  digits.resize(shape.size());
  std::int64_t rest = index;
  // Last axis fastest: peel digits from the innermost loop outward, the
  // same order the harnesses' nested loops enumerate.
  for (std::size_t k = shape.size(); k-- > 0;) {
    RENOC_CHECK_MSG(shape[k] >= 1, "axis size must be >= 1, got " << shape[k]);
    digits[k] = rest % shape[k];
    rest /= shape[k];
  }
  RENOC_CHECK_MSG(rest == 0, "scenario index " << index
                                               << " outside the axis shape");
}

std::int64_t encode_scenario_index(const std::vector<std::int64_t>& digits,
                                   const std::vector<std::int64_t>& shape) {
  RENOC_CHECK_MSG(digits.size() == shape.size(),
                  "digit count " << digits.size() << " != axis count "
                                 << shape.size());
  std::int64_t index = 0;
  for (std::size_t k = 0; k < shape.size(); ++k) {
    RENOC_CHECK_MSG(digits[k] >= 0 && digits[k] < shape[k],
                    "digit " << digits[k] << " outside axis " << k
                             << " of size " << shape[k]);
    index = index * shape[k] + digits[k];
  }
  return index;
}

// ---------------------------------------------------------------------------
// RNG, validation, worker boilerplate
// ---------------------------------------------------------------------------

Rng scenario_rng(std::uint64_t seed, std::int64_t scenario_index) {
  RENOC_CHECK(scenario_index >= 0);
  return Rng(derive_stream_seed(seed,
                                static_cast<std::uint64_t>(scenario_index)));
}

void require_axis(bool non_empty, const char* axis) {
  RENOC_CHECK_MSG(non_empty, "sweep needs at least one " << axis);
}

void require_threads(int threads) {
  RENOC_CHECK_MSG(threads >= 1,
                  "sweep threads must be >= 1, got " << threads);
}

int clamp_workers(int threads, std::int64_t jobs) {
  require_threads(threads);
  return static_cast<int>(
      std::max<std::int64_t>(1, std::min<std::int64_t>(threads, jobs)));
}

void run_workers(int workers, const std::function<void(int)>& body) {
  RENOC_CHECK(workers >= 1);
  if (workers == 1) {
    body(0);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) pool.emplace_back([&body, w] { body(w); });
  for (std::thread& t : pool) t.join();
}

// ---------------------------------------------------------------------------
// Shards, records, digests
// ---------------------------------------------------------------------------

void Shard::validate() const {
  RENOC_CHECK_MSG(count >= 1, "shard count must be >= 1, got " << count);
  RENOC_CHECK_MSG(index >= 0 && index < count,
                  "shard index " << index << " outside 0.." << count - 1);
}

std::int64_t Shard::owned_count(std::int64_t enumerated) const {
  RENOC_CHECK(enumerated >= 0);
  if (enumerated <= index) return 0;
  return (enumerated - index + count - 1) / count;
}

const char* to_string(Outcome o) {
  switch (o) {
    case Outcome::kCompleted: return "completed";
    case Outcome::kFailed: return "failed";
    case Outcome::kSkipped: return "skipped";
  }
  return "?";
}

std::uint64_t pack_double(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double unpack_double(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

DigestBuilder& DigestBuilder::fold(std::uint64_t v) {
  h_ = mix64(h_ ^ v);
  return *this;
}

DigestBuilder& DigestBuilder::fold_string(std::string_view s) {
  fold(s.size());
  for (const char c : s) fold(static_cast<unsigned char>(c));
  return *this;
}

void SweepSpec::validate() const {
  RENOC_CHECK_MSG(enumerated >= 0, "sweep enumerates a negative count");
  RENOC_CHECK_MSG(record_words >= 1,
                  "sweep records need at least one word, got " << record_words);
  RENOC_CHECK_MSG(claim_width >= 1,
                  "sweep claim width must be >= 1, got " << claim_width);
  RENOC_CHECK_MSG(static_cast<bool>(make_runner),
                  "sweep spec has no runner factory");
}

// ---------------------------------------------------------------------------
// Checkpoint store
// ---------------------------------------------------------------------------

namespace {

constexpr std::string_view kSchemaName = "renoc-sweep-checkpoint";
constexpr long long kSchemaVersion = 1;

std::string hex_u64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xF];
    v >>= 4;
  }
  return out;
}

bool parse_hex_u64(std::string_view s, std::uint64_t* out) {
  if (s.size() != 16) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') v |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint64_t>(c - 'a' + 10);
    else return false;
  }
  *out = v;
  return true;
}

/// The checksum chains every semantic field of a segment through mix64, so
/// a single flipped payload bit (or a reordered record) changes it.
std::uint64_t segment_checksum(const SweepSpec& spec, const Shard& shard,
                               std::int64_t scenario_min,
                               std::int64_t scenario_max,
                               const std::vector<ScenarioRecord>& records) {
  std::uint64_t h = 0;
  const auto fold = [&h](std::uint64_t v) { h = mix64(h ^ v); };
  fold(static_cast<std::uint64_t>(kSchemaVersion));
  fold(spec.config_digest);
  fold(static_cast<std::uint64_t>(shard.index));
  fold(static_cast<std::uint64_t>(shard.count));
  fold(static_cast<std::uint64_t>(spec.enumerated));
  fold(static_cast<std::uint64_t>(spec.record_words));
  fold(static_cast<std::uint64_t>(scenario_min));
  fold(static_cast<std::uint64_t>(scenario_max));
  fold(records.size());
  for (const ScenarioRecord& rec : records) {
    fold(static_cast<std::uint64_t>(rec.scenario));
    fold(static_cast<std::uint64_t>(rec.outcome));
    for (const std::uint64_t w : rec.words) fold(w);
  }
  return h;
}

void write_checkpoint_segment(const SweepSpec& spec,
                              const CheckpointConfig& ckpt, const Shard& shard,
                              int segment,
                              const std::vector<ScenarioRecord>& records) {
  RENOC_CHECK(!records.empty());
  std::filesystem::create_directories(ckpt.directory);
  const std::int64_t scenario_min = records.front().scenario;
  const std::int64_t scenario_max = records.back().scenario;
  write_json_atomic(
      checkpoint_segment_path(ckpt, shard, segment), [&](JsonWriter& w) {
        w.begin_object();
        w.key("schema").string(kSchemaName);
        w.key("version").integer(kSchemaVersion);
        w.key("config_digest").string(hex_u64(spec.config_digest));
        w.key("shard_index").integer(shard.index);
        w.key("shard_count").integer(shard.count);
        w.key("enumerated").integer(spec.enumerated);
        w.key("record_words").integer(spec.record_words);
        // Scenario-range manifest: what this segment claims to cover.
        w.key("scenario_min").integer(scenario_min);
        w.key("scenario_max").integer(scenario_max);
        w.key("records").begin_array();
        for (const ScenarioRecord& rec : records) {
          w.begin_object();
          w.key("scenario").integer(rec.scenario);
          w.key("outcome").string(to_string(rec.outcome));
          // Payload words as hex, never JSON numbers: the parser holds
          // numbers as double, which would round 64-bit payloads.
          std::string words;
          words.reserve(rec.words.size() * 16);
          for (const std::uint64_t word : rec.words) words += hex_u64(word);
          w.key("words").string(words);
          w.end_object();
        }
        w.end_array();
        w.key("checksum")
            .string(hex_u64(segment_checksum(spec, shard, scenario_min,
                                             scenario_max, records)));
        w.end_object();
      });
}

long long integer_member(const JsonValue& doc, const char* key,
                         const std::string& path) {
  const JsonValue* v = doc.find(key);
  RENOC_CHECK_MSG(v != nullptr && v->kind == JsonValue::Kind::kNumber &&
                      v->num_is_integer,
                  "checkpoint " << path << ": unsupported checkpoint schema "
                                << "or version (missing integer '" << key
                                << "')");
  return static_cast<long long>(v->num_v);
}

std::string string_member(const JsonValue& doc, const char* key,
                          const std::string& path) {
  const JsonValue* v = doc.find(key);
  RENOC_CHECK_MSG(v != nullptr && v->kind == JsonValue::Kind::kString,
                  "checkpoint " << path << ": unsupported checkpoint schema "
                                << "or version (missing string '" << key
                                << "')");
  return v->str_v;
}

/// Loads one segment, enforcing the validation ladder described in the
/// header. `prev_scenario` carries the last scenario recovered from
/// earlier segments, for the cross-segment overlap check.
std::vector<ScenarioRecord> load_checkpoint_segment(
    const SweepSpec& spec, const Shard& shard, const std::string& path,
    std::int64_t* prev_scenario) {
  JsonValue doc;
  try {
    doc = parse_json_file(path);
  } catch (const CheckError& e) {
    RENOC_FAIL("checkpoint " << path << ": truncated or malformed ("
                             << e.what() << ")");
  }
  RENOC_CHECK_MSG(doc.kind == JsonValue::Kind::kObject,
                  "checkpoint " << path
                                << ": unsupported checkpoint schema or "
                                << "version (root is not an object)");
  const JsonValue* schema = doc.find("schema");
  RENOC_CHECK_MSG(schema != nullptr &&
                      schema->kind == JsonValue::Kind::kString &&
                      schema->str_v == kSchemaName,
                  "checkpoint " << path << ": unsupported checkpoint schema "
                                << "or version (schema tag mismatch)");
  const long long version = integer_member(doc, "version", path);
  RENOC_CHECK_MSG(version == kSchemaVersion,
                  "checkpoint " << path << ": unsupported checkpoint schema "
                                << "or version (version " << version
                                << " != " << kSchemaVersion << ")");

  RENOC_CHECK_MSG(
      integer_member(doc, "shard_index", path) == shard.index &&
          integer_member(doc, "shard_count", path) == shard.count &&
          integer_member(doc, "enumerated", path) == spec.enumerated &&
          integer_member(doc, "record_words", path) == spec.record_words,
      "checkpoint " << path
                    << ": shard geometry or record shape mismatch (expected "
                    << "shard " << shard.index << "/" << shard.count << ", "
                    << spec.enumerated << " scenarios, " << spec.record_words
                    << " words)");

  std::uint64_t digest = 0;
  RENOC_CHECK_MSG(parse_hex_u64(string_member(doc, "config_digest", path),
                                &digest) &&
                      digest == spec.config_digest,
                  "checkpoint " << path << ": config digest mismatch — the "
                                << "checkpoint was written under a different "
                                << "(stale) sweep config");

  const long long scenario_min = integer_member(doc, "scenario_min", path);
  const long long scenario_max = integer_member(doc, "scenario_max", path);
  const JsonValue* records_v = doc.find("records");
  RENOC_CHECK_MSG(records_v != nullptr &&
                      records_v->kind == JsonValue::Kind::kArray &&
                      !records_v->items.empty(),
                  "checkpoint " << path << ": malformed checkpoint record "
                                << "(missing or empty records array)");

  std::vector<ScenarioRecord> records;
  records.reserve(records_v->items.size());
  std::int64_t prev = *prev_scenario;
  for (const JsonValue& item : records_v->items) {
    RENOC_CHECK_MSG(item.kind == JsonValue::Kind::kObject,
                    "checkpoint " << path << ": malformed checkpoint record "
                                  << "(entry is not an object)");
    ScenarioRecord rec;
    rec.scenario = integer_member(item, "scenario", path);
    const std::string outcome = string_member(item, "outcome", path);
    const std::string words = string_member(item, "words", path);
    RENOC_CHECK_MSG(rec.scenario >= 0 && rec.scenario < spec.enumerated &&
                        shard.owns(rec.scenario) &&
                        rec.scenario >= scenario_min &&
                        rec.scenario <= scenario_max,
                    "checkpoint " << path << ": malformed checkpoint record "
                                  << "(scenario " << rec.scenario
                                  << " outside the shard or the declared "
                                  << "range)");
    RENOC_CHECK_MSG(rec.scenario > prev,
                    "checkpoint " << path << ": overlapping scenario ranges "
                                  << "(scenario " << rec.scenario
                                  << " already covered by an earlier "
                                  << "segment or record)");
    prev = rec.scenario;
    if (outcome == "completed") {
      rec.outcome = Outcome::kCompleted;
      RENOC_CHECK_MSG(
          words.size() ==
              static_cast<std::size_t>(spec.record_words) * 16,
          "checkpoint " << path << ": malformed checkpoint record (payload "
                        << "length " << words.size() << " != "
                        << spec.record_words * 16 << " hex chars)");
      rec.words.resize(static_cast<std::size_t>(spec.record_words));
      for (int k = 0; k < spec.record_words; ++k) {
        RENOC_CHECK_MSG(
            parse_hex_u64(
                std::string_view(words).substr(
                    static_cast<std::size_t>(k) * 16, 16),
                &rec.words[static_cast<std::size_t>(k)]),
            "checkpoint " << path << ": malformed checkpoint record "
                          << "(non-hex payload)");
      }
    } else if (outcome == "failed") {
      rec.outcome = Outcome::kFailed;
      RENOC_CHECK_MSG(words.empty(),
                      "checkpoint " << path << ": malformed checkpoint "
                                    << "record (failed record with payload)");
    } else {
      RENOC_FAIL("checkpoint " << path << ": malformed checkpoint record "
                               << "(outcome '" << outcome << "')");
    }
    records.push_back(std::move(rec));
  }
  RENOC_CHECK_MSG(records.front().scenario == scenario_min &&
                      records.back().scenario == scenario_max,
                  "checkpoint " << path << ": malformed checkpoint record "
                                << "(range manifest does not match the "
                                << "records)");

  std::uint64_t checksum = 0;
  RENOC_CHECK_MSG(
      parse_hex_u64(string_member(doc, "checksum", path), &checksum) &&
          checksum == segment_checksum(spec, shard, scenario_min,
                                       scenario_max, records),
      "checkpoint " << path << ": payload checksum mismatch — the file is "
                    << "corrupt (bit flip or partial write)");

  *prev_scenario = prev;
  return records;
}

}  // namespace

std::string checkpoint_segment_path(const CheckpointConfig& ckpt,
                                    const Shard& shard, int segment) {
  return ckpt.directory + "/" + ckpt.tag + ".shard" +
         std::to_string(shard.index) + "of" + std::to_string(shard.count) +
         ".seg" + std::to_string(segment) + ".json";
}

std::vector<ScenarioRecord> load_shard_checkpoints(
    const SweepSpec& spec, const CheckpointConfig& ckpt, const Shard& shard,
    int* segments_seen) {
  spec.validate();
  shard.validate();
  std::vector<ScenarioRecord> out;
  std::int64_t prev = -1;
  int segment = 0;
  // Segments are dense from 0 (seg k is written only after seg k-1), so
  // the first missing file ends the scan — a crash cannot leave a gap.
  for (;; ++segment) {
    const std::string path = checkpoint_segment_path(ckpt, shard, segment);
    if (!std::filesystem::exists(path)) break;
    std::vector<ScenarioRecord> records =
        load_checkpoint_segment(spec, shard, path, &prev);
    out.insert(out.end(), std::make_move_iterator(records.begin()),
               std::make_move_iterator(records.end()));
  }
  if (segments_seen != nullptr) *segments_seen = segment;
  return out;
}

// ---------------------------------------------------------------------------
// Shard runner
// ---------------------------------------------------------------------------

ShardRunResult run_sweep_shard(const SweepSpec& spec,
                               const ShardRunOptions& opts) {
  spec.validate();
  opts.shard.validate();
  require_threads(opts.threads);
  RENOC_CHECK_MSG(opts.checkpoint.every >= 1,
                  "checkpoint period must be >= 1, got "
                      << opts.checkpoint.every);

  const Shard shard = opts.shard;
  const std::int64_t owned = shard.owned_count(spec.enumerated);

  ShardRunResult out;
  std::vector<ScenarioRecord> slots(static_cast<std::size_t>(owned));
  std::vector<char> have(static_cast<std::size_t>(owned), 0);
  if (opts.checkpoint.enabled()) {
    std::vector<ScenarioRecord> prior =
        load_shard_checkpoints(spec, opts.checkpoint, shard,
                               &out.segments_loaded);
    out.resumed = static_cast<std::int64_t>(prior.size());
    for (ScenarioRecord& rec : prior) {
      const std::int64_t pos = (rec.scenario - shard.index) / shard.count;
      have[static_cast<std::size_t>(pos)] = 1;
      slots[static_cast<std::size_t>(pos)] = std::move(rec);
    }
  }

  // Resume re-enumerates only the missing scenarios. Their payloads are
  // sized here, on the calling thread, so workers copy results in without
  // allocating: small records allocated between scenarios inside the
  // workers' malloc arenas fragment them and raised the thermal sweep's
  // peak RSS by about 8%.
  std::vector<std::int64_t> todo;
  todo.reserve(static_cast<std::size_t>(owned));
  for (std::int64_t pos = 0; pos < owned; ++pos) {
    if (have[static_cast<std::size_t>(pos)]) continue;
    todo.push_back(pos);
    slots[static_cast<std::size_t>(pos)].words.resize(
        static_cast<std::size_t>(spec.record_words));
  }
  const std::int64_t jobs = static_cast<std::int64_t>(todo.size());

  std::atomic<std::int64_t> cursor{0};
  std::atomic<bool> abort{false};
  std::atomic<bool> stopped{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  // done[j] flips (release) once the claim holding todo position j has
  // finished and slots[todo[j]] is fully written, so the flusher's acquire
  // loads see complete records and the frontier advances per scenario.
  std::vector<std::atomic<char>> done(static_cast<std::size_t>(jobs));

  // Checkpoint flushing: under flush_mutex, advance the frontier over the
  // contiguous prefix of completed todo positions and emit one segment per
  // `every` scenarios. Runs from the worker loop but outside any hot
  // region — per-scenario work dwarfs a cold file write every `every`
  // completions.
  std::mutex flush_mutex;
  std::int64_t flushed = 0;
  std::int64_t frontier = 0;
  int next_segment = out.segments_loaded;
  const auto flush_ready = [&](bool final) {
    while (frontier < jobs &&
           done[static_cast<std::size_t>(frontier)].load(
               std::memory_order_acquire))
      ++frontier;
    while (frontier - flushed >= opts.checkpoint.every ||
           (final && frontier > flushed)) {
      const std::int64_t upto =
          std::min(flushed + opts.checkpoint.every, frontier);
      std::vector<ScenarioRecord> batch;
      batch.reserve(static_cast<std::size_t>(upto - flushed));
      for (std::int64_t j = flushed; j < upto; ++j)
        batch.push_back(
            slots[static_cast<std::size_t>(todo[static_cast<std::size_t>(j)])]);
      write_checkpoint_segment(spec, opts.checkpoint, shard, next_segment,
                               batch);
      ++next_segment;
      ++out.segments_written;
      flushed = upto;
      if (opts.crash_after_segments >= 1 &&
          out.segments_written >= opts.crash_after_segments) {
        // Injected process death: no unwinding, no tail flush — exactly
        // what a SIGKILL leaves behind, plus a recognizable exit code.
        std::_Exit(kCrashExitCode);
      }
    }
  };

  const std::int64_t width = spec.claim_width;
  const std::size_t record_words = static_cast<std::size_t>(spec.record_words);
  const auto worker = [&](int) {
    // Per-worker setup hoisting: the runner factory builds decoders,
    // fabrics, and scratch buffers once, outside the per-scenario path.
    const SweepRunner runner = spec.make_runner();
    std::vector<std::int64_t> scenarios(static_cast<std::size_t>(width));
    std::vector<std::uint64_t> words(static_cast<std::size_t>(width) *
                                     record_words);
    for (;;) {
      if (abort.load(std::memory_order_relaxed)) break;
      // One claim: todo positions [first, end), run in one runner call.
      const std::int64_t first =
          cursor.fetch_add(width, std::memory_order_relaxed);
      if (first >= jobs) break;
      std::int64_t end = std::min(first + width, jobs);
      if (opts.stop_after >= 0 && end > opts.stop_after) {
        // Truncate the claim at the stop point, so a kill lands on the
        // same scenario boundary at every claim width.
        stopped.store(true, std::memory_order_relaxed);
        abort.store(true, std::memory_order_relaxed);
        end = std::max(first, opts.stop_after);
        if (end == first) break;
      }
      const std::size_t count = static_cast<std::size_t>(end - first);
      for (std::size_t k = 0; k < count; ++k)
        scenarios[k] = shard.owned_at(
            todo[static_cast<std::size_t>(first) + k]);
      Outcome outcome = Outcome::kCompleted;
      try {
        runner(std::span<const std::int64_t>(scenarios.data(), count),
               words.data());
      } catch (...) {
        if (!opts.capture_failures) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
          abort.store(true, std::memory_order_relaxed);
          break;
        }
        // The runner cannot say which scenario threw, so the whole claim
        // fails (only BER claims are wider than one, and a BER block
        // cannot throw).
        outcome = Outcome::kFailed;
      }
      for (std::size_t k = 0; k < count; ++k) {
        ScenarioRecord& rec = slots[static_cast<std::size_t>(
            todo[static_cast<std::size_t>(first) + k])];
        rec.scenario = scenarios[k];
        rec.outcome = outcome;
        if (outcome == Outcome::kCompleted) {
          const std::uint64_t* from = words.data() + k * record_words;
          std::copy(from, from + record_words, rec.words.begin());
        } else {
          rec.words.clear();
        }
      }
      for (std::int64_t j = first; j < end; ++j)
        done[static_cast<std::size_t>(j)].store(1, std::memory_order_release);
      if (opts.checkpoint.enabled()) {
        const std::lock_guard<std::mutex> lock(flush_mutex);
        flush_ready(/*final=*/false);
      }
    }
  };
  run_workers(clamp_workers(opts.threads, (jobs + width - 1) / width),
              worker);
  if (first_error) std::rethrow_exception(first_error);

  // Tail flush on normal completion only: a stop_after run abandons its
  // un-flushed tail, like the SIGKILL it stands in for.
  if (opts.checkpoint.enabled() &&
      !stopped.load(std::memory_order_relaxed)) {
    const std::lock_guard<std::mutex> lock(flush_mutex);
    flush_ready(/*final=*/true);
  }

  for (std::int64_t j = 0; j < jobs; ++j)
    if (done[static_cast<std::size_t>(j)].load(std::memory_order_acquire))
      have[static_cast<std::size_t>(
          todo[static_cast<std::size_t>(j)])] = 1;
  out.records.reserve(static_cast<std::size_t>(owned));
  for (std::int64_t pos = 0; pos < owned; ++pos)
    if (have[static_cast<std::size_t>(pos)])
      out.records.push_back(std::move(slots[static_cast<std::size_t>(pos)]));
  return out;
}

// ---------------------------------------------------------------------------
// Merging
// ---------------------------------------------------------------------------

MergeResult merge_shard_records(
    std::int64_t enumerated,
    const std::vector<std::vector<ScenarioRecord>>& shards) {
  RENOC_CHECK(enumerated >= 0);
  MergeResult out;
  out.counts.enumerated = enumerated;
  // Identity merge: records land in their scenario's slot, so neither
  // shard order nor arrival order can influence the result.
  out.records.resize(static_cast<std::size_t>(enumerated));
  std::vector<char> seen(static_cast<std::size_t>(enumerated), 0);
  for (const std::vector<ScenarioRecord>& shard : shards)
    for (const ScenarioRecord& rec : shard) {
      RENOC_CHECK_MSG(rec.scenario >= 0 && rec.scenario < enumerated,
                      "merge: scenario " << rec.scenario
                                         << " outside 0.." << enumerated - 1);
      RENOC_CHECK_MSG(!seen[static_cast<std::size_t>(rec.scenario)],
                      "merge: overlapping scenario ranges (scenario "
                          << rec.scenario << " reported twice)");
      seen[static_cast<std::size_t>(rec.scenario)] = 1;
      out.records[static_cast<std::size_t>(rec.scenario)] = rec;
    }
  for (std::int64_t s = 0; s < enumerated; ++s) {
    ScenarioRecord& rec = out.records[static_cast<std::size_t>(s)];
    if (!seen[static_cast<std::size_t>(s)]) {
      rec.scenario = s;
      rec.outcome = Outcome::kSkipped;
      rec.words.clear();
    }
    switch (rec.outcome) {
      case Outcome::kCompleted: ++out.counts.completed; break;
      case Outcome::kFailed: ++out.counts.failed; break;
      case Outcome::kSkipped: ++out.counts.skipped; break;
    }
    if (rec.outcome != Outcome::kCompleted) out.incomplete.push_back(s);
  }
  RENOC_CHECK_MSG(out.counts.conserved(),
                  "merge: conservation law violated (completed "
                      << out.counts.completed << " + failed "
                      << out.counts.failed << " + skipped "
                      << out.counts.skipped << " != enumerated "
                      << out.counts.enumerated << ")");
  return out;
}

MergeResult merge_checkpoints(const SweepSpec& spec,
                              const CheckpointConfig& ckpt, int shard_count) {
  RENOC_CHECK_MSG(shard_count >= 1,
                  "shard count must be >= 1, got " << shard_count);
  std::vector<std::vector<ScenarioRecord>> shards;
  shards.reserve(static_cast<std::size_t>(shard_count));
  for (int i = 0; i < shard_count; ++i)
    shards.push_back(load_shard_checkpoints(
        spec, ckpt, Shard{i, shard_count}, nullptr));
  return merge_shard_records(spec.enumerated, shards);
}

}  // namespace renoc::sweep
