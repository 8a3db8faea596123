// The LDPC decoder distributed over the NoC fabric.
//
// Each cluster of the Partition runs on one PE (tile). Decoding follows the
// flooding schedule of the golden MinSumDecoder, but inter-cluster message
// values physically traverse the mesh as wormhole packets:
//
//   per iteration:
//     VN phase: every PE, once it holds all check-to-variable (r) values
//               for its variables, computes q values for all incident
//               edges (busy for cycles proportional to its edge count)
//               and sends one aggregated packet per destination PE;
//     CN phase: symmetric, computing r values;
//   final:      after the last CN phase, PEs compute hard decisions.
//
// Values are int16 fixed-point, packed four per 64-bit flit word in a
// canonical per-(source,destination,phase) edge order precomputed at
// construction, so sender and receiver agree without per-value headers.
// All arithmetic goes through ldpc/minsum.hpp with the same operand
// ordering as the golden decoder, making the distributed result
// bit-identical — the key functional invariant under test.
//
// Timing is value-independent (fixed iterations, static message sets), so
// every block takes the same number of cycles: the deterministic block time
// the paper aligns migration periods with.
//
// The block loop is event-driven but cycle-accurate: deliveries come from
// the fabric's ready set (Fabric::next_delivered_node), the PE state
// machines are rescanned only when a message arrived, a PE finished, or a
// compute completion is due, and while every PE computes or waits on an
// idle fabric the clock jumps straight to the earliest completion with
// Fabric::advance_idle. Every simulated count is what stepping each cycle
// would produce (tests/noc_decoder_test.cpp pins them).
//
// Block replay. Because timing is value-independent, a block's whole effect
// on the fabric is a function of the decoder's inputs (code structure,
// partition, LdpcNocParams, NocConfig), its placement, and the idle
// fabric's arbitration fingerprint (Fabric::arbitration_fingerprint: the
// round-robin cursors and NI-enabled flags; credits, grants and buffers
// are asserted idle, not hashed). Decoders therefore keep recorded blocks
// in a BlockCache keyed by (placement, fingerprint), holding at most
// kBlockCacheCap entries; once it is full, new keys simply miss.
// set_placement() keeps it, because migration orbits revisit placements.
//   - A miss simulates the block as described above and records its
//     BlockDelta (noc/fabric.hpp: counters, deliveries and latency
//     samples, packet ids, cycles, end cursors) under the key.
//   - A hit applies that delta with Fabric::replay and computes the hard
//     bits with the flat MinSumDecoder (fixed iterations, no early exit),
//     to which the distributed decode is bit-identical by construction.
//   - A degraded fabric, or a delivered-but-unread message at block start,
//     always misses and records nothing.
// The fabric ends a hit exactly as it would end the simulated block; the
// NocDecoderReplay tests prove it counter by counter, and every distinct
// key is simulated (and, in run_stream, golden-checked) once.
//
// One cache serves every live decoder with equal inputs. A decoder built
// without a cache takes it from a process-wide registry, which compares
// the inputs exactly on content (never on addresses or a hash): the code's
// n and check-side CSR arrays (which determine the variable side), every
// Partition, LdpcNocParams and NocConfig field. The registry holds weak
// references to the live caches plus one strong reference, to the cache it
// handed out last, so consecutive decoders of one configuration (the
// streams of a period study) share a cache even when their lifetimes do
// not overlap, and building the next configuration's decoder frees the old
// one once no decoder uses it. Entries are immutable after recording: a
// hit copies the entry's pointer under the cache's lock and replays
// outside it, so decoders on different threads share a cache safely.
// Passing a fresh BlockCache to the constructor gives a decoder a private
// cache (the always-simulate oracle of the tests and benches); nothing
// else switches the cache.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "ldpc/code.hpp"
#include "ldpc/decoder.hpp"
#include "ldpc/partition.hpp"
#include "noc/fabric.hpp"

namespace renoc {

struct LdpcNocParams {
  int iterations = 10;
  int values_per_word = 4;       ///< int16 values packed per flit word
  int vn_cycles_per_edge = 1;    ///< PE cycles per edge in a VN update
  int cn_cycles_per_edge = 1;    ///< PE cycles per edge in a CN update
  int phase_overhead_cycles = 8; ///< fixed sequencing cost per phase
  std::uint64_t max_cycles_per_block = 5'000'000;  ///< deadlock guard

  void validate() const;
  bool operator==(const LdpcNocParams&) const = default;
};

struct NocDecodeResult {
  std::vector<std::uint8_t> hard_bits;
  bool syndrome_ok = false;
  Cycle cycles = 0;  ///< block latency in fabric cycles
};

/// Recorded blocks shared by the decoders of equal inputs (see "Block
/// replay" above). A default-constructed cache is unbound: the first
/// decoder given it binds it to its inputs, and a decoder with other
/// inputs is refused (CheckError). Thread-safe.
class BlockCache {
 public:
  BlockCache() = default;
  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

 private:
  friend class NocLdpcDecoder;

  /// The decoder inputs the cache's blocks were recorded under, copied.
  struct Inputs {
    int n = 0;
    std::vector<int> check_offsets;
    std::vector<int> check_neighbors;
    std::vector<int> check_edge_ids;
    Partition partition;
    LdpcNocParams params;
    NocConfig noc;

    bool operator==(const Inputs&) const = default;
  };

  struct Entry {
    std::vector<int> placement;
    std::vector<std::int8_t> fingerprint;
    std::shared_ptr<const BlockDelta> delta;
  };

  /// The registry's cache for these inputs, created if no live one has
  /// them (defined with the registry in noc_decoder.cpp).
  static std::shared_ptr<BlockCache> shared_for(const Inputs& inputs);
  /// Binds an unbound cache to these inputs. Returns whether the cache's
  /// inputs now equal them.
  bool bind(const Inputs& inputs);
  /// The recorded block for (placement, fingerprint), or null.
  std::shared_ptr<const BlockDelta> find(
      const std::vector<int>& placement,
      const std::vector<std::int8_t>& fingerprint) const;
  /// Entries recorded so far (at most NocLdpcDecoder::kBlockCacheCap).
  std::size_t size() const;
  /// Adds an entry unless the cache is full or already holds its key (a
  /// decoder on another thread may have recorded it meanwhile).
  void insert(Entry entry);

  mutable std::mutex mutex_;
  std::optional<Inputs> inputs_;  ///< empty until bound
  std::vector<Entry> entries_;
};

class NocLdpcDecoder {
 public:
  /// `placement[cluster]` is the tile hosting that cluster; it must be an
  /// injective map into the fabric's nodes. Cluster count must not exceed
  /// the node count. A null `cache` takes the registry's cache for these
  /// inputs; a given one must be unbound or bound to equal inputs.
  NocLdpcDecoder(Fabric& fabric, const LdpcCode& code, Partition partition,
                 std::vector<int> placement, LdpcNocParams params = {},
                 std::shared_ptr<BlockCache> cache = nullptr);

  /// Re-homes clusters onto new tiles (runtime reconfiguration). Must not
  /// be called mid-block.
  void set_placement(const std::vector<int>& placement);
  const std::vector<int>& placement() const { return placement_; }

  /// Decodes one block, driving the fabric until completion (or replaying
  /// a cached block with the same placement and fingerprint; see above).
  NocDecodeResult decode_block(const std::vector<std::int16_t>& channel_llrs);

  /// Blocks this decoder simulated cycle by cycle / replayed from the
  /// block cache since construction. With a shared cache they depend on
  /// what the process decoded before with equal inputs (and, across
  /// threads, on timing), so they are host-side diagnostics: no record,
  /// digest or golden reads them. A private cache makes them a function
  /// of this decoder's own call sequence.
  std::uint64_t simulated_blocks() const { return simulated_blocks_; }
  std::uint64_t replayed_blocks() const { return replayed_blocks_; }

  /// Block-cache entries per cache (a few per placement of an orbit).
  static constexpr std::size_t kBlockCacheCap = 16;
  /// Entries the decoder's cache holds (at most kBlockCacheCap).
  std::size_t cached_blocks() const { return cache_->size(); }

  int cluster_count() const { return partition_.cluster_count; }
  const Partition& partition() const { return partition_; }

  /// Edge-ops per cluster per full iteration (compute-power proxy).
  const std::vector<std::uint64_t>& cluster_ops() const {
    return cluster_ops_;
  }

  /// Words of configuration+state a PE must ship when its cluster migrates:
  /// channel LLRs + live r messages (packed 4/word) + a fixed config block.
  int migration_state_words(int cluster) const;

 private:
  // Phase indices: iteration i contributes phases 2i (VN) and 2i+1 (CN);
  // phase 2*iterations is the final hard-decision phase.
  int phase_count() const { return 2 * params_.iterations + 1; }

  enum class PeState { kWaiting, kComputing, kDone };

  struct ClusterRuntime {
    PeState state = PeState::kWaiting;
    int phase = 0;
    Cycle busy_until = 0;
  };

  // Static per-(src,dst) edge lists, canonical order (ascending edge id).
  struct PairTraffic {
    int src = 0;
    int dst = 0;
    std::vector<int> edges;
  };

  void build_static_tables();
  /// The cycle-by-cycle block decode (the cache's miss path).
  NocDecodeResult simulate_block(const std::vector<std::int16_t>& channel_llrs);
  NocDecodeResult replay_block(const BlockDelta& delta,
                               const std::vector<std::int16_t>& channel_llrs);
  void unpack_message(const Message& msg);
  std::size_t received_index(int cluster, int phase) const {
    return static_cast<std::size_t>(cluster) *
               static_cast<std::size_t>(phase_count() + 1) +
           static_cast<std::size_t>(phase);
  }
  void start_phase_if_ready(int cluster);
  void finish_compute(int cluster);
  void send_phase_messages(int cluster, int phase);
  bool inputs_ready(int cluster, int phase) const;
  Cycle phase_cost(int cluster, int phase) const;
  std::uint64_t phase_ops(int cluster, int phase) const;

  Fabric* fabric_;
  const LdpcCode* code_;
  Partition partition_;
  std::vector<int> placement_;      // cluster -> tile
  std::vector<int> tile_cluster_;   // tile -> cluster (-1 none)
  LdpcNocParams params_;

  // Static structure.
  std::vector<std::vector<int>> cluster_vns_;
  std::vector<std::vector<int>> cluster_cns_;
  std::vector<std::uint64_t> cluster_ops_;
  // vn_pairs_[s]: traffic sent by cluster s during VN phases (q values,
  // keyed by destination CN cluster). cn_pairs_ symmetric for r values.
  std::vector<std::vector<PairTraffic>> vn_pairs_;
  std::vector<std::vector<PairTraffic>> cn_pairs_;
  // Expected distinct incoming messages per cluster for each phase kind.
  std::vector<int> expected_vn_inputs_;  // r-messages needed before VN/final
  std::vector<int> expected_cn_inputs_;  // q-messages needed before CN

  // Per-block dynamic state.
  std::vector<std::int16_t> r_;  // edge-indexed check->var messages
  std::vector<std::int16_t> q_;  // edge-indexed var->check messages
  std::vector<std::int16_t> llr_;
  std::vector<std::uint8_t> hard_bits_;
  std::vector<ClusterRuntime> runtime_;
  // Messages received so far, [cluster * (phase_count() + 1) + phase]:
  // one pre-sized array, reset per block without touching the heap.
  std::vector<int> received_;

  // Block cache and its hit path.
  std::shared_ptr<BlockCache> cache_;
  std::vector<std::int8_t> fingerprint_;  // scratch, reused per block
  MinSumDecoder flat_;
  DecodeResult flat_result_;
  std::uint64_t simulated_blocks_ = 0;
  std::uint64_t replayed_blocks_ = 0;
};

}  // namespace renoc
