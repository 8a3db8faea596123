#include "ldpc/noc_decoder.hpp"

#include <algorithm>

#include "ldpc/minsum.hpp"
#include "util/check.hpp"

namespace renoc {
namespace {

// Tag layout: [63:16] global phase, [15:0] source cluster.
std::uint64_t make_tag(int phase, int src_cluster) {
  return (static_cast<std::uint64_t>(phase) << 16) |
         static_cast<std::uint64_t>(src_cluster);
}
int tag_phase(std::uint64_t tag) { return static_cast<int>(tag >> 16); }
int tag_src(std::uint64_t tag) {
  return static_cast<int>(tag & 0xffffULL);
}

}  // namespace

// --- Block cache and its registry -------------------------------------------

bool BlockCache::bind(const Inputs& inputs) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!inputs_) inputs_ = inputs;
  return *inputs_ == inputs;
}

std::size_t BlockCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::shared_ptr<const BlockDelta> BlockCache::find(
    const std::vector<int>& placement,
    const std::vector<std::int8_t>& fingerprint) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Entry& entry : entries_)
    if (entry.fingerprint == fingerprint && entry.placement == placement)
      return entry.delta;
  return nullptr;
}

void BlockCache::insert(Entry entry) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (entries_.size() >= NocLdpcDecoder::kBlockCacheCap) return;
  for (const Entry& e : entries_)
    if (e.fingerprint == entry.fingerprint && e.placement == entry.placement)
      return;
  entries_.push_back(std::move(entry));
}

std::shared_ptr<BlockCache> BlockCache::shared_for(const Inputs& inputs) {
  // Weak references to every live shared cache, plus a strong one to the
  // cache handed out last (see "Block replay" in the header).
  static std::mutex mutex;
  static std::vector<std::weak_ptr<BlockCache>> live;
  static std::shared_ptr<BlockCache> recent;

  const std::lock_guard<std::mutex> lock(mutex);
  std::erase_if(live, [](const std::weak_ptr<BlockCache>& weak) {
    return weak.expired();
  });
  std::shared_ptr<BlockCache> found;
  for (const std::weak_ptr<BlockCache>& weak : live) {
    std::shared_ptr<BlockCache> cache = weak.lock();
    if (cache && cache->bind(inputs)) {
      found = std::move(cache);
      break;
    }
  }
  if (!found) {
    found = std::make_shared<BlockCache>();
    found->bind(inputs);
    live.push_back(found);
  }
  recent = found;
  return found;
}

// --- Decoder -----------------------------------------------------------------

void LdpcNocParams::validate() const {
  RENOC_CHECK(iterations >= 1);
  RENOC_CHECK(values_per_word >= 1 && values_per_word <= 4);
  RENOC_CHECK(vn_cycles_per_edge >= 0 && cn_cycles_per_edge >= 0);
  RENOC_CHECK(phase_overhead_cycles >= 0);
  RENOC_CHECK(max_cycles_per_block > 0);
}

NocLdpcDecoder::NocLdpcDecoder(Fabric& fabric, const LdpcCode& code,
                               Partition partition,
                               std::vector<int> placement,
                               LdpcNocParams params,
                               std::shared_ptr<BlockCache> cache)
    : fabric_(&fabric),
      code_(&code),
      partition_(std::move(partition)),
      placement_(std::move(placement)),
      params_(params),
      flat_(code, params.iterations, /*early_exit=*/false) {
  params_.validate();
  partition_.validate(code);
  RENOC_CHECK_MSG(partition_.cluster_count <= fabric.node_count(),
                  "more clusters than tiles");
  set_placement(placement_);
  build_static_tables();
  r_.resize(static_cast<std::size_t>(code.edge_count()), 0);
  q_.resize(static_cast<std::size_t>(code.edge_count()), 0);
  runtime_.resize(static_cast<std::size_t>(cluster_count()));
  received_.resize(static_cast<std::size_t>(cluster_count()) *
                   static_cast<std::size_t>(phase_count() + 1));
  // The check side and n fix every edge's (check, variable) pair, hence
  // the variable side too.
  const BlockCache::Inputs inputs{code.n(),
                                  code.check_offsets(),
                                  code.check_neighbors(),
                                  code.check_edge_ids(),
                                  partition_,
                                  params_,
                                  fabric.config()};
  if (cache) {
    RENOC_CHECK_MSG(cache->bind(inputs),
                    "block cache is bound to other decoder inputs");
    cache_ = std::move(cache);
  } else {
    cache_ = BlockCache::shared_for(inputs);
  }
}

void NocLdpcDecoder::set_placement(const std::vector<int>& placement) {
  RENOC_CHECK_MSG(static_cast<int>(placement.size()) ==
                      partition_.cluster_count,
                  "placement size mismatch");
  std::vector<int> tile_cluster(
      static_cast<std::size_t>(fabric_->node_count()), -1);
  for (int c = 0; c < partition_.cluster_count; ++c) {
    const int tile = placement[static_cast<std::size_t>(c)];
    RENOC_CHECK_MSG(tile >= 0 && tile < fabric_->node_count(),
                    "tile " << tile << " out of range");
    RENOC_CHECK_MSG(tile_cluster[static_cast<std::size_t>(tile)] < 0,
                    "two clusters placed on tile " << tile);
    tile_cluster[static_cast<std::size_t>(tile)] = c;
  }
  placement_ = placement;
  tile_cluster_ = std::move(tile_cluster);
}

void NocLdpcDecoder::build_static_tables() {
  const LdpcCode& code = *code_;
  const int k = partition_.cluster_count;

  cluster_vns_.assign(static_cast<std::size_t>(k), {});
  cluster_cns_.assign(static_cast<std::size_t>(k), {});
  for (int v = 0; v < code.n(); ++v)
    cluster_vns_[static_cast<std::size_t>(
                     partition_.vn_owner[static_cast<std::size_t>(v)])]
        .push_back(v);
  for (int c = 0; c < code.m(); ++c)
    cluster_cns_[static_cast<std::size_t>(
                     partition_.cn_owner[static_cast<std::size_t>(c)])]
        .push_back(c);

  cluster_ops_ = cluster_edge_ops(code, partition_);

  // Cross-cluster edge lists, canonical ascending-edge-id order. Walking
  // checks in index order and their edges in construction order gives
  // ascending global edge ids within each (src, dst) bucket because edge
  // ids were assigned in exactly that traversal order.
  std::vector<std::vector<std::vector<int>>> vn_to_cn(
      static_cast<std::size_t>(k),
      std::vector<std::vector<int>>(static_cast<std::size_t>(k)));
  for (int c = 0; c < code.m(); ++c) {
    const int co = partition_.cn_owner[static_cast<std::size_t>(c)];
    for (const TannerEdge& e : code.check_edges(c)) {
      const int vo = partition_.vn_owner[static_cast<std::size_t>(e.other)];
      if (vo == co) continue;
      vn_to_cn[static_cast<std::size_t>(vo)][static_cast<std::size_t>(co)]
          .push_back(e.edge);
    }
  }

  vn_pairs_.assign(static_cast<std::size_t>(k), {});
  cn_pairs_.assign(static_cast<std::size_t>(k), {});
  expected_vn_inputs_.assign(static_cast<std::size_t>(k), 0);
  expected_cn_inputs_.assign(static_cast<std::size_t>(k), 0);
  for (int s = 0; s < k; ++s) {
    for (int d = 0; d < k; ++d) {
      auto& edges = vn_to_cn[static_cast<std::size_t>(s)][
          static_cast<std::size_t>(d)];
      if (edges.empty()) continue;
      std::sort(edges.begin(), edges.end());
      // q values flow VN-cluster s -> CN-cluster d...
      vn_pairs_[static_cast<std::size_t>(s)].push_back(
          PairTraffic{s, d, edges});
      ++expected_cn_inputs_[static_cast<std::size_t>(d)];
      // ...and r values flow back CN-cluster d -> VN-cluster s.
      cn_pairs_[static_cast<std::size_t>(d)].push_back(
          PairTraffic{d, s, edges});
      ++expected_vn_inputs_[static_cast<std::size_t>(s)];
    }
  }
}

int NocLdpcDecoder::migration_state_words(int cluster) const {
  RENOC_CHECK(cluster >= 0 && cluster < cluster_count());
  // Channel LLRs for owned variables plus live r messages on their edges,
  // packed like network traffic, plus a fixed configuration block
  // (routing tables, partition descriptors, quantizer setup — what the
  // conversion unit rewrites; Section 2.1).
  constexpr int kConfigWords = 32;
  std::int64_t values = 0;
  for (int v : cluster_vns_[static_cast<std::size_t>(cluster)])
    values += 1 + code_->var_degree(v);
  const int vpw = params_.values_per_word;
  return static_cast<int>((values + vpw - 1) / vpw) + kConfigWords;
}

bool NocLdpcDecoder::inputs_ready(int cluster, int phase) const {
  const bool is_cn_phase = (phase < 2 * params_.iterations) && (phase % 2 == 1);
  const int expected =
      is_cn_phase ? expected_cn_inputs_[static_cast<std::size_t>(cluster)]
                  : (phase == 0
                         ? 0  // first VN phase needs no r messages
                         : expected_vn_inputs_[static_cast<std::size_t>(
                               cluster)]);
  return received_[received_index(cluster, phase)] >= expected;
}

Cycle NocLdpcDecoder::phase_cost(int cluster, int phase) const {
  const bool is_cn_phase = (phase < 2 * params_.iterations) && (phase % 2 == 1);
  std::uint64_t edge_ops = 0;
  if (is_cn_phase) {
    for (int c : cluster_cns_[static_cast<std::size_t>(cluster)])
      edge_ops += static_cast<std::uint64_t>(code_->check_degree(c));
    return params_.phase_overhead_cycles +
           edge_ops * static_cast<std::uint64_t>(params_.cn_cycles_per_edge);
  }
  for (int v : cluster_vns_[static_cast<std::size_t>(cluster)])
    edge_ops += static_cast<std::uint64_t>(code_->var_degree(v));
  return params_.phase_overhead_cycles +
         edge_ops * static_cast<std::uint64_t>(params_.vn_cycles_per_edge);
}

std::uint64_t NocLdpcDecoder::phase_ops(int cluster, int phase) const {
  const bool is_cn_phase = (phase < 2 * params_.iterations) && (phase % 2 == 1);
  std::uint64_t ops = 0;
  if (is_cn_phase) {
    for (int c : cluster_cns_[static_cast<std::size_t>(cluster)])
      ops += static_cast<std::uint64_t>(code_->check_degree(c));
  } else {
    for (int v : cluster_vns_[static_cast<std::size_t>(cluster)])
      ops += static_cast<std::uint64_t>(code_->var_degree(v));
  }
  return ops;
}

void NocLdpcDecoder::unpack_message(const Message& msg) {
  const int dst_cluster = tile_cluster_[static_cast<std::size_t>(msg.dst)];
  RENOC_CHECK_MSG(dst_cluster >= 0, "message delivered to unmapped tile");
  const int phase = tag_phase(msg.tag);
  const int src_cluster = tag_src(msg.tag);
  RENOC_CHECK(phase >= 0 && phase <= phase_count());

  // Locate the canonical edge list for this (src, dst) pair. A CN-phase
  // message (odd phase) carries r values written from cn_pairs_ of the
  // source; its edges land in r_. VN-phase messages carry q values.
  const bool carries_q = (phase % 2 == 0) && phase < 2 * params_.iterations;
  const auto& pair_lists =
      carries_q ? vn_pairs_[static_cast<std::size_t>(src_cluster)]
                : cn_pairs_[static_cast<std::size_t>(src_cluster)];
  const PairTraffic* pair = nullptr;
  for (const PairTraffic& pt : pair_lists) {
    if (pt.dst == dst_cluster) {
      pair = &pt;
      break;
    }
  }
  RENOC_CHECK_MSG(pair != nullptr, "no traffic entry for received message");

  auto& target = carries_q ? q_ : r_;
  const int vpw = params_.values_per_word;
  for (std::size_t i = 0; i < pair->edges.size(); ++i) {
    const std::uint64_t word = msg.payload[i / static_cast<std::size_t>(vpw)];
    const unsigned shift = 16u * static_cast<unsigned>(i % vpw);
    target[static_cast<std::size_t>(pair->edges[i])] =
        static_cast<std::int16_t>((word >> shift) & 0xffffULL);
  }

  // A message sent during source phase p is consumed by the destination's
  // *next* phase: q of VN phase 2i feeds CN phase 2i+1; r of CN phase 2i+1
  // feeds VN (or final) phase 2i+2.
  const int consumer_phase = phase + 1;
  RENOC_CHECK(consumer_phase < phase_count() + 1);
  ++received_[received_index(dst_cluster, consumer_phase)];
}

void NocLdpcDecoder::send_phase_messages(int cluster, int phase) {
  const bool is_cn_phase = (phase % 2 == 1);
  const auto& pairs = is_cn_phase
                          ? cn_pairs_[static_cast<std::size_t>(cluster)]
                          : vn_pairs_[static_cast<std::size_t>(cluster)];
  const auto& source = is_cn_phase ? r_ : q_;
  const int vpw = params_.values_per_word;
  for (const PairTraffic& pt : pairs) {
    // Pool-backed message: the payload buffer circulates through the
    // fabric's recycling pool, so per-phase messaging stops allocating
    // once every buffer size has been seen.
    Message msg = fabric_->acquire_message();
    msg.src = placement_[static_cast<std::size_t>(cluster)];
    msg.dst = placement_[static_cast<std::size_t>(pt.dst)];
    msg.tag = make_tag(phase, cluster);
    const std::size_t words =
        (pt.edges.size() + static_cast<std::size_t>(vpw) - 1) /
        static_cast<std::size_t>(vpw);
    msg.payload.assign(words, 0);
    for (std::size_t i = 0; i < pt.edges.size(); ++i) {
      const std::uint64_t value = static_cast<std::uint16_t>(
          source[static_cast<std::size_t>(pt.edges[i])]);
      msg.payload[i / static_cast<std::size_t>(vpw)] |=
          value << (16u * static_cast<unsigned>(i % vpw));
    }
    fabric_->send(std::move(msg));
  }
}

void NocLdpcDecoder::start_phase_if_ready(int cluster) {
  auto& rt = runtime_[static_cast<std::size_t>(cluster)];
  if (rt.state != PeState::kWaiting) return;
  if (!inputs_ready(cluster, rt.phase)) return;
  rt.state = PeState::kComputing;
  rt.busy_until = fabric_->now() + phase_cost(cluster, rt.phase);
}

void NocLdpcDecoder::finish_compute(int cluster) {
  auto& rt = runtime_[static_cast<std::size_t>(cluster)];
  const int phase = rt.phase;
  const LdpcCode& code = *code_;

  // Account the compute activity on the hosting tile.
  fabric_->stats()
      .tile(placement_[static_cast<std::size_t>(cluster)])
      .pe_compute_ops += phase_ops(cluster, phase);

  // The PE compute loops stream straight through the flat CSR arrays and
  // the global edge-indexed q_/r_ state with the edge-indexed kernels — the
  // same kernels (and operand order) the golden decoder uses, so the
  // distributed result stays bit-identical with zero per-node scratch.
  const int* var_off = code.var_offsets().data();
  const int* var_ids = code.var_edge_ids().data();

  if (phase == 2 * params_.iterations) {
    // Final hard-decision phase.
    for (int v : cluster_vns_[static_cast<std::size_t>(cluster)])
      hard_bits_[static_cast<std::size_t>(v)] =
          minsum::var_posterior_edges(llr_[static_cast<std::size_t>(v)],
                                      r_.data(), var_ids + var_off[v],
                                      var_off[v + 1] - var_off[v]) < 0
              ? 1
              : 0;
    rt.state = PeState::kDone;
    return;
  }

  if (phase % 2 == 0) {
    // VN phase: q = f(llr, r) for every owned variable.
    for (int v : cluster_vns_[static_cast<std::size_t>(cluster)])
      minsum::var_update_edges(llr_[static_cast<std::size_t>(v)], r_.data(),
                               q_.data(), var_ids + var_off[v],
                               var_off[v + 1] - var_off[v]);
  } else {
    // CN phase: r = g(q) for every owned check.
    const int* check_off = code.check_offsets().data();
    const int* check_ids = code.check_edge_ids().data();
    for (int c : cluster_cns_[static_cast<std::size_t>(cluster)])
      minsum::check_update_edges(q_.data(), r_.data(),
                                 check_ids + check_off[c],
                                 check_off[c + 1] - check_off[c]);
  }

  send_phase_messages(cluster, phase);
  // Same-cluster values were written directly into q_/r_ above, so the
  // only bookkeeping needed is advancing to the next phase.
  rt.phase = phase + 1;
  rt.state = PeState::kWaiting;
}

NocDecodeResult NocLdpcDecoder::decode_block(
    const std::vector<std::int16_t>& channel_llrs) {
  RENOC_CHECK(static_cast<int>(channel_llrs.size()) == code_->n());
  RENOC_CHECK_MSG(fabric_->idle(), "fabric must be idle at block start");
  // A degraded fabric or an unread delivery neither replays nor records.
  if (!fabric_->replayable()) return simulate_block(channel_llrs);

  fabric_->arbitration_fingerprint(fingerprint_);
  // The entry stays alive through this pointer copy while it replays
  // outside the cache's lock.
  if (const std::shared_ptr<const BlockDelta> hit =
          cache_->find(placement_, fingerprint_))
    return replay_block(*hit, channel_llrs);
  if (cache_->size() >= kBlockCacheCap) return simulate_block(channel_llrs);

  BlockDelta delta;
  fabric_->begin_record(delta);
  NocDecodeResult result;
  try {
    result = simulate_block(channel_llrs);
  } catch (...) {
    fabric_->cancel_record();
    throw;
  }
  if (fabric_->end_record(delta)) {
    RENOC_CHECK(delta.cycles == result.cycles);
    delta.latencies.shrink_to_fit();  // held for the cache's lifetime
    cache_->insert({placement_, fingerprint_,
                    std::make_shared<const BlockDelta>(std::move(delta))});
  }
  return result;
}

NocDecodeResult NocLdpcDecoder::replay_block(
    const BlockDelta& delta, const std::vector<std::int16_t>& channel_llrs) {
  fabric_->replay(delta);
  flat_.decode_into(channel_llrs, flat_result_);
  ++replayed_blocks_;
  NocDecodeResult result;
  result.hard_bits = flat_result_.hard_bits;
  result.syndrome_ok = flat_result_.syndrome_ok;
  result.cycles = delta.cycles;
  return result;
}

NocDecodeResult NocLdpcDecoder::simulate_block(
    const std::vector<std::int16_t>& channel_llrs) {
  const LdpcCode& code = *code_;
  ++simulated_blocks_;
  llr_ = channel_llrs;
  std::fill(r_.begin(), r_.end(), static_cast<std::int16_t>(0));
  std::fill(q_.begin(), q_.end(), static_cast<std::int16_t>(0));
  hard_bits_.assign(static_cast<std::size_t>(code.n()), 0);

  std::fill(runtime_.begin(), runtime_.end(), ClusterRuntime{});
  std::fill(received_.begin(), received_.end(), 0);

  const Cycle start = fabric_->now();
  Cycle done_at = start;
  const std::uint64_t deadline = start + params_.max_cycles_per_block;

  // renoc-hot-begin (once per simulated cycle of every NoC-decoded block)
  // `rescan`: some PE's inputs or phase changed since the last scan of the
  // PE state machines. Without a change, a scan is a no-op until the
  // earliest compute completion `next_finish`: waiting PEs were found not
  // ready and nothing new arrived, computing PEs are not due yet.
  bool rescan = true;
  Cycle next_finish = deadline;
  for (;;) {
    // Deliver completed packets to their clusters, tiles in ascending
    // order (unpacking sends nothing, so the ready set is stable here).
    for (int tile = fabric_->next_delivered_node(0); tile >= 0;
         tile = fabric_->next_delivered_node(tile + 1)) {
      while (auto msg = fabric_->try_receive(tile)) {
        unpack_message(*msg);
        fabric_->recycle(std::move(*msg));
        rescan = true;
      }
    }

    // Advance the PE state machines, in cluster order.
    if (rescan || fabric_->now() >= next_finish) {
      rescan = false;
      next_finish = deadline;
      bool all_done = true;
      for (int cl = 0; cl < cluster_count(); ++cl) {
        auto& rt = runtime_[static_cast<std::size_t>(cl)];
        if (rt.state == PeState::kWaiting) start_phase_if_ready(cl);
        if (rt.state == PeState::kComputing) {
          if (fabric_->now() >= rt.busy_until) {
            finish_compute(cl);
            // Its next phase may need no further input (e.g. all its edges
            // are internal): check it again next cycle.
            rescan = true;
            if (rt.state == PeState::kDone) done_at = fabric_->now();
          } else {
            next_finish = std::min(next_finish, rt.busy_until);
          }
        }
        if (rt.state != PeState::kDone) all_done = false;
      }
      if (all_done) break;
    }

    // Skip ahead: with no PE state change pending (so nothing was sent)
    // and an idle fabric (so nothing can be delivered), every cycle before
    // the earliest compute completion is a no-op step. The jump is capped
    // at the deadline, so a deadlock (no PE computing) still trips the
    // guard below at the cycle it always did.
    if (!rescan && fabric_->idle())
      fabric_->advance_idle(next_finish - fabric_->now());
    else
      fabric_->step();
    RENOC_CHECK_MSG(fabric_->now() < deadline,
                    "block exceeded max_cycles_per_block — decoder deadlock?");
  }
  // renoc-hot-end

  NocDecodeResult result;
  result.hard_bits = hard_bits_;
  result.syndrome_ok = code.is_codeword(hard_bits_);
  result.cycles = done_at - start;
  return result;
}

}  // namespace renoc
