#include "noc/fabric.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/check.hpp"

namespace renoc {

namespace {

constexpr int kLocal = static_cast<int>(Direction::kLocal);

// opposite() as a table over the four mesh directions (N<->S, E<->W); the
// commit loop runs it per flit hop.
constexpr int kOppositeDir[4] = {1, 0, 3, 2};

// Payload buffers kept for reuse; beyond this the pool just frees. High
// enough that real workloads never hit it, low enough to bound memory if a
// caller recycles far more than it sends.
constexpr std::size_t kPayloadPoolCap = 16384;

// Node bitmasks (delivered_ready_, active_nis_): one bit per node, 64 per
// word.
void set_bit(std::vector<std::uint64_t>& mask, int node) {
  mask[static_cast<std::size_t>(node) >> 6] |= std::uint64_t{1}
                                                << (node & 63);
}
void clear_bit(std::vector<std::uint64_t>& mask, int node) {
  mask[static_cast<std::size_t>(node) >> 6] &=
      ~(std::uint64_t{1} << (node & 63));
}

}  // namespace

void NocConfig::validate() const {
  RENOC_CHECK_MSG(dim.width >= 2 && dim.height >= 2,
                  "mesh must be at least 2x2, got " << to_string(dim));
  RENOC_CHECK(buffer_depth >= 1);
  RENOC_CHECK(clock_hz > 0);
}

void DeliveryGuardConfig::validate() const {
  RENOC_CHECK_MSG(retry_budget >= 0,
                  "retry budget must be >= 0, got " << retry_budget);
  RENOC_CHECK(timeout_cycles >= 1);
  RENOC_CHECK(backoff_shift_cap >= 0 && backoff_shift_cap < 32);
}

void Fabric::MessageRing::grow() {
  std::vector<Message> bigger(buf.empty() ? 4 : buf.size() * 2);
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t src = head + i;
    if (src >= buf.size()) src -= buf.size();
    bigger[i] = std::move(buf[src]);
  }
  buf = std::move(bigger);
  head = 0;
}

Fabric::Fabric(const NocConfig& config)
    : config_(config), stats_(config.dim.node_count()) {
  config_.validate();
  depth_ = config_.buffer_depth;
  const int n = node_count();
  const std::size_t nodes = static_cast<std::size_t>(n);
  const std::size_t ports = nodes * kDirectionCount;

  arena_.resize(ports * static_cast<std::size_t>(depth_));
  fifo_head_.assign(ports, 0);
  fifo_size_.assign(ports, 0);
  head_packet_.assign(ports, 0);
  head_dst_.assign(ports, 0);
  head_is_head_.assign(ports, 0);
  credits_.assign(nodes * 4, depth_);
  owner_input_.assign(ports, -1);
  owner_packet_.assign(ports, 0);
  rr_pointer_.assign(ports, 0);
  node_buffered_.assign(nodes, 0);
  delivered_ready_.assign((nodes + 63) / 64, 0);
  active_nis_.assign((nodes + 63) / 64, 0);
  nis_.resize(nodes);
  slots_.resize(nodes * nodes);
  payload_pool_.reserve(256);
  planned_.reserve(ports);  // hard cap: one move per output port per cycle

  // Topology tables: downstream node per mesh output, and the XY-routing
  // decision for every (here, dst) pair. Both replace per-flit coordinate
  // arithmetic in the hot loops with a single indexed load. The XY table
  // carries kRouteTablePad tail bytes for the SIMD gather overread; only
  // the first nodes*nodes entries are ever addressed.
  neighbor_node_.assign(nodes * 4, -1);
  route_table_.assign(nodes * nodes + kRouteTablePad,
                      static_cast<std::uint8_t>(kLocal));
  for (int node = 0; node < n; ++node) {
    const GridCoord here = index_to_coord(node, config_.dim);
    for (int d = 0; d < 4; ++d) {
      const GridCoord nb = neighbor(here, static_cast<Direction>(d));
      if (in_bounds(nb, config_.dim))
        neighbor_node_[static_cast<std::size_t>(node) * 4 +
                       static_cast<std::size_t>(d)] =
            coord_to_index(nb, config_.dim);
    }
    for (int dst = 0; dst < n; ++dst)
      route_table_[static_cast<std::size_t>(node) * nodes +
                   static_cast<std::size_t>(dst)] =
          static_cast<std::uint8_t>(
              xy_route(here, index_to_coord(dst, config_.dim)));
  }

  // SIMD arbitration prepass: active only on a vector tier (the scalar
  // table's per-node inline computation below is already optimal, and
  // keeping it null there leaves scalar builds byte-identical in behavior
  // and perf). Pad ports are zeroed mirrors — they scan as want -1 and
  // index row 0 of whichever table is live.
  const simd::KernelTable& active = simd::kernels();
  if (active.tier != simd::Tier::kScalar) want_kernels_ = &active;
  ports_padded_ = static_cast<int>((ports + 7) / 8 * 8);
  const std::size_t padded = static_cast<std::size_t>(ports_padded_);
  want_scan_.assign(padded, 0);
  want_base_xy_.assign(padded, 0);
  want_base_adaptive_.assign(padded, 0);
  for (std::size_t f = 0; f < ports; ++f) {
    want_base_xy_[f] =
        static_cast<int>(f / kDirectionCount) * n;  // node * nodes
    want_base_adaptive_[f] = static_cast<int>(f) * n;
  }
}

void Fabric::push_flit(int node, int port, const Flit& flit) {
  // renoc-hot-begin (once per link traversal, every cycle)
  const std::size_t f = port_index(node, port);
  RENOC_CHECK_MSG(fifo_size_[f] < depth_, "FIFO overflow at node "
                                              << node << " port " << port
                                              << " — credit protocol violated");
  // Conditional wrap, not %: depth_ is a runtime value, so modulo would
  // cost an integer division on every ring operation.
  int slot = fifo_head_[f] + fifo_size_[f];
  if (slot >= depth_) slot -= depth_;
  arena_[f * static_cast<std::size_t>(depth_) +
         static_cast<std::size_t>(slot)] = flit;
  if (++fifo_size_[f] == 1) refresh_head(f);
  ++node_buffered_[static_cast<std::size_t>(node)];
  ++buffered_flits_;
  // renoc-hot-end
}

/// Advances FIFO f past its front flit (caller has already consumed it).
void Fabric::pop_front(int node, std::size_t f) {
  // renoc-hot-begin (once per forwarded flit, every cycle)
  if (++fifo_head_[f] == depth_) fifo_head_[f] = 0;
  if (--fifo_size_[f] > 0) refresh_head(f);
  --node_buffered_[static_cast<std::size_t>(node)];
  --buffered_flits_;
  // renoc-hot-end
}

void Fabric::send(const Message& msg) {
  send(Message(msg));
}

void Fabric::send(Message&& msg) {
  RENOC_CHECK_MSG(msg.src >= 0 && msg.src < node_count(),
                  "bad src " << msg.src);
  RENOC_CHECK_MSG(msg.dst >= 0 && msg.dst < node_count(),
                  "bad dst " << msg.dst);
  // A dead source PE cannot inject; refusing here (with a drop record)
  // keeps the conservation law exact — a queued message at a dead NI would
  // otherwise pin idle() false forever.
  if (degraded_ && router_up_[static_cast<std::size_t>(msg.src)] == 0) {
    stats_.note_packet_dropped();
    recycle(std::move(msg));
    return;
  }
  const int src = msg.src;
  nis_[static_cast<std::size_t>(src)].send_queue.push(std::move(msg));
  set_bit(active_nis_, src);
}

std::optional<Message> Fabric::try_receive(int node) {
  RENOC_CHECK(node >= 0 && node < node_count());
  auto& ni = nis_[static_cast<std::size_t>(node)];
  if (ni.delivered.empty()) return std::nullopt;
  std::optional<Message> msg(ni.delivered.pop());
  if (ni.delivered.empty()) clear_bit(delivered_ready_, node);
  return msg;
}

void Fabric::recycle(Message&& msg) {
  if (payload_pool_.size() >= kPayloadPoolCap) return;
  msg.payload.clear();
  payload_pool_.push_back(std::move(msg.payload));
}

Message Fabric::acquire_message() {
  Message m;
  if (!payload_pool_.empty()) {
    m.payload = std::move(payload_pool_.back());
    payload_pool_.pop_back();
    m.payload.clear();
  }
  return m;
}

int Fabric::delivered_count(int node) const {
  RENOC_CHECK(node >= 0 && node < node_count());
  return static_cast<int>(
      nis_[static_cast<std::size_t>(node)].delivered.size());
}

int Fabric::next_delivered_node(int from) const {
  RENOC_CHECK(from >= 0 && from <= node_count());
  std::size_t w = static_cast<std::size_t>(from) >> 6;
  if (w >= delivered_ready_.size()) return -1;
  std::uint64_t bits = delivered_ready_[w] & (~std::uint64_t{0} << (from & 63));
  while (bits == 0) {
    if (++w == delivered_ready_.size()) return -1;
    bits = delivered_ready_[w];
  }
  return static_cast<int>(w * 64) + std::countr_zero(bits);
}

void Fabric::sync_active(int node) {
  const auto& ni = nis_[static_cast<std::size_t>(node)];
  if (!ni.send_queue.empty() || ni.staged_pos < ni.staged_flits.size() ||
      ni.tracked_active)
    set_bit(active_nis_, node);
  else
    clear_bit(active_nis_, node);
}

void Fabric::build_staged_flits(NetworkInterface& ni, const Message& msg,
                                PacketId pid, std::uint32_t msg_seq) {
  const int nflits = msg.flit_count();
  ni.staged_flits.clear();
  ni.staged_pos = 0;
  ni.staged_flits.reserve(static_cast<std::size_t>(nflits));
  for (int i = 0; i < nflits; ++i) {
    Flit f;
    f.packet = pid;
    f.src = msg.src;
    f.dst = msg.dst;
    f.seq = static_cast<std::uint32_t>(i);
    f.payload = msg.payload.empty() ? 0
                                    : msg.payload[static_cast<std::size_t>(i)];
    f.tag = msg.tag;
    f.injected_at = now_;
    f.pkt_flits = static_cast<std::uint32_t>(nflits);
    f.msg_seq = msg_seq;
    if (nflits == 1) {
      f.type = FlitType::kHeadTail;
    } else if (i == 0) {
      f.type = FlitType::kHead;
    } else if (i == nflits - 1) {
      f.type = FlitType::kTail;
    } else {
      f.type = FlitType::kBody;
    }
    ni.staged_flits.push_back(f);
  }
}

void Fabric::stage_next_message(int node) {
  auto& ni = nis_[static_cast<std::size_t>(node)];
  if (ni.send_queue.empty()) return;
  Message msg = ni.send_queue.pop();
  build_staged_flits(ni, msg, next_packet_id_++, ++ni.next_msg_seq);
  // The staged message's payload buffer goes back to the pool so the next
  // acquire_message()/reassembly can reuse it.
  recycle(std::move(msg));
}

void Fabric::eject_flit(int node, const Flit& flit) {
  // renoc-hot-begin (once per flit reaching its destination)
  ++stats_.tile(node).ejected_flits;
  if (degraded_) note_flit_left_network(flit);
  const std::size_t nodes = static_cast<std::size_t>(node_count());
  ReassemblySlot& slot =
      slots_[static_cast<std::size_t>(node) * nodes +
             static_cast<std::size_t>(flit.src)];
  if (flit.is_head()) {
    // Wormhole ownership of every traversed port plus FIFO links means a
    // (src, dst) pair never has two packets interleaved at ejection; in
    // degraded mode the stop-and-wait tracker enforces the same bound.
    RENOC_CHECK_MSG(slot.flits == 0 && !slot.discarding,
                    "reassembly slot busy for src " << flit.src << " at node "
                                                    << node);
    slot.pid = flit.packet;
    if (degraded_ && flit.msg_seq != 0 &&
        flit.msg_seq <= slot.last_seq_delivered) {
      // Retransmission duplicate: the original was delivered, but its
      // delivery notice was still in flight when the source's timeout
      // fired. Swallow the whole packet; count it at the tail.
      slot.discarding = true;
    } else {
      slot.msg.src = flit.src;
      slot.msg.dst = flit.dst;
      slot.msg.tag = flit.tag;
      slot.head_injected_at = flit.injected_at;
      // Reserve the whole payload up front from the head flit's packet
      // length, pulling capacity from the recycling pool when the slot's
      // own buffer (moved out with the previous delivery) is too small.
      if (slot.msg.payload.capacity() < flit.pkt_flits &&
          !payload_pool_.empty()) {
        slot.msg.payload.swap(payload_pool_.back());
        payload_pool_.pop_back();
      }
      slot.msg.payload.clear();
      // renoc-lint-allow(hot-alloc): head-flit reserve reusing pooled capacity
      slot.msg.payload.reserve(flit.pkt_flits);
      ++partial_count_;
    }
  }
  if (slot.discarding) {
    if (flit.is_tail()) {
      stats_.note_duplicate_suppressed();
      slot.discarding = false;
      slot.pid = 0;
    }
  } else {
    // renoc-lint-allow(hot-alloc): within the capacity reserved at the head
    slot.msg.payload.push_back(flit.payload);
    ++slot.flits;
    if (flit.is_tail()) {
      // A message sent with an empty payload occupies one flit and is
      // delivered with a single zero word (the wire cannot distinguish the
      // two; see Message::flit_count).
      stats_.note_packet_delivered(slot.flits, now_ - slot.head_injected_at);
      nis_[static_cast<std::size_t>(node)].delivered.push(std::move(slot.msg));
      set_bit(delivered_ready_, node);
      slot.flits = 0;
      slot.pid = 0;
      --partial_count_;
      if (degraded_) {
        slot.last_seq_delivered = flit.msg_seq;
        // Delivery notice toward the source: the tracker resolves once the
        // notice lands (ack_latency_cycles later). Keyed by msg_seq, not
        // PacketId — the delivering attempt may be older than the tracked
        // one when a retransmission is already in flight.
        auto& sni = nis_[static_cast<std::size_t>(flit.src)];
        if (sni.tracked_active && sni.tracked_seq == flit.msg_seq &&
            sni.tracked_ack_at == kNoAck)
          sni.tracked_ack_at = now_ + guard_.ack_latency_cycles;
      }
    }
  }
  // renoc-hot-end
}

void Fabric::step() {
  ++now_;
  // Topology-change epochs: fault events due this cycle apply now, bump
  // the route epoch, rebuild the adaptive tables, and purge stranded
  // packets — all before (outside) the annotated hot region below.
  if (degraded_ && next_fault_ < fault_events_.size() &&
      fault_events_[next_fault_].cycle <= now_)
    apply_due_faults();
  const int n_nodes = node_count();
  const std::size_t nodes = static_cast<std::size_t>(n_nodes);
  // Epoch-versioned table selection, hoisted out of the scan: the adaptive
  // pointer only ever changes at an epoch boundary above, never mid-cycle.
  const bool adaptive = adaptive_active_;
  const std::uint8_t* const adaptive_routes =
      adaptive ? adaptive_table_.data() : nullptr;
  // Contiguous tile counters, hoisted past tile()'s per-call bounds check
  // (every index below is a valid node).
  TileActivity* const tiles = &stats_.tile(0);

  // --- Phase 1: arbitration over the pre-cycle state --------------------
  // Same decision procedure as Router::arbitrate in the reference engine,
  // inlined over the flat arrays: wormhole continuation first, then
  // round-robin output allocation among buffered head flits.
  // renoc-hot-begin (phases 1+2 run every cycle over every router)
  planned_.clear();
  // SIMD want[]-prepass: on a vector tier with any flit buffered, one
  // kernel call scans every port's head-flit mirrors at once; each node's
  // loop below then reads its slice instead of computing inline. Semantics
  // are identical to the inline fallback (bit-exact masks, same tables).
  const bool scanned = want_kernels_ != nullptr && buffered_flits_ > 0;
  if (scanned) {
    want_kernels_->noc_want_scan(
        fifo_size_.data(), head_is_head_.data(), head_dst_.data(),
        adaptive ? want_base_adaptive_.data() : want_base_xy_.data(),
        adaptive ? adaptive_routes : route_table_.data(), ports_padded_,
        want_scan_.data());
  }
  for (int n = 0; n < n_nodes; ++n) {
    // A router with no buffered flit can plan nothing: continuations stall
    // on empty FIFOs and allocations need a head flit. (The reference
    // arbitrates such routers too, with zero planned moves and a zero
    // arbitration count — no observable difference.)
    if (node_buffered_[static_cast<std::size_t>(n)] == 0) continue;

    const std::size_t base = static_cast<std::size_t>(n) * kDirectionCount;
    const std::size_t credit_base = static_cast<std::size_t>(n) * 4;
    const std::size_t route_base = static_cast<std::size_t>(n) * nodes;
    // Input-major pre-pass: each input's desired output (head flit at the
    // front, routed via the table) is computed once, instead of once per
    // candidate output in the round-robin scans below. The zero-fault fast
    // path reads the XY table; after the first topology-change epoch the
    // per-input west-first table takes over (input port encodes the travel
    // direction the turn restriction needs). An unreachable head parks
    // (want -1) — purge removes such heads at the epoch that strands them,
    // so nothing spins here.
    int want_local[kDirectionCount];
    const int* want;
    if (scanned) {
      want = want_scan_.data() + base;
    } else {
      for (int in = 0; in < kDirectionCount; ++in) {
        const std::size_t f = base + static_cast<std::size_t>(in);
        if (fifo_size_[f] > 0 && head_is_head_[f] != 0) {
          const std::uint8_t out =
              adaptive
                  ? adaptive_routes[(base + static_cast<std::size_t>(in)) *
                                        nodes +
                                    static_cast<std::size_t>(head_dst_[f])]
                  : route_table_[route_base +
                                 static_cast<std::size_t>(head_dst_[f])];
          want_local[in] = out == kUnreachableRoute ? -1 : static_cast<int>(out);
        } else {
          want_local[in] = -1;
        }
      }
      want = want_local;
    }
    // Request mask per output: bit `in` of req[o] is set when input `in`
    // holds a head flit routed to output o.
    unsigned req[kDirectionCount] = {0, 0, 0, 0, 0};
    for (int in = 0; in < kDirectionCount; ++in)
      if (want[in] >= 0) req[want[in]] |= 1u << in;
    int new_allocations = 0;
    for (int o = 0; o < kDirectionCount; ++o) {
      const bool credit_ok =
          o == kLocal /* ideal ejection */ ||
          credits_[credit_base + static_cast<std::size_t>(o)] > 0;
      const std::size_t out = base + static_cast<std::size_t>(o);
      const int owner = owner_input_[out];
      if (owner >= 0) {
        // Wormhole continuation: move the next flit of the owning packet
        // if it has arrived and the downstream FIFO can take it.
        const std::size_t f = base + static_cast<std::size_t>(owner);
        if (fifo_size_[f] > 0 && head_packet_[f] == owner_packet_[out] &&
            credit_ok)
          // renoc-lint-allow(hot-alloc): worst case reserved in the ctor
          planned_.push_back(
              PlannedMove{n, owner, static_cast<Direction>(o)});
        continue;
      }
      const unsigned mask = req[o];
      if (!credit_ok || mask == 0) continue;
      // Round-robin: the first requester after the pointer, in cyclic
      // order. Rotating the mask right by `first` puts input `first` at
      // bit 0, so the lowest set bit is the grant.
      int first = rr_pointer_[out] + 1;
      if (first == kDirectionCount) first = 0;
      const unsigned rotated =
          ((mask >> first) | (mask << (kDirectionCount - first))) & 0x1fu;
      int in = first + std::countr_zero(rotated);
      if (in >= kDirectionCount) in -= kDirectionCount;
      // renoc-lint-allow(hot-alloc): worst case reserved in the ctor
      planned_.push_back(PlannedMove{n, in, static_cast<Direction>(o)});
      owner_input_[out] = static_cast<std::int8_t>(in);
      owner_packet_[out] = head_packet_[base + static_cast<std::size_t>(in)];
      rr_pointer_[out] = static_cast<std::int8_t>(in);
      ++new_allocations;
    }
    tiles[n].arbitrations += static_cast<std::uint64_t>(new_allocations);
  }

  // --- Phase 2: commit all planned moves --------------------------------
  for (const PlannedMove& mv : planned_) {
    const int n = mv.node;
    const std::size_t f = port_index(n, mv.in_port);
    // The flit moves arena-to-arena (or arena-to-reassembly) in one copy:
    // consume it in place, then advance the source ring.
    const Flit& flit = fifo_front(f);
    const bool tail = flit.is_tail();
    TileActivity& act = tiles[n];
    ++act.buffer_reads;
    ++act.crossbar_traversals;

    // Credit return toward the upstream router (not for local injection).
    if (mv.in_port != kLocal) {
      const int up = neighbor_node_[static_cast<std::size_t>(n) * 4 +
                                    static_cast<std::size_t>(mv.in_port)];
      ++credits_[static_cast<std::size_t>(up) * 4 +
                 static_cast<std::size_t>(kOppositeDir[mv.in_port])];
    }

    const int o = static_cast<int>(mv.out);
    if (mv.out == Direction::kLocal) {
      eject_flit(n, flit);
    } else {
      const int down = neighbor_node_[static_cast<std::size_t>(n) * 4 +
                                      static_cast<std::size_t>(o)];
      push_flit(down, kOppositeDir[o], flit);
      ++tiles[down].buffer_writes;
      ++act.link_flits;
      --credits_[static_cast<std::size_t>(n) * 4 +
                 static_cast<std::size_t>(o)];
    }
    pop_front(n, f);
    if (tail) {
      const std::size_t out = port_index(n, o);
      owner_input_[out] = -1;
      owner_packet_[out] = 0;
    }
  }
  // renoc-hot-end

  // --- Phase 3: injection ------------------------------------------------
  inject_phase();
}

void Fabric::inject_phase() {
  // renoc-hot-begin (phase 3 runs every cycle over the active NIs)
  if (degraded_) {
    // The delivery guard is NI hardware: timeouts, retransmissions and
    // notice handling keep running while the PE is halted —
    // set_injection_enabled gates only the admission of NEW messages
    // (inside guard_tick), and a wormhole packet cannot be stopped
    // mid-injection without wedging its grants downstream. Its timers
    // tick on every live NI, so this path visits them all.
    for (int n = 0; n < node_count(); ++n) {
      if (router_up_[static_cast<std::size_t>(n)] == 0) continue;
      auto& ni = nis_[static_cast<std::size_t>(n)];
      guard_tick(n, ni);
      inject_flit(n, ni);
      sync_active(n);
    }
    return;
  }
  // Healthy fabric: only NIs with a queued or partly injected message can
  // act, visited in ascending node order (packet ids are assigned in
  // staging order). Each visit changes only its own NI, so walking a
  // snapshot of each mask word is safe.
  for (std::size_t w = 0; w < active_nis_.size(); ++w) {
    for (std::uint64_t bits = active_nis_[w]; bits != 0; bits &= bits - 1) {
      const int n = static_cast<int>(w * 64) + std::countr_zero(bits);
      auto& ni = nis_[static_cast<std::size_t>(n)];
      if (!ni.enabled) continue;
      // An active NI with nothing staged has a queued message.
      if (ni.staged_pos >= ni.staged_flits.size()) stage_next_message(n);
      inject_flit(n, ni);
      if (ni.staged_pos >= ni.staged_flits.size() && ni.send_queue.empty())
        clear_bit(active_nis_, n);
    }
  }
  // renoc-hot-end
}

void Fabric::inject_flit(int node, NetworkInterface& ni) {
  // renoc-hot-begin (at most one flit per NI per cycle)
  if (ni.staged_pos >= ni.staged_flits.size()) return;
  if (fifo_size_[port_index(node, kLocal)] >= depth_) return;
  push_flit(node, kLocal, ni.staged_flits[ni.staged_pos++]);
  if (degraded_) ++ni.tracked_flits_in_net;
  TileActivity& act = stats_.tile(node);
  ++act.injected_flits;
  ++act.buffer_writes;
  // renoc-hot-end
}

void Fabric::run(int n) {
  RENOC_CHECK(n >= 0);
  for (int i = 0; i < n; ++i) step();
}

void Fabric::advance_idle(Cycle n) {
  RENOC_CHECK_MSG(buffered_flits_ == 0,
                  "advance_idle needs an idle fabric, but "
                      << buffered_flits_ << " flits are buffered");
  RENOC_CHECK_MSG(partial_count_ == 0,
                  "advance_idle needs an idle fabric, but "
                      << partial_count_ << " packets are mid-reassembly");
  RENOC_CHECK_MSG(idle(), "advance_idle needs an idle fabric, but an NI has "
                          "queued, staged or tracked messages");
  // Stepping applies an event at the first step whose cycle has reached
  // it (an event already past applies on the next step), one batch per
  // step; an idle fabric changes in no other way.
  const Cycle target = now_ + n;
  while (degraded_ && next_fault_ < fault_events_.size()) {
    const Cycle due = std::max(now_ + 1, fault_events_[next_fault_].cycle);
    if (due > target) break;
    now_ = due;
    apply_due_faults();
  }
  now_ = target;
  skipped_cycles_ += n;
}

int Fabric::drain(int max_cycles) {
  for (int i = 0; i < max_cycles; ++i) {
    if (idle()) return i;
    step();
  }
  RENOC_CHECK_MSG(idle(), "network failed to drain in " << max_cycles
                                                        << " cycles");
  return max_cycles;
}

bool Fabric::idle() const {
  // No buffered flit also implies no wormhole grant can be pending (a held
  // grant means a tail flit is still staged or buffered somewhere), and no
  // active reassembly (its tail would be in flight) — so these two counters
  // plus the active-NI set (queued, staged, or tracked-and-unresolved
  // messages) cover the reference engine's full quiescence check.
  if (buffered_flits_ != 0 || partial_count_ != 0) return false;
  for (const std::uint64_t word : active_nis_)
    if (word != 0) return false;
  return true;
}

void Fabric::set_injection_enabled(int node, bool enabled) {
  RENOC_CHECK(node >= 0 && node < node_count());
  nis_[static_cast<std::size_t>(node)].enabled = enabled;
}

bool Fabric::injection_enabled(int node) const {
  RENOC_CHECK(node >= 0 && node < node_count());
  return nis_[static_cast<std::size_t>(node)].enabled;
}

int Fabric::pending_send_count(int node) const {
  RENOC_CHECK(node >= 0 && node < node_count());
  const auto& ni = nis_[static_cast<std::size_t>(node)];
  const int staged_left = ni.staged_pos < ni.staged_flits.size() ? 1 : 0;
  return static_cast<int>(ni.send_queue.size()) + staged_left;
}

// --- Block record and replay ------------------------------------------------

bool Fabric::replayable() const {
  if (degraded_ || !idle()) return false;
  for (const std::uint64_t word : delivered_ready_)
    if (word != 0) return false;
  return true;
}

void Fabric::arbitration_fingerprint(std::vector<std::int8_t>& out) const {
  RENOC_CHECK_MSG(replayable(), "an arbitration fingerprint needs an idle, "
                                "healthy fabric with nothing unread");
  // Asserted rather than hashed: on an idle fabric these have one value.
  // (idle() already covers the FIFOs, NI queues and reassembly slots.)
  for (const int c : credits_)
    RENOC_CHECK_MSG(c == depth_, "idle fabric has a credit outstanding");
  for (const std::int8_t owner : owner_input_)
    RENOC_CHECK_MSG(owner < 0, "idle fabric holds a wormhole grant");
  const std::size_t ports = rr_pointer_.size();
  out.resize(ports + nis_.size());
  std::copy(rr_pointer_.begin(), rr_pointer_.end(), out.begin());
  for (std::size_t n = 0; n < nis_.size(); ++n)
    out[ports + n] = nis_[n].enabled ? 1 : 0;
}

void Fabric::begin_record(BlockDelta& delta) {
  RENOC_CHECK_MSG(replayable(), "a block record needs an idle, healthy "
                                "fabric with nothing unread");
  // Snapshot the start values; end_record turns them into increments.
  const int n_nodes = node_count();
  delta.tiles.resize(static_cast<std::size_t>(n_nodes));
  for (int t = 0; t < n_nodes; ++t)
    delta.tiles[static_cast<std::size_t>(t)] = stats_.tile(t);
  delta.packets_delivered = stats_.packets_delivered();
  delta.flits_delivered = stats_.flits_delivered();
  delta.latencies.clear();
  delta.packet_ids = next_packet_id_;
  delta.msg_seqs.resize(nis_.size());
  for (std::size_t n = 0; n < nis_.size(); ++n)
    delta.msg_seqs[n] = nis_[n].next_msg_seq;
  delta.cycles = now_;
  delta.end_rr.clear();
  stats_.set_latency_sink(&delta.latencies);
}

bool Fabric::end_record(BlockDelta& delta) {
  cancel_record();
  if (!replayable()) return false;
  const int n_nodes = node_count();
  for (int t = 0; t < n_nodes; ++t) {
    TileActivity inc = stats_.tile(t);
    inc -= delta.tiles[static_cast<std::size_t>(t)];
    delta.tiles[static_cast<std::size_t>(t)] = inc;
  }
  delta.packets_delivered = stats_.packets_delivered() - delta.packets_delivered;
  delta.flits_delivered = stats_.flits_delivered() - delta.flits_delivered;
  // A sample over 16 bits was not recorded, and a stats clear() inside the
  // block would break the differencing: either leaves the counts unequal.
  if (delta.latencies.size() != delta.packets_delivered) return false;
  delta.cycles = now_ - delta.cycles;
  delta.packet_ids = next_packet_id_ - delta.packet_ids;
  for (std::size_t n = 0; n < nis_.size(); ++n)
    delta.msg_seqs[n] = nis_[n].next_msg_seq - delta.msg_seqs[n];
  delta.end_rr.assign(rr_pointer_.begin(), rr_pointer_.end());
  return true;
}

void Fabric::replay(const BlockDelta& delta) {
  RENOC_CHECK_MSG(replayable(), "a block replay needs an idle, healthy "
                                "fabric with nothing unread");
  const int n_nodes = node_count();
  RENOC_CHECK(delta.tiles.size() == static_cast<std::size_t>(n_nodes) &&
              delta.msg_seqs.size() == nis_.size() &&
              delta.end_rr.size() == rr_pointer_.size());
  for (int t = 0; t < n_nodes; ++t)
    stats_.tile(t) += delta.tiles[static_cast<std::size_t>(t)];
  stats_.replay_deliveries(delta.packets_delivered, delta.flits_delivered,
                           delta.latencies);
  next_packet_id_ += delta.packet_ids;
  for (std::size_t n = 0; n < nis_.size(); ++n)
    nis_[n].next_msg_seq += delta.msg_seqs[n];
  std::copy(delta.end_rr.begin(), delta.end_rr.end(), rr_pointer_.begin());
  now_ += delta.cycles;
}

// --- Degraded-fabric mode ---------------------------------------------------

void Fabric::enter_degraded_mode() {
  if (degraded_) return;
  degraded_ = true;
  const std::size_t nodes = static_cast<std::size_t>(node_count());
  router_up_.assign(nodes, 1);
  link_up_.assign(nodes * 4, 0);
  for (std::size_t l = 0; l < nodes * 4; ++l)
    if (neighbor_node_[l] >= 0) link_up_[l] = 1;
  doomed_.reserve(64);
}

void Fabric::install_fault_plan(const FaultPlan& plan) {
  RENOC_CHECK_MSG(idle(), "install a fault plan on an idle fabric");
  for (const FaultEvent& e : plan.events) {
    RENOC_CHECK_MSG(e.node >= 0 && e.node < node_count(),
                    "fault event names node " << e.node);
    if (e.kind != FaultEvent::Kind::kRouterDown)
      RENOC_CHECK_MSG(e.port >= 0 && e.port < 4,
                      "link fault names port " << e.port);
  }
  fault_events_ = plan.events;
  next_fault_ = 0;
  enter_degraded_mode();
}

void Fabric::configure_delivery_guard(const DeliveryGuardConfig& cfg) {
  cfg.validate();
  RENOC_CHECK_MSG(idle(), "configure the delivery guard on an idle fabric");
  guard_ = cfg;
  enter_degraded_mode();
}

bool Fabric::router_alive(int node) const {
  RENOC_CHECK(node >= 0 && node < node_count());
  return !degraded_ || router_up_[static_cast<std::size_t>(node)] != 0;
}

bool Fabric::link_alive(int node, int dir) const {
  RENOC_CHECK(node >= 0 && node < node_count());
  RENOC_CHECK(dir >= 0 && dir < 4);
  const std::size_t l =
      static_cast<std::size_t>(node) * 4 + static_cast<std::size_t>(dir);
  if (!degraded_) return neighbor_node_[l] >= 0;
  return link_up_[l] != 0;
}

bool Fabric::destination_reachable(int src, int dst) const {
  RENOC_CHECK(src >= 0 && src < node_count());
  RENOC_CHECK(dst >= 0 && dst < node_count());
  if (!degraded_) return true;
  if (router_up_[static_cast<std::size_t>(src)] == 0 ||
      router_up_[static_cast<std::size_t>(dst)] == 0)
    return false;
  if (!adaptive_active_) return true;
  const std::size_t nodes = static_cast<std::size_t>(node_count());
  return adaptive_table_[(static_cast<std::size_t>(src) * kDirectionCount +
                          static_cast<std::size_t>(kLocal)) *
                             nodes +
                         static_cast<std::size_t>(dst)] != kUnreachableRoute;
}

void Fabric::apply_due_faults() {
  bool changed = false;
  while (next_fault_ < fault_events_.size() &&
         fault_events_[next_fault_].cycle <= now_) {
    const FaultEvent& e = fault_events_[next_fault_++];
    const std::size_t n = static_cast<std::size_t>(e.node);
    switch (e.kind) {
      case FaultEvent::Kind::kLinkDown: {
        const std::size_t l = n * 4 + static_cast<std::size_t>(e.port);
        if (neighbor_node_[l] >= 0 && link_up_[l] != 0) {
          link_up_[l] = 0;
          changed = true;
        }
        break;
      }
      case FaultEvent::Kind::kLinkUp: {
        const std::size_t l = n * 4 + static_cast<std::size_t>(e.port);
        const int down = neighbor_node_[l];
        // A flaky link never recovers past a dead endpoint.
        if (down >= 0 && link_up_[l] == 0 && router_up_[n] != 0 &&
            router_up_[static_cast<std::size_t>(down)] != 0) {
          link_up_[l] = 1;
          changed = true;
        }
        break;
      }
      case FaultEvent::Kind::kRouterDown: {
        if (router_up_[n] == 0) break;
        router_up_[n] = 0;
        // A dead router takes all eight adjacent unidirectional links
        // with it (its four outputs and the neighbors' links toward it).
        for (int d = 0; d < 4; ++d) {
          const std::size_t l = n * 4 + static_cast<std::size_t>(d);
          link_up_[l] = 0;
          const int m = neighbor_node_[l];
          if (m >= 0)
            link_up_[static_cast<std::size_t>(m) * 4 +
                     static_cast<std::size_t>(kOppositeDir[d])] = 0;
        }
        changed = true;
        break;
      }
    }
  }
  if (!changed) return;
  // One route epoch per applied batch: rebuild the west-first tables over
  // the surviving topology, then purge what the change stranded. Both are
  // cold-path operations, deliberately outside every renoc-hot region.
  ++route_epoch_;
  adaptive_active_ = true;
  build_adaptive_routes(config_.dim, link_up_, router_up_, adaptive_table_);
  // Re-pad after every rebuild (build_adaptive_routes assigns the exact
  // size): the SIMD want-scan's gather may overread up to kRouteTablePad
  // bytes past the last entry.
  adaptive_table_.resize(adaptive_table_.size() + kRouteTablePad, 0);
  purge_stranded_packets();
}

void Fabric::purge_stranded_packets() {
  const int n_nodes = node_count();
  const std::size_t nodes = static_cast<std::size_t>(n_nodes);
  doomed_.clear();

  // Pass A: collect doomed packets — every flit buffered in a dead router,
  // every wormhole grant crossing a dead link (the packet's remaining
  // flits can never follow their head), every buffered head whose
  // destination is unreachable from where it sits under the new tables,
  // and every reassembly in progress at a dead router.
  for (int n = 0; n < n_nodes; ++n) {
    const bool dead = router_up_[static_cast<std::size_t>(n)] == 0;
    for (int p = 0; p < kDirectionCount; ++p) {
      const std::size_t f = port_index(n, p);
      const std::size_t arena_base = f * static_cast<std::size_t>(depth_);
      int pos = fifo_head_[f];
      for (int k = 0; k < fifo_size_[f]; ++k) {
        const Flit& fl = arena_[arena_base + static_cast<std::size_t>(pos)];
        if (++pos == depth_) pos = 0;
        if (dead) {
          doomed_.push_back(fl.packet);
        } else if (fl.is_head() &&
                   adaptive_table_[f * nodes +
                                   static_cast<std::size_t>(fl.dst)] ==
                       kUnreachableRoute) {
          doomed_.push_back(fl.packet);
        }
      }
      if (owner_input_[f] >= 0) {
        bool broken = dead;
        if (!broken && p != kLocal) {
          const std::size_t l =
              static_cast<std::size_t>(n) * 4 + static_cast<std::size_t>(p);
          const int down = neighbor_node_[l];
          broken = link_up_[l] == 0 ||
                   (down >= 0 && router_up_[static_cast<std::size_t>(down)] == 0);
        }
        if (broken) doomed_.push_back(owner_packet_[f]);
      }
    }
    if (dead) {
      for (int s = 0; s < n_nodes; ++s) {
        const ReassemblySlot& slot =
            slots_[static_cast<std::size_t>(n) * nodes +
                   static_cast<std::size_t>(s)];
        if (slot.flits > 0 || slot.discarding) doomed_.push_back(slot.pid);
      }
      const auto& ni = nis_[static_cast<std::size_t>(n)];
      // The dead NI's current attempt dies with it even when every flit is
      // in flight elsewhere on a healthy path: Pass B4 resolves the tracker
      // (recording the drop), so letting those flits eject would count the
      // same packet both dropped and delivered.
      if (ni.tracked_active) doomed_.push_back(ni.tracked_pid);
      if (ni.staged_pos < ni.staged_flits.size())
        doomed_.push_back(ni.staged_flits[0].packet);
    }
  }
  std::sort(doomed_.begin(), doomed_.end());
  doomed_.erase(std::unique(doomed_.begin(), doomed_.end()), doomed_.end());
  const auto is_doomed = [this](PacketId pid) {
    return std::binary_search(doomed_.begin(), doomed_.end(), pid);
  };

  if (!doomed_.empty()) {
    // Pass B1: drop doomed flits from the input FIFOs, compacting each
    // ring in place and returning the freed buffer slots' credits
    // upstream. Source trackers see their flit counts fall (a zeroed count
    // is what arms their retransmission).
    std::vector<Flit> kept(static_cast<std::size_t>(depth_));
    for (int n = 0; n < n_nodes; ++n) {
      const bool dead = router_up_[static_cast<std::size_t>(n)] == 0;
      for (int p = 0; p < kDirectionCount; ++p) {
        const std::size_t f = port_index(n, p);
        const int sz = fifo_size_[f];
        if (sz == 0) continue;
        const std::size_t arena_base = f * static_cast<std::size_t>(depth_);
        int pos = fifo_head_[f];
        int keep = 0;
        for (int k = 0; k < sz; ++k) {
          const Flit fl = arena_[arena_base + static_cast<std::size_t>(pos)];
          if (++pos == depth_) pos = 0;
          if (dead || is_doomed(fl.packet)) {
            note_flit_left_network(fl);
            if (p != kLocal) {
              const int up =
                  neighbor_node_[static_cast<std::size_t>(n) * 4 +
                                 static_cast<std::size_t>(p)];
              if (up >= 0)
                ++credits_[static_cast<std::size_t>(up) * 4 +
                           static_cast<std::size_t>(kOppositeDir[p])];
            }
            --node_buffered_[static_cast<std::size_t>(n)];
            --buffered_flits_;
          } else {
            kept[static_cast<std::size_t>(keep++)] = fl;
          }
        }
        if (keep != sz) {
          for (int k = 0; k < keep; ++k)
            arena_[arena_base + static_cast<std::size_t>(k)] =
                kept[static_cast<std::size_t>(k)];
          fifo_head_[f] = 0;
          fifo_size_[f] = keep;
          if (keep > 0) refresh_head(f);
        }
      }
    }
    // Pass B2: release wormhole grants held by doomed packets.
    for (std::size_t f = 0; f < owner_input_.size(); ++f) {
      if (owner_input_[f] >= 0 && is_doomed(owner_packet_[f])) {
        owner_input_[f] = -1;
        owner_packet_[f] = 0;
      }
    }
    // Pass B3: clear stranded reassembly slots. No drop is recorded here —
    // the source tracker owns the packet's accounting (it retransmits or
    // resolves dropped/unreachable at its timeout).
    for (int d = 0; d < n_nodes; ++d) {
      const bool ddead = router_up_[static_cast<std::size_t>(d)] == 0;
      for (int s = 0; s < n_nodes; ++s) {
        ReassemblySlot& slot = slots_[static_cast<std::size_t>(d) * nodes +
                                      static_cast<std::size_t>(s)];
        if (slot.flits == 0 && !slot.discarding) continue;
        if (!ddead && !is_doomed(slot.pid)) continue;
        if (slot.flits > 0) {
          slot.flits = 0;
          --partial_count_;
        }
        slot.discarding = false;
        slot.pid = 0;
      }
    }
  }

  // Pass B4: NI cleanup — always runs (a dead router may hold queued
  // messages even when no flit of its was buffered).
  for (int n = 0; n < n_nodes; ++n) {
    auto& ni = nis_[static_cast<std::size_t>(n)];
    if (router_up_[static_cast<std::size_t>(n)] == 0) {
      // Dead PE: everything queued or tracked here resolves now. A tracked
      // message whose delivery notice is already in flight was delivered —
      // counting it dropped would double-count.
      ni.staged_flits.clear();
      ni.staged_pos = 0;
      if (ni.tracked_active) {
        if (ni.tracked_ack_at == kNoAck) stats_.note_packet_dropped();
        resolve_tracked(ni);
      }
      while (!ni.send_queue.empty()) {
        stats_.note_packet_dropped();
        recycle(ni.send_queue.pop());
      }
    } else if (ni.staged_pos < ni.staged_flits.size() &&
               is_doomed(ni.staged_flits[0].packet)) {
      // The partially injected attempt was purged from the fabric; discard
      // its remaining staged flits so the tracker can retransmit the whole
      // message cleanly.
      ni.staged_flits.clear();
      ni.staged_pos = 0;
    }
    sync_active(n);
  }
}

void Fabric::note_flit_left_network(const Flit& flit) {
  // renoc-hot-begin (once per flit leaving a degraded fabric)
  auto& ni = nis_[static_cast<std::size_t>(flit.src)];
  if (ni.tracked_active && ni.tracked_pid == flit.packet)
    --ni.tracked_flits_in_net;
  // renoc-hot-end
}

void Fabric::restage_tracked(NetworkInterface& ni) {
  const PacketId pid = next_packet_id_++;
  ni.tracked_pid = pid;
  ni.tracked_flits_in_net = 0;
  build_staged_flits(ni, ni.tracked_msg, pid, ni.tracked_seq);
  const int shift = std::min(ni.tracked_attempts, guard_.backoff_shift_cap);
  ni.tracked_deadline = now_ + (guard_.timeout_cycles << shift);
}

void Fabric::resolve_tracked(NetworkInterface& ni) {
  ni.tracked_active = false;
  ni.tracked_pid = 0;
  ni.tracked_ack_at = kNoAck;
  ni.tracked_flits_in_net = 0;
}

void Fabric::admit_next_message(int node, NetworkInterface& ni) {
  Message msg = ni.send_queue.pop();
  if (!destination_reachable(node, msg.dst)) {
    // Refused at the source — reported, never spun on. One admission
    // attempt per cycle keeps the cold path bounded.
    stats_.note_packet_unreachable();
    recycle(std::move(msg));
    return;
  }
  // Keep a copy for retransmission; the displaced buffer feeds the pool.
  recycle(std::move(ni.tracked_msg));
  ni.tracked_msg = std::move(msg);
  ni.tracked_seq = ++ni.next_msg_seq;
  ni.tracked_attempts = 0;
  ni.tracked_ack_at = kNoAck;
  ni.tracked_active = true;
  restage_tracked(ni);
}

void Fabric::guard_tick(int node, NetworkInterface& ni) {
  // renoc-hot-begin (every cycle per live NI on a degraded fabric; the
  // retransmission/admission helpers it calls run per timeout, not per
  // cycle, and any route rebuild in here would trip the route-rebuild
  // lint rule)
  if (ni.tracked_active) {
    // "Attempt gone" = the current attempt has no flit staged or buffered
    // anywhere. Resolution additionally waits for it so stop-and-wait
    // stays airtight: the next message can never interleave with a
    // lingering retransmission at the destination's reassembly slot.
    const bool attempt_gone = ni.tracked_flits_in_net == 0 &&
                              ni.staged_pos >= ni.staged_flits.size();
    if (ni.tracked_ack_at != kNoAck && now_ >= ni.tracked_ack_at &&
        attempt_gone) {
      // Delivery notice landed (the destination counted the delivery).
      resolve_tracked(ni);
    } else if (now_ >= ni.tracked_deadline) {
      // The source acts only on what it can know: a delivery notice that
      // has LANDED. A notice still in flight does not suppress the
      // retransmission below — that is the honest race that produces
      // duplicates (swallowed at reassembly by msg_seq). The in-flight
      // notice is peeked at ONLY for accounting, so a delivered message
      // that exhausts its budget resolves silently instead of
      // double-counting as dropped.
      if (!attempt_gone) {
        // Still physically in the fabric: congestion, not loss. Extend the
        // deadline deterministically instead of duplicating a live packet.
        ni.tracked_deadline = now_ + guard_.timeout_cycles;
      } else if (!destination_reachable(node, ni.tracked_msg.dst)) {
        if (ni.tracked_ack_at == kNoAck) stats_.note_packet_unreachable();
        resolve_tracked(ni);
      } else if (ni.tracked_attempts < guard_.retry_budget) {
        ++ni.tracked_attempts;
        stats_.note_packet_retried();
        restage_tracked(ni);
      } else {
        if (ni.tracked_ack_at == kNoAck) stats_.note_packet_dropped();
        resolve_tracked(ni);
      }
    }
  }
  if (ni.enabled && !ni.tracked_active &&
      ni.staged_pos >= ni.staged_flits.size() && !ni.send_queue.empty())
    admit_next_message(node, ni);
  // renoc-hot-end
}

}  // namespace renoc
