// Activity counters and performance statistics for the NoC.
//
// The DATE'05 flow runs "a modified cycle-accurate NoC simulator ... to
// obtain switching rates for the components in the chip during operation";
// these counters are that instrumentation. The power module converts them
// to energy with per-event costs (Orion-style).
#pragma once

#include <cstdint>
#include <vector>

#include "util/stats.hpp"
#include "util/units.hpp"

namespace renoc {

/// Switching-event counters for one tile (router + its four outgoing mesh
/// links + the local PE interface).
struct TileActivity {
  std::uint64_t buffer_writes = 0;     ///< flits written into input FIFOs
  std::uint64_t buffer_reads = 0;      ///< flits popped from input FIFOs
  std::uint64_t crossbar_traversals = 0;  ///< flits through the switch
  std::uint64_t arbitrations = 0;      ///< output-port allocation decisions
  std::uint64_t link_flits = 0;        ///< flits on outgoing mesh links
  std::uint64_t injected_flits = 0;    ///< flits entering from the local PE
  std::uint64_t ejected_flits = 0;     ///< flits delivered to the local PE
  std::uint64_t pe_compute_ops = 0;    ///< workload-defined compute events
  std::uint64_t pe_state_words = 0;    ///< migration state words converted

  void clear() { *this = TileActivity{}; }
  bool operator==(const TileActivity&) const = default;

  TileActivity& operator+=(const TileActivity& o) {
    buffer_writes += o.buffer_writes;
    buffer_reads += o.buffer_reads;
    crossbar_traversals += o.crossbar_traversals;
    arbitrations += o.arbitrations;
    link_flits += o.link_flits;
    injected_flits += o.injected_flits;
    ejected_flits += o.ejected_flits;
    pe_compute_ops += o.pe_compute_ops;
    pe_state_words += o.pe_state_words;
    return *this;
  }

  TileActivity& operator-=(const TileActivity& o) {
    buffer_writes -= o.buffer_writes;
    buffer_reads -= o.buffer_reads;
    crossbar_traversals -= o.crossbar_traversals;
    arbitrations -= o.arbitrations;
    link_flits -= o.link_flits;
    injected_flits -= o.injected_flits;
    ejected_flits -= o.ejected_flits;
    pe_compute_ops -= o.pe_compute_ops;
    pe_state_words -= o.pe_state_words;
    return *this;
  }
};

/// Network-wide statistics collected by the fabric.
class NetworkStats {
 public:
  explicit NetworkStats(int node_count);

  TileActivity& tile(int node);
  const TileActivity& tile(int node) const;
  int node_count() const { return static_cast<int>(tiles_.size()); }

  /// Packet latency in cycles, head injection to tail ejection.
  RunningStats& packet_latency() { return packet_latency_; }
  const RunningStats& packet_latency() const { return packet_latency_; }

  std::uint64_t packets_delivered() const { return packets_delivered_; }
  std::uint64_t flits_delivered() const { return flits_delivered_; }
  void note_packet_delivered(int flits, Cycle latency);

  /// While set, note_packet_delivered also appends each latency sample
  /// that fits 16 bits to `sink`, in delivery order, and skips a larger one
  /// (Fabric::begin_record uses this to capture a block's samples; a
  /// skipped sample leaves fewer samples than deliveries, so end_record
  /// refuses that block). Null — no recording — by default; clear() keeps
  /// it.
  void set_latency_sink(std::vector<std::uint16_t>* sink) {
    latency_sink_ = sink;
  }
  /// Re-applies recorded deliveries: the two counts, then every latency
  /// sample in its recorded order, so the Welford accumulator ends
  /// bit-identical to having seen the original deliveries.
  void replay_deliveries(std::uint64_t packets, std::uint64_t flits,
                         const std::vector<std::uint16_t>& latencies);

  // Delivery-guarantee accounting for degraded fabrics. Every message the
  // NI layer accepts resolves as exactly one of delivered / dropped /
  // unreachable (the conservation law noc_property_test checks); retries
  // and suppressed duplicates are event counts layered on top. All four
  // stay zero on a fault-free fabric.
  std::uint64_t packets_retried() const { return packets_retried_; }
  std::uint64_t packets_dropped() const { return packets_dropped_; }
  std::uint64_t packets_unreachable() const { return packets_unreachable_; }
  std::uint64_t duplicates_suppressed() const {
    return duplicates_suppressed_;
  }
  void note_packet_retried() { ++packets_retried_; }
  void note_packet_dropped() { ++packets_dropped_; }
  void note_packet_unreachable() { ++packets_unreachable_; }
  void note_duplicate_suppressed() { ++duplicates_suppressed_; }

  /// Sum of all tile counters.
  TileActivity total() const;

  void clear();

 private:
  std::vector<TileActivity> tiles_;
  RunningStats packet_latency_;
  std::uint64_t packets_delivered_ = 0;
  std::uint64_t flits_delivered_ = 0;
  std::uint64_t packets_retried_ = 0;
  std::uint64_t packets_dropped_ = 0;
  std::uint64_t packets_unreachable_ = 0;
  std::uint64_t duplicates_suppressed_ = 0;
  std::vector<std::uint16_t>* latency_sink_ = nullptr;
};

}  // namespace renoc
