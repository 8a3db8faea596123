#include "noc/stats.hpp"

#include "util/check.hpp"

namespace renoc {

NetworkStats::NetworkStats(int node_count)
    : tiles_(static_cast<std::size_t>(node_count)) {
  RENOC_CHECK(node_count > 0);
}

TileActivity& NetworkStats::tile(int node) {
  RENOC_CHECK(node >= 0 && node < node_count());
  return tiles_[static_cast<std::size_t>(node)];
}

const TileActivity& NetworkStats::tile(int node) const {
  RENOC_CHECK(node >= 0 && node < node_count());
  return tiles_[static_cast<std::size_t>(node)];
}

void NetworkStats::note_packet_delivered(int flits, Cycle latency) {
  ++packets_delivered_;
  flits_delivered_ += static_cast<std::uint64_t>(flits);
  packet_latency_.add(static_cast<double>(latency));
  if (latency_sink_ != nullptr && latency <= 0xffffU)
    latency_sink_->push_back(static_cast<std::uint16_t>(latency));
}

void NetworkStats::replay_deliveries(
    std::uint64_t packets, std::uint64_t flits,
    const std::vector<std::uint16_t>& latencies) {
  RENOC_CHECK(latencies.size() == packets);
  packets_delivered_ += packets;
  flits_delivered_ += flits;
  for (const std::uint16_t sample : latencies)
    packet_latency_.add(static_cast<double>(sample));
}

TileActivity NetworkStats::total() const {
  TileActivity sum;
  for (const TileActivity& t : tiles_) sum += t;
  return sum;
}

void NetworkStats::clear() {
  for (TileActivity& t : tiles_) t.clear();
  packet_latency_ = RunningStats{};
  packets_delivered_ = 0;
  flits_delivered_ = 0;
  packets_retried_ = 0;
  packets_dropped_ = 0;
  packets_unreachable_ = 0;
  duplicates_suppressed_ = 0;
}

}  // namespace renoc
