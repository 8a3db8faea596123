#include "core/reconfigurable_system.hpp"

#include "util/check.hpp"

namespace renoc {

ReconfigurableLdpcSystem::ReconfigurableLdpcSystem(const ChipConfig& cfg,
                                                   MigrationScheme scheme)
    : cfg_(cfg) {
  built_ = std::make_unique<BuiltChip>(build_chip(cfg_));
  fabric_ = std::make_unique<Fabric>(cfg_.noc);
  placement_ = identity_permutation(cfg_.dim.node_count());
  placement_.resize(
      static_cast<std::size_t>(built_->partition.cluster_count));
  decoder_ = std::make_unique<NocLdpcDecoder>(
      *fabric_, built_->code, built_->partition, placement_,
      cfg_.ldpc_params);
  controller_ =
      std::make_unique<MigrationController>(*fabric_, transform_of(scheme));
  golden_ = std::make_unique<MinSumDecoder>(built_->code,
                                            cfg_.ldpc_params.iterations);
  state_words_.resize(static_cast<std::size_t>(decoder_->cluster_count()));
  for (int c = 0; c < decoder_->cluster_count(); ++c)
    state_words_[static_cast<std::size_t>(c)] =
        decoder_->migration_state_words(c);
}

ReconfigurableLdpcSystem::~ReconfigurableLdpcSystem() = default;

StreamResult ReconfigurableLdpcSystem::run_stream(int blocks,
                                                  int blocks_per_migration) {
  RENOC_CHECK(blocks >= 1);
  RENOC_CHECK(blocks_per_migration >= 0);

  const DecodeResult golden = golden_->decode(built_->channel_llrs);

  StreamResult result;
  const Cycle start = fabric_->now();
  const std::uint64_t replayed_before = decoder_->replayed_blocks();
  bool all_match = true;
  for (int b = 0; b < blocks; ++b) {
    const NocDecodeResult res =
        decoder_->decode_block(built_->channel_llrs);
    block_cycles_ = res.cycles;
    if (res.hard_bits != golden.hard_bits) all_match = false;
    ++result.blocks;
    const bool migrate_now = blocks_per_migration > 0 &&
                             ((b + 1) % blocks_per_migration == 0) &&
                             (b + 1) < blocks;
    if (migrate_now) {
      const MigrationReport rep =
          controller_->migrate(placement_, state_words_);
      decoder_->set_placement(placement_);
      result.migration_cycles += rep.total_cycles;
      ++result.migrations;
    }
  }
  result.total_cycles = fabric_->now() - start;
  result.throughput_penalty =
      result.total_cycles
          ? static_cast<double>(result.migration_cycles) /
                static_cast<double>(result.total_cycles)
          : 0.0;
  result.all_blocks_match_golden = all_match;
  result.replayed_blocks =
      static_cast<int>(decoder_->replayed_blocks() - replayed_before);
  result.final_placement = placement_;
  return result;
}

}  // namespace renoc
