// The complete runtime-reconfigurable LDPC system.
//
// Glues the pieces the way the real chip would run them: the NoC decodes
// blocks back to back; every `blocks_per_migration` blocks the controller
// halts the array at a block boundary, migrates all PE state in
// congestion-free phases, updates the I/O address translator, and decoding
// resumes at the new placement. Decoded outputs are checked against the
// golden decoder on every block — migration must never change function —
// and the throughput penalty is measured exactly as the paper defines it
// (time lost to migration over total time).
#pragma once

#include <memory>
#include <vector>

#include "core/chip_config.hpp"
#include "core/migration_controller.hpp"
#include "core/transform.hpp"
#include "ldpc/decoder.hpp"
#include "ldpc/noc_decoder.hpp"
#include "noc/fabric.hpp"

namespace renoc {

struct StreamResult {
  int blocks = 0;
  int migrations = 0;
  Cycle total_cycles = 0;
  Cycle migration_cycles = 0;
  double throughput_penalty = 0.0;  ///< migration_cycles / total_cycles
  bool all_blocks_match_golden = false;
  /// Blocks the decoder replayed from its block cache; the rest were
  /// simulated cycle by cycle (see ldpc/noc_decoder.hpp). The cache is
  /// shared with every decoder of equal inputs, so this depends on what
  /// the process decoded before with this configuration; it is a host-side
  /// diagnostic that no record, digest or golden reads.
  int replayed_blocks = 0;
  std::vector<int> final_placement;
};

class ReconfigurableLdpcSystem {
 public:
  /// Builds the full system for a chip configuration with the given
  /// migration scheme. The initial placement is the identity (placement
  /// quality does not matter for functional/throughput experiments; the
  /// thermal experiments use ExperimentDriver).
  ReconfigurableLdpcSystem(const ChipConfig& cfg, MigrationScheme scheme);
  ~ReconfigurableLdpcSystem();

  /// Decodes `blocks` blocks, migrating after every
  /// `blocks_per_migration` blocks (0 = never migrate).
  StreamResult run_stream(int blocks, int blocks_per_migration);

  /// The current cluster placement (changes as migrations run).
  const std::vector<int>& placement() const { return placement_; }

  /// The I/O migration unit (for transparency checks: external callers
  /// address logical PEs regardless of migration history).
  const AddressTranslator& translator() const {
    return controller_->translator();
  }

  Fabric& fabric() { return *fabric_; }
  Cycle block_cycles() const { return block_cycles_; }

 private:
  ChipConfig cfg_;
  std::unique_ptr<BuiltChip> built_;
  std::unique_ptr<Fabric> fabric_;
  std::unique_ptr<NocLdpcDecoder> decoder_;
  std::unique_ptr<MigrationController> controller_;
  std::unique_ptr<MinSumDecoder> golden_;
  std::vector<int> placement_;
  std::vector<int> state_words_;
  Cycle block_cycles_ = 0;
};

}  // namespace renoc
