// Partitioning of the Tanner graph onto PE clusters.
//
// Each PE of the test chip hosts one cluster of variable nodes and one
// cluster of check nodes (the "amount of computation mapped to a single PE"
// that the paper says differs between configurations A..E). Partitions are
// weighted: a cluster's share of nodes is proportional to its weight, which
// is how the chip configurations create deliberately non-uniform power
// (hot rows, center-heavy patterns) before thermally-aware placement.
#pragma once

#include <cstdint>
#include <vector>

#include "ldpc/code.hpp"

namespace renoc {

struct Partition {
  int cluster_count = 0;
  std::vector<int> vn_owner;  ///< size n: cluster owning each variable
  std::vector<int> cn_owner;  ///< size m: cluster owning each check

  void validate(const LdpcCode& code) const;
  bool operator==(const Partition&) const = default;
};

/// Contiguous striping with per-cluster weights (largest-remainder
/// apportionment; weights must be positive and of size cluster_count).
/// Equal weights give the uniform striped partition.
Partition make_weighted_partition(const LdpcCode& code,
                                  const std::vector<double>& vn_weights,
                                  const std::vector<double>& cn_weights);

/// Uniform striping across `clusters`.
Partition make_striped_partition(const LdpcCode& code, int clusters);

/// Round-robin interleaving across `clusters` (maximally scattered; high
/// traffic, flat compute).
Partition make_interleaved_partition(const LdpcCode& code, int clusters);

/// Compute work per cluster per full iteration: one op per incident edge in
/// each of the VN and CN phases.
std::vector<std::uint64_t> cluster_edge_ops(const LdpcCode& code,
                                            const Partition& p);

/// traffic[s][d] = number of message values sent from cluster s to cluster
/// d in one full iteration (VN->CN plus CN->VN directions).
std::vector<std::vector<std::uint64_t>> cluster_traffic(const LdpcCode& code,
                                                        const Partition& p);

/// Apportions `total` items over positive weights, summing exactly to
/// `total` (largest remainder). Exposed for tests.
std::vector<int> apportion(int total, const std::vector<double>& weights);

}  // namespace renoc
