// Memory partitioning solvers.
//
// Given a block profile, find the multi-bank architecture (contiguous block
// ranges, power-of-two capacities, bounded bank count) minimizing the
// energy objective of partition/evaluate.hpp. Two solvers:
//   * solve_partition_optimal — exact dynamic program, O(N^2 * K);
//   * solve_partition_greedy  — iterative best-split refinement, O(K * N),
//     for very large block counts.
// The DP is the reference partitioner from the memory-partitioning prior
// art that DATE'03 1B-1's address clustering builds on; tests certify it
// against an exhaustive split enumeration (tests/test_partition.cpp).
#pragma once

#include <cstddef>

#include "energy/report.hpp"
#include "partition/bank.hpp"
#include "partition/evaluate.hpp"
#include "trace/profile.hpp"

namespace memopt {

/// Solver constraints.
struct PartitionConstraints {
    std::size_t max_banks = 8;  ///< upper bound on bank count (>= 1)
};

/// A solved partition plus its evaluated energy.
struct PartitionSolution {
    MemoryArchitecture arch;
    EnergyBreakdown energy;
};

/// Exact DP solver. Considers every bank count in [1, max_banks] and
/// returns the globally optimal contiguous partition; among equal-energy
/// predecessors of a DP cell it keeps the lowest start block. The cells of
/// each DP row split over tasks (four per default_jobs()), and the result is
/// bit-identical at any job count. Both solvers throw memopt::Error when
/// the profile holds 2^53 or more accesses.
PartitionSolution solve_partition_optimal(const BlockProfile& profile,
                                          const PartitionConstraints& constraints,
                                          const PartitionEnergyParams& params);

/// Greedy refinement solver: starts monolithic and repeatedly applies the
/// single most profitable bank split until no split helps or the bank
/// budget is reached. Fast and usually near-optimal.
PartitionSolution solve_partition_greedy(const BlockProfile& profile,
                                         const PartitionConstraints& constraints,
                                         const PartitionEnergyParams& params);

/// Pool-aware solving entry for hybrid bank pools: the bank budget is
/// additionally capped by the pool's total bank count (`pool_banks`), since
/// a split the pool cannot populate is infeasible. Splits are chosen under
/// the SRAM reference oracle — the gating residency that differentiates the
/// technologies is architecture-determined, so the SRAM-optimal splits are
/// the right geometry for assign_technologies() (partition/hybrid.hpp) to
/// place technologies onto.
PartitionSolution solve_partition_pooled(const BlockProfile& profile,
                                         const PartitionConstraints& constraints,
                                         const PartitionEnergyParams& params,
                                         std::size_t pool_banks, bool use_greedy);

}  // namespace memopt
