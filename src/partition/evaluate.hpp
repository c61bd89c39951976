// Energy evaluation of a multi-bank architecture against a block profile.
//
// This is the objective function shared by all partitioning solvers and the
// clustering search: for each bank, every access pays the SRAM access energy
// of *that bank's capacity*; every access additionally pays the bank-select
// overhead of the architecture; leakage (optional) accrues over the run.
#pragma once

#include <cstdint>

#include "energy/report.hpp"
#include "partition/bank.hpp"
#include "trace/profile.hpp"

namespace memopt {

/// Parameters of the evaluation. Banks are unprotected 32-bit SRAM cuts
/// (energy/sram_model.hpp) of at least kMinBankBytes, clocked at kCycleNs.
struct PartitionEnergyParams {
    std::uint64_t runtime_cycles = 0;    ///< run length for leakage; 0 = ignore leakage
    double extra_pj_per_access = 0.0;    ///< e.g. address-remap table lookup energy
};

/// Energy breakdown of running `profile` against `arch`.
/// Components: "bank_access", "bank_select", "leakage", "remap".
/// The architecture must cover exactly the profile's blocks.
EnergyBreakdown evaluate_partition(const MemoryArchitecture& arch, const BlockProfile& profile,
                                   const PartitionEnergyParams& params);

/// Convenience: total energy [pJ] of the monolithic baseline.
EnergyBreakdown evaluate_monolithic(const BlockProfile& profile,
                                    const PartitionEnergyParams& params);

}  // namespace memopt
