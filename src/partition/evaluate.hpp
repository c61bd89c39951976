// Energy evaluation of a multi-bank architecture against a block profile.
//
// This is the objective function shared by all partitioning solvers and the
// clustering search: for each bank, every access pays the SRAM access energy
// of *that bank's capacity*; every access additionally pays the bank-select
// overhead of the architecture; leakage (optional) accrues over the run.
#pragma once

#include <cstdint>

#include "energy/report.hpp"
#include "energy/sram_model.hpp"
#include "partition/bank.hpp"
#include "trace/profile.hpp"

namespace memopt {

/// Parameters of the evaluation.
struct PartitionEnergyParams {
    SramTechnology sram;                 ///< technology constants
    std::uint64_t min_bank_bytes = 256;  ///< smallest manufacturable cut
    double cycle_ns = 10.0;              ///< cycle time (100 MHz class core)
    std::uint64_t runtime_cycles = 0;    ///< run length for leakage; 0 = ignore leakage
    double extra_pj_per_access = 0.0;    ///< e.g. address-remap table lookup energy
    /// Bank-array protection: check bits widen every bank (array + leakage
    /// terms) and each access pays the encode/check logic as an "ecc"
    /// component. None keeps results bit-identical to the unprotected model.
    ProtectionScheme protection = ProtectionScheme::None;
};

/// Energy breakdown of running `profile` against `arch`.
/// Components: "bank_access", "bank_select", "leakage", "remap", "ecc".
/// The architecture must cover exactly the profile's blocks.
EnergyBreakdown evaluate_partition(const MemoryArchitecture& arch, const BlockProfile& profile,
                                   const PartitionEnergyParams& params);

/// Convenience: total energy [pJ] of the monolithic baseline.
EnergyBreakdown evaluate_monolithic(const BlockProfile& profile,
                                    const PartitionEnergyParams& params);

}  // namespace memopt
