#include "partition/evaluate.hpp"

#include <vector>

#include "partition/hybrid.hpp"
#include "support/assert.hpp"

namespace memopt {

EnergyBreakdown evaluate_partition(const MemoryArchitecture& arch, const BlockProfile& profile,
                                   const PartitionEnergyParams& params) {
    require(arch.num_blocks() == profile.num_blocks(),
            "evaluate_partition: architecture does not cover the profile");
    require(arch.block_size() == profile.block_size(),
            "evaluate_partition: block size mismatch");

    // The ungated all-SRAM case of the hybrid evaluation: every bank is
    // powered for the whole run and never gates.
    std::vector<BankActivity> activity(arch.num_banks());
    for (std::size_t k = 0; k < arch.num_banks(); ++k) {
        const Bank& bank = arch.banks()[k];
        for (std::size_t b = bank.first_block; b < bank.end_block(); ++b) {
            activity[k].reads += profile.counts(b).reads;
            activity[k].writes += profile.counts(b).writes;
        }
        activity[k].active_cycles = params.runtime_cycles;
    }
    const std::vector<MemTechnology> sram(arch.num_banks(), MemTechnology::Sram);
    return evaluate_partition_hybrid(arch, sram, activity, params,
                                     HybridGatingParams{.idle_cycles = 0})
        .energy;
}

EnergyBreakdown evaluate_monolithic(const BlockProfile& profile,
                                    const PartitionEnergyParams& params) {
    const auto arch = MemoryArchitecture::monolithic(profile.block_size(), profile.num_blocks());
    return evaluate_partition(arch, profile, params);
}

}  // namespace memopt
