#include "partition/evaluate.hpp"

#include "support/assert.hpp"

namespace memopt {

EnergyBreakdown evaluate_partition(const MemoryArchitecture& arch, const BlockProfile& profile,
                                   const PartitionEnergyParams& params) {
    require(arch.num_blocks() == profile.num_blocks(),
            "evaluate_partition: architecture does not cover the profile");
    require(arch.block_size() == profile.block_size(),
            "evaluate_partition: block size mismatch");

    EnergyBreakdown breakdown;
    double access_pj = 0.0;
    double leak_pj = 0.0;
    for (const Bank& bank : arch.banks()) {
        const SramEnergyModel model(bank.size_bytes, 32, params.sram, params.protection);
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
        for (std::size_t b = bank.first_block; b < bank.end_block(); ++b) {
            reads += profile.counts(b).reads;
            writes += profile.counts(b).writes;
        }
        access_pj += static_cast<double>(reads) * model.read_energy() +
                     static_cast<double>(writes) * model.write_energy();
        if (params.runtime_cycles > 0)
            leak_pj += model.leakage_energy(params.runtime_cycles, params.cycle_ns);
    }
    breakdown.add("bank_access", access_pj);

    const double select_pj = bank_select_energy(arch.num_banks(), params.sram);
    breakdown.add("bank_select",
                  select_pj * static_cast<double>(profile.total_accesses()));
    if (params.runtime_cycles > 0) breakdown.add("leakage", leak_pj);
    if (params.extra_pj_per_access > 0.0)
        breakdown.add("remap",
                      params.extra_pj_per_access * static_cast<double>(profile.total_accesses()));
    if (params.protection != ProtectionScheme::None)
        breakdown.add("ecc", protection_access_energy(params.protection, 32, params.sram) *
                                 static_cast<double>(profile.total_accesses()));
    return breakdown;
}

EnergyBreakdown evaluate_monolithic(const BlockProfile& profile,
                                    const PartitionEnergyParams& params) {
    const auto arch = MemoryArchitecture::monolithic(profile.block_size(), profile.num_blocks(),
                                                     params.min_bank_bytes);
    return evaluate_partition(arch, profile, params);
}

}  // namespace memopt
