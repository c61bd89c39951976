// multi_app — shared-memory synthesis for several applications.
//
// An embedded SoC usually runs more than one task against the same on-chip
// memory. This example profiles three kernels, merges their profiles with
// duty-cycle weights, synthesizes ONE clustered multi-bank architecture for
// the merged profile, and then shows how that shared architecture performs
// for each individual application versus its privately optimized one.
#include <cstdio>
#include <iostream>

#include "cluster/frequency.hpp"
#include "cluster/remap_cost.hpp"
#include "core/flow.hpp"
#include "core/workload.hpp"
#include "partition/solver.hpp"
#include "sim/kernels.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"
#include "trace/source.hpp"

int main() {
    using namespace memopt;

    struct App {
        const char* kernel;
        double duty;  // fraction of runtime this task is active
    };
    const App apps[] = {{"biquad", 0.6}, {"crc32", 0.3}, {"histogram", 0.1}};

    // 1. Profile each application.
    std::vector<BlockProfile> profiles;
    std::vector<double> weights;
    for (const App& app : apps) {
        // Shared artifacts: a second profiling pass (or another example in
        // the same process) reuses the simulation instead of re-running it.
        const RunResult& run = WorkloadRepository::instance().run(app.kernel)->result;
        MaterializedSource source(run.data_trace);
        profiles.push_back(BlockProfile::from_source(source, 256));
        weights.push_back(app.duty);
        std::printf("%-10s duty %.0f%%  %llu accesses\n", app.kernel, 100 * app.duty,
                    (unsigned long long)profiles.back().total_accesses());
    }

    // 2. Merge into the shared workload profile and synthesize one
    //    clustered architecture for it.
    const BlockProfile shared = BlockProfile::merge(profiles, weights);
    const AddressMap map = frequency_clustering(shared);
    const BlockProfile physical = map.apply(shared);

    PartitionEnergyParams energy;
    energy.extra_pj_per_access = RemapTableModel(physical.num_blocks()).lookup_energy();
    const PartitionSolution shared_solution =
        solve_partition_optimal(physical, {4}, energy);

    std::printf("\nshared architecture (%zu banks):\n", shared_solution.arch.num_banks());
    for (const Bank& b : shared_solution.arch.banks())
        std::printf("  [%4zu, %4zu) -> %s\n", b.first_block, b.end_block(),
                    format_bytes(b.size_bytes).c_str());

    // 3. Evaluate each application on the shared architecture (same remap,
    //    same banks) versus its privately optimized architecture.
    TablePrinter table({"application", "private [nJ]", "shared [nJ]", "penalty [%]"});
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        // Private optimum for this app alone.
        FlowParams fp;
        fp.block_size = 256;
        fp.constraints.max_banks = 4;
        const MemoryOptimizationFlow flow(fp);
        const FlowResult private_best = flow.run(profiles[i], ClusterMethod::Frequency);

        // This app's traffic through the shared architecture. The shared
        // map may span more blocks than the app's profile covers; extend
        // the app profile to the shared span first.
        BlockProfile extended(256, shared.num_blocks());
        for (std::size_t b = 0; b < profiles[i].num_blocks(); ++b)
            extended.add_counts(b, profiles[i].counts(b).reads, profiles[i].counts(b).writes);
        const BlockProfile app_physical = map.apply(extended);
        const auto shared_energy =
            evaluate_partition(shared_solution.arch, app_physical, energy);

        const double priv = private_best.energy.total();
        const double shrd = shared_energy.total();
        table.add_row({apps[i].kernel, format_fixed(priv / 1e3, 1),
                       format_fixed(shrd / 1e3, 1),
                       format_fixed(100.0 * (shrd - priv) / priv, 1)});
    }
    std::printf("\n");
    table.print(std::cout);
    std::printf("\nOne shared architecture serves all three tasks; each pays a penalty\n"
                "versus its private optimum, smallest for the dominant task because the\n"
                "duty-cycle weights steer the merged profile toward it. All three still\n"
                "sit far below the monolithic baseline.\n");
    return 0;
}
