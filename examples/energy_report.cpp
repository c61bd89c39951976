// energy_report — full per-kernel memory-energy report.
//
// Runs one bundled AR32 kernel (default: crc32, or argv[1]) on the
// instruction-set simulator and prints everything the toolkit can say about
// it: run statistics, profile shape, the three memory architectures with
// their energies, and the selected clustering map.
#include <cstdio>
#include <iostream>
#include <string>

#include "core/flow.hpp"
#include "core/report.hpp"
#include "sim/kernels.hpp"
#include "support/string_util.hpp"
#include "trace/source.hpp"

int main(int argc, char** argv) {
    using namespace memopt;
    const std::string name = argc > 1 ? argv[1] : "crc32";

    const Kernel& kernel = kernel_by_name(name);
    std::cout << "kernel " << kernel.name << ": " << kernel.description << "\n";

    CpuConfig config;
    config.record_fetch_stream = true;
    const RunResult run = run_kernel(kernel, config);
    std::printf("executed %llu instructions in %llu cycles; %zu data accesses "
                "(%llu reads / %llu writes)\n",
                static_cast<unsigned long long>(run.instructions),
                static_cast<unsigned long long>(run.cycles), run.data_trace.size(),
                static_cast<unsigned long long>(run.data_trace.summary().reads),
                static_cast<unsigned long long>(run.data_trace.summary().writes));
    std::printf("outputs:");
    for (std::uint32_t v : run.output) std::printf(" 0x%08x", v);
    std::printf("\n\n");

    MaterializedSource source(run.data_trace);
    const BlockProfile profile = BlockProfile::from_source(source, 256);
    std::printf("profile: %zu blocks of 256 B; hottest 8 blocks hold %.1f%% of accesses; "
                "spatial locality %.2f\n\n",
                profile.num_blocks(), 100.0 * profile.hot_fraction(8),
                profile.spatial_locality());

    FlowParams params;
    params.block_size = 256;
    params.constraints.max_banks = 4;
    const MemoryOptimizationFlow flow(params);
    const FlowComparison cmp = flow.compare(source, ClusterMethod::Affinity);

    energy_comparison_table({
                                {"monolithic", cmp.monolithic},
                                {"partitioned", cmp.partitioned.energy},
                                {"affinity-clustered", cmp.clustered.energy},
                            })
        .print(std::cout);

    std::cout << "\npartitioned banks:\n";
    for (const Bank& b : cmp.partitioned.solution.arch.banks())
        std::cout << "  [" << b.first_block << ", " << b.end_block() << ") -> "
                  << format_bytes(b.size_bytes) << "\n";
    std::cout << "clustered banks:\n";
    for (const Bank& b : cmp.clustered.solution.arch.banks())
        std::cout << "  [" << b.first_block << ", " << b.end_block() << ") -> "
                  << format_bytes(b.size_bytes) << "\n";

    std::printf("\nclustering moved the %zu hottest logical blocks to the front of the "
                "physical space;\nsavings vs partitioning alone: %.1f%%\n",
                std::min<std::size_t>(8, profile.num_blocks()), cmp.clustering_savings_pct());
    return 0;
}
