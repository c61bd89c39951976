// quickstart — the five-minute tour of the memopt public API.
//
// Generates a synthetic embedded access profile with scattered hotspots,
// then walks the 1B-1 pipeline by hand: profile -> partition -> cluster ->
// partition again, printing the energy at every step.
#include <iostream>

#include "core/flow.hpp"
#include "core/report.hpp"
#include "trace/source.hpp"
#include "trace/synthetic.hpp"

int main() {
    using namespace memopt;

    // 1. A workload. Real users feed a MemTrace from their own simulator
    //    (or use the bundled AR32 kernels, see energy_report.cpp); here a
    //    synthetic trace with 8 scattered hotspots stands in.
    const MemTrace trace = materialize_synthetic({
        .kind = SyntheticKind::Hotspot,
        .base = {.span_bytes = 128 * 1024, .num_accesses = 200000, .write_fraction = 0.3,
                 .seed = 42},
        .num_hotspots = 8,
        .hotspot_bytes = 1024,
        .hot_fraction = 0.9,
    });

    // 2. Profile it at 256-byte block granularity. Every replay consumer
    //    reads a chunked TraceSource; an in-memory trace is wrapped once.
    MaterializedSource source(trace);
    const BlockProfile profile = BlockProfile::from_source(source, 256);
    std::cout << "profile: " << profile.num_blocks() << " blocks, "
              << profile.total_accesses() << " accesses, spatial locality "
              << profile.spatial_locality() << "\n\n";

    // 3. Run the flow: monolithic vs partitioned vs clustered+partitioned.
    FlowParams params;
    params.block_size = 256;
    params.constraints.max_banks = 4;
    const MemoryOptimizationFlow flow(params);
    const FlowComparison cmp = flow.compare(source, ClusterMethod::Frequency);

    energy_comparison_table({
                                {"monolithic", cmp.monolithic},
                                {"partitioned", cmp.partitioned.energy},
                                {"clustered + partitioned", cmp.clustered.energy},
                            })
        .print(std::cout);

    // 4. Inspect the winning architecture.
    std::cout << "\nclustered architecture (" << cmp.clustered.solution.arch.num_banks()
              << " banks):\n";
    for (const Bank& bank : cmp.clustered.solution.arch.banks()) {
        std::cout << "  bank @block " << bank.first_block << ", " << bank.num_blocks
                  << " blocks, capacity " << bank.size_bytes << " B\n";
    }
    cmp.clustered.energy.print(std::cout, "\nclustered energy breakdown:");

    std::cout << "\npartitioning saved " << cmp.partitioning_savings_pct()
              << "% vs monolithic; clustering saved another " << cmp.clustering_savings_pct()
              << "% vs partitioning alone.\n";
    return 0;
}
