// E10 — extension ablation: leakage-aware partitioning with sleepy banks.
//
// The 1B-1 line of work flags leakage-aware banking as the natural next
// step: once banks can sleep, the *temporal* structure of the trace starts
// to matter. This bench replays kernel traces through the synthesized
// architectures under the hybrid flow's gating controller, every bank built
// in drowsy SRAM (partition/hybrid.hpp), and compares the clustering
// policies under the time-aware objective, where affinity clustering (which
// groups co-accessed blocks) should reduce wake-ups versus pure frequency
// ordering.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "core/flow.hpp"
#include "partition/hybrid.hpp"
#include "support/parallel.hpp"
#include "support/stats.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"
#include "trace/source.hpp"

using namespace memopt;

namespace {

struct SleepyResult {
    double energy_pj = 0.0;
    std::uint64_t wakeups = 0;
};

// Energy and wake-ups of `flow_result` with every bank built in drowsy SRAM;
// the replay window ends at the last access + 1.
SleepyResult run_sleepy(const FlowResult& flow_result, TraceSource& source,
                        const PartitionEnergyParams& params, const HybridGatingParams& gating) {
    PartitionEnergyParams with_remap = params;
    if (!flow_result.map.is_identity())
        with_remap.extra_pj_per_access =
            RemapTableModel(flow_result.map.num_blocks()).lookup_energy();
    const MemoryArchitecture& arch = flow_result.solution.arch;
    const std::vector<BankActivity> activity =
        replay_bank_activity(arch, flow_result.map, source, gating, /*min_total_cycles=*/0);
    const std::vector<MemTechnology> drowsy(arch.num_banks(), MemTechnology::DrowsySram);
    const HybridReport report =
        evaluate_partition_hybrid(arch, drowsy, activity, with_remap, gating);
    return SleepyResult{report.total(), report.total_wakeups()};
}

}  // namespace

int main() {
    bench::print_header(
        "E10  leakage-aware extension: sleepy banks under clustering policies",
        "extension (paper future work): with sleepy banks, partitioned+clustered "
        "memories keep their advantage over the unclustered baseline, and the "
        "clustering-policy choice itself is second-order",
        "AR32 kernel suite; <=4 banks; 200-cycle idle threshold, sleep leakage 8%, "
        "40 pJ wake-up; leakage included in partitioning objective");

    FlowParams fp;
    fp.block_size = 256;
    fp.constraints.max_banks = 4;
    fp.energy.runtime_cycles = 1;  // placeholder; replay uses real cycles
    const HybridGatingParams gating;

    TablePrinter table({"benchmark", "none [nJ]", "freq [nJ]", "affinity [nJ]",
                        "freq wakeups", "aff wakeups", "aff vs freq [%]"});
    bench::BenchReport report("e10_sleep_ablation");
    Accumulator gain;
    std::uint64_t total_freq_wakeups = 0;
    std::uint64_t total_aff_wakeups = 0;
    bool clustered_beats_none = true;

    // Each kernel's three synthesis+replay evaluations are independent;
    // run them concurrently (MEMOPT_JOBS) and reduce the ordered rows
    // serially so every aggregate stays bit-identical at any job count.
    struct Row {
        std::string name;
        SleepyResult none, freq, aff;
    };
    const auto rows = parallel_map(bench::run_suite(), [&](const bench::KernelRunPtr& run) {
        // Let the partitioner see leakage over the real run length.
        FlowParams kernel_fp = fp;
        kernel_fp.energy.runtime_cycles = run->result.cycles;
        const MemoryOptimizationFlow flow(kernel_fp);
        MaterializedSource source(run->result.data_trace);

        const FlowResult none = flow.run(source, ClusterMethod::None);
        const FlowResult freq = flow.run(source, ClusterMethod::Frequency);
        const FlowResult aff = flow.run(source, ClusterMethod::Affinity);

        return Row{run->name, run_sleepy(none, source, kernel_fp.energy, gating),
                   run_sleepy(freq, source, kernel_fp.energy, gating),
                   run_sleepy(aff, source, kernel_fp.energy, gating)};
    });

    for (const Row& row : rows) {
        total_freq_wakeups += row.freq.wakeups;
        total_aff_wakeups += row.aff.wakeups;
        clustered_beats_none =
            clustered_beats_none && row.freq.energy_pj < row.none.energy_pj;
        const double aff_vs_freq = percent_savings(row.freq.energy_pj, row.aff.energy_pj);
        gain.add(aff_vs_freq);
        table.add_row({row.name, format_fixed(row.none.energy_pj / 1e3, 1),
                       format_fixed(row.freq.energy_pj / 1e3, 1),
                       format_fixed(row.aff.energy_pj / 1e3, 1),
                       format("%llu", (unsigned long long)row.freq.wakeups),
                       format("%llu", (unsigned long long)row.aff.wakeups),
                       format_fixed(aff_vs_freq, 2)});
        report.add_row({{"benchmark", row.name},
                        {"none_nj", row.none.energy_pj / 1e3},
                        {"freq_nj", row.freq.energy_pj / 1e3},
                        {"aff_nj", row.aff.energy_pj / 1e3},
                        {"freq_wakeups", row.freq.wakeups},
                        {"aff_wakeups", row.aff.wakeups},
                        {"aff_vs_freq_pct", aff_vs_freq}});
    }
    table.print(std::cout);

    std::printf("\ntotal wake-ups: frequency %llu, affinity %llu; avg affinity-vs-frequency "
                "gain %.2f%%\n",
                (unsigned long long)total_freq_wakeups, (unsigned long long)total_aff_wakeups,
                gain.mean());
    const double wakeup_delta =
        std::abs(double(total_aff_wakeups) - double(total_freq_wakeups)) /
        double(total_freq_wakeups);
    report.summary({{"total_freq_wakeups", total_freq_wakeups},
                    {"total_aff_wakeups", total_aff_wakeups},
                    {"avg_aff_vs_freq_pct", gain.mean()}});
    report.finish(clustered_beats_none && wakeup_delta < 0.10 &&
                      std::abs(gain.mean()) < 1.0,
                  "clustering keeps beating the unclustered baseline under the sleepy "
                  "objective; frequency vs affinity differ by well under 1% — the "
                  "time-aware objective is access-dominated at this technology point");
    return 0;
}
