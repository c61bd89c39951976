// E2 — DATE'03 1B-1, figure: energy versus bank budget.
//
// Sweeps the maximum bank count and reports suite-average energy for plain
// partitioning and clustering+partitioning. The paper's qualitative shape:
// clustering helps most when few banks are available (the partitioner
// cannot isolate scattered hot blocks) and the gap narrows as the bank
// budget grows.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "core/flow.hpp"
#include "support/stats.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"

using namespace memopt;

int main() {
    bench::print_header(
        "E2  energy vs bank budget, with and without clustering",
        "clustering gain is largest at small bank counts and shrinks as banks grow",
        "AR32 kernel suite; 256 B blocks; bank budget swept 1..16");

    const auto runs = bench::run_suite();
    std::vector<const MemTrace*> traces;
    traces.reserve(runs.size());
    for (const auto& run : runs) traces.push_back(&run->result.data_trace);
    TablePrinter table({"max banks", "partitioned avg [nJ]", "clustered avg [nJ]",
                        "clustering savings [%]"});
    std::vector<double> gains;
    bench::BenchReport report("e2_bank_sweep");

    for (std::size_t banks : {1, 2, 3, 4, 6, 8, 12, 16}) {
        FlowParams fp;
        fp.block_size = 256;
        fp.constraints.max_banks = banks;
        const MemoryOptimizationFlow flow(fp);
        Accumulator part;
        Accumulator clus;
        for (const FlowComparison& cmp : flow.compare_all(traces, ClusterMethod::Frequency)) {
            part.add(cmp.partitioned.energy.total());
            clus.add(cmp.clustered.energy.total());
        }
        const double savings = percent_savings(part.mean(), clus.mean());
        gains.push_back(savings);
        table.add_row({format("%zu", banks), format_fixed(part.mean() / 1e3, 1),
                       format_fixed(clus.mean() / 1e3, 1), format_fixed(savings, 1)});
        report.add_row({{"max_banks", static_cast<std::uint64_t>(banks)},
                        {"partitioned_nj", part.mean() / 1e3},
                        {"clustered_nj", clus.mean() / 1e3},
                        {"savings_pct", savings}});
    }
    table.print(std::cout);

    // Shape: the savings series should be (weakly) larger at small budgets
    // than at the largest budget, and ~0 at one bank (nothing to isolate).
    const bool shape = gains[1] > gains.back() && gains[2] > gains.back() &&
                       std::abs(gains.front()) < 5.0;
    std::printf("\n");
    report.finish(shape, "clustering gain decays with bank budget "
                         "(few banks -> clustering critical; many banks -> partitioner "
                         "can isolate hotspots by itself)");
    return 0;
}
