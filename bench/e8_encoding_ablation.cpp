// E8 — 1B-3 ablation: reduction versus the hardware budget (number of
// 2-input XOR gates in the fetch-path decoder). The paper's "frugal"
// argument is that a handful of single-gate transforms already captures
// most of the achievable savings; this bench quantifies that curve.
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "encoding/search.hpp"
#include "support/parallel.hpp"
#include "support/stats.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"

using namespace memopt;

int main() {
    bench::print_header(
        "E8  transition reduction vs gate budget",
        "a few XOR gates capture most of the achievable reduction (frugality claim)",
        "AR32 kernel fetch streams; greedy gate search, budget swept 1..64");

    const auto runs = bench::run_suite(/*fetch=*/true);
    const std::vector<std::size_t> budgets{1, 2, 4, 8, 16, 32, 64};

    TablePrinter table({"gates", "avg reduction [%]", "min [%]", "max [%]"});
    std::vector<double> avg_curve;
    bench::BenchReport report("e8_gate_budget");
    for (std::size_t gates : budgets) {
        // Independent per-kernel searches run concurrently (MEMOPT_JOBS);
        // the accumulator consumes the ordered results serially.
        const auto pcts = parallel_map(runs, [&](const bench::KernelRunPtr& run) {
            return 100.0 * search_transform(run->result.fetch_stream,
                                            {.max_gates = gates}).reduction();
        });
        Accumulator acc;
        for (double pct : pcts) acc.add(pct);
        avg_curve.push_back(acc.mean());
        table.add_row({format("%zu", gates), format_fixed(acc.mean(), 1),
                       format_fixed(acc.min(), 1), format_fixed(acc.max(), 1)});
        report.add_row({{"gates", static_cast<std::uint64_t>(gates)},
                        {"avg_reduction_pct", acc.mean()},
                        {"min_reduction_pct", acc.min()},
                        {"max_reduction_pct", acc.max()}});
    }
    table.print(std::cout);

    bool monotone = true;
    for (std::size_t i = 1; i < avg_curve.size(); ++i)
        monotone = monotone && avg_curve[i] >= avg_curve[i - 1] - 1e-9;

    // Frugality: the marginal reduction per added gate decreases with the
    // budget — the first gate is the most valuable one, which is the
    // paper's case for single-gate ("frugal") transforms.
    bool diminishing = true;
    double prev_marginal = 1e9;
    for (std::size_t i = 1; i < avg_curve.size(); ++i) {
        const double marginal = (avg_curve[i] - avg_curve[i - 1]) /
                                static_cast<double>(budgets[i] - budgets[i - 1]);
        diminishing = diminishing && marginal <= prev_marginal + 1e-9;
        prev_marginal = marginal;
    }
    const double first_gate = avg_curve.front();
    std::printf("\nthe first gate alone removes %.1f%% of all transitions\n", first_gate);
    report.summary({{"first_gate_reduction_pct", first_gate}});
    report.finish(monotone && diminishing && first_gate > 3.0,
                  "reduction is monotone in the budget and per-gate marginal utility "
                  "decreases — single-gate transforms are the best value per gate");
    return 0;
}
