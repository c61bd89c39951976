// E9 — DATE'03 1B-4, table: application energy of multi-context
// reconfigurable applications under the data scheduler, versus a naive
// static placement, including dynamic-reconfiguration (context) energy.
// The paper claims improved application energy and reduced reconfiguration
// energy from suitable data scheduling.
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "core/app_builder.hpp"
#include "sched/scheduler.hpp"
#include "support/stats.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"

using namespace memopt;

int main() {
    bench::print_header(
        "E9  data scheduling for multi-context reconfigurable architectures",
        "data scheduler reduces application energy incl. dynamic reconfiguration",
        "8 generated multimedia applications (6 buffers, 8 phases, 4 contexts); "
        "2 KiB L1 / 8 KiB L2 scratchpads; 2 context slots");

    TablePrinter table({"application", "naive [uJ]", "greedy [uJ]", "optimal [uJ]",
                        "greedy savings [%]", "optimal savings [%]", "context savings [%]"});
    bench::BenchReport report("e9_scheduler_table");
    Accumulator greedy_acc;
    Accumulator optimal_acc;

    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const Application app = generate_application(seed);
        const auto e_naive = evaluate_schedule(app, naive_schedule(app));
        const auto e_greedy = evaluate_schedule(app, greedy_schedule(app));
        const auto e_opt = evaluate_schedule(app, optimal_schedule(app));
        const double gs = percent_savings(e_naive.total(), e_greedy.total());
        const double os = percent_savings(e_naive.total(), e_opt.total());
        const double cs = percent_savings(e_naive.component("context_load"),
                                          e_opt.component("context_load"));
        greedy_acc.add(gs);
        optimal_acc.add(os);
        table.add_row({format("app%llu", (unsigned long long)seed),
                       format_fixed(e_naive.total() / 1e6, 2),
                       format_fixed(e_greedy.total() / 1e6, 2),
                       format_fixed(e_opt.total() / 1e6, 2), format_fixed(gs, 1),
                       format_fixed(os, 1), format_fixed(cs, 1)});
        report.add_row({{"application", format("app%llu", (unsigned long long)seed)},
                        {"naive_uj", e_naive.total() / 1e6},
                        {"greedy_uj", e_greedy.total() / 1e6},
                        {"optimal_uj", e_opt.total() / 1e6},
                        {"greedy_savings_pct", gs},
                        {"optimal_savings_pct", os},
                        {"context_savings_pct", cs}});
    }
    table.print(std::cout);

    // Second table: a pipeline built from real AR32 kernels (data sets are
    // the measured assembler-symbol traffic of each kernel).
    std::puts("\n-- kernel-derived pipelines ------------------------------------");
    TablePrinter kernel_table({"pipeline", "naive [uJ]", "greedy [uJ]",
                               "greedy savings [%]"});
    const std::vector<std::vector<std::string>> pipelines = {
        {"fir", "biquad", "fft16"},
        {"conv3x3", "dither", "rle"},
        {"crc32", "histogram", "strsearch", "qsort"},
    };
    bool kernel_pipelines_win = true;
    for (const auto& names : pipelines) {
        const Application app = application_from_kernels(names);
        const double naive_pj = evaluate_schedule(app, naive_schedule(app)).total();
        const double greedy_pj = evaluate_schedule(app, greedy_schedule(app)).total();
        kernel_pipelines_win = kernel_pipelines_win && greedy_pj < naive_pj;
        std::string label;
        for (const std::string& n : names) label += (label.empty() ? "" : "+") + n;
        kernel_table.add_row({label, format_fixed(naive_pj / 1e6, 2),
                              format_fixed(greedy_pj / 1e6, 2),
                              format_fixed(percent_savings(naive_pj, greedy_pj), 1)});
        report.add_row({{"application", label},
                        {"naive_uj", naive_pj / 1e6},
                        {"greedy_uj", greedy_pj / 1e6},
                        {"greedy_savings_pct", percent_savings(naive_pj, greedy_pj)}});
    }
    kernel_table.print(std::cout);

    std::printf("\naverage savings (generated apps): greedy %.1f%%, optimal %.1f%%\n",
                greedy_acc.mean(), optimal_acc.mean());
    report.summary({{"avg_greedy_savings_pct", greedy_acc.mean()},
                    {"avg_optimal_savings_pct", optimal_acc.mean()}});
    report.finish(greedy_acc.min() > 0.0 && optimal_acc.mean() >= greedy_acc.mean() &&
                      kernel_pipelines_win,
                  "scheduling reduces energy on every generated application and on "
                  "every kernel-derived pipeline; the exact DP certifies the greedy "
                  "heuristic");
    return 0;
}
