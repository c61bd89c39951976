// E6 — 1B-2 figure: sensitivity of compression savings to the D-cache line
// size and to the off-chip energy cost. The paper's scheme compresses
// per-line, so longer lines give the codec more context (better ratios)
// while the off-chip per-byte energy scales how much a saved byte is worth.
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "cache/platform.hpp"
#include "compress/diff_codec.hpp"
#include "support/parallel.hpp"
#include "support/stats.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"
#include "trace/source.hpp"

using namespace memopt;

namespace {

/// Suite-average memory-path savings for one configuration. The per-kernel
/// simulations are independent; they run concurrently (MEMOPT_JOBS) and the
/// accumulator consumes the order-preserving results serially, so the mean
/// is bit-identical at any job count.
double avg_path_savings(const CompressedMemConfig& config,
                        const std::vector<bench::KernelRunPtr>& runs) {
    const DiffCodec codec;
    const std::vector<double> savings = parallel_map(runs, [&](const bench::KernelRunPtr& run) {
        MaterializedSource source(run->result.data_trace);
        const auto base = CompressedMemorySim(config, nullptr)
                              .run(source, run->program.data, run->program.data_base);
        const auto comp = CompressedMemorySim(config, &codec)
                              .run(source, run->program.data, run->program.data_base);
        const double b = base.energy.component("main_memory");
        const double c = comp.energy.component("main_memory") + comp.energy.component("codec");
        return percent_savings(b, c);
    });
    Accumulator acc;
    for (double s : savings) acc.add(s);
    return acc.mean();
}

}  // namespace

int main() {
    bench::print_header(
        "E6  compression savings vs line size and off-chip energy",
        "per-line compression gains grow with line size and off-chip cost (figure shape)",
        "AR32 kernel suite; VLIW platform baseline config, one axis swept at a time");

    const auto runs = bench::run_suite();
    const PlatformModel base_platform = vliw_platform();

    std::puts("\n-- (a) line-size sweep -----------------------------------------");
    TablePrinter line_table({"line size", "avg mem-path savings [%]"});
    std::vector<double> by_line;
    bench::BenchReport report("e6_compression_sweep");
    for (unsigned line : {16u, 32u, 64u}) {
        CompressedMemConfig cfg = base_platform.config;
        cfg.cache.line_bytes = line;
        by_line.push_back(avg_path_savings(cfg, runs));
        line_table.add_row({format("%u B", line), format_fixed(by_line.back(), 1)});
        report.add_row({{"axis", "line_bytes"},
                        {"value", static_cast<double>(line)},
                        {"avg_savings_pct", by_line.back()}});
    }
    line_table.print(std::cout);

    std::puts("\n-- (b) off-chip per-byte energy sweep --------------------------");
    TablePrinter dram_table({"per-byte multiplier", "avg mem-path savings [%]"});
    std::vector<double> by_cost;
    for (double mult : {0.25, 0.5, 1.0, 2.0, 4.0}) {
        CompressedMemConfig cfg = base_platform.config;
        cfg.dram.per_byte_pj *= mult;
        by_cost.push_back(avg_path_savings(cfg, runs));
        dram_table.add_row({format_fixed(mult, 2), format_fixed(by_cost.back(), 1)});
        report.add_row({{"axis", "per_byte_mult"},
                        {"value", mult},
                        {"avg_savings_pct", by_cost.back()}});
    }
    dram_table.print(std::cout);

    bool cost_monotone = true;
    for (std::size_t i = 1; i < by_cost.size(); ++i)
        cost_monotone = cost_monotone && by_cost[i] >= by_cost[i - 1] - 1e-9;
    std::printf("\n");
    report.finish(by_line.back() > by_line.front() && cost_monotone,
                  "savings grow with line size and monotonically with the off-chip "
                  "per-byte energy");
    return 0;
}
