#include "compression_table.hpp"

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "compress/diff_codec.hpp"
#include "compress/zero_run.hpp"
#include "support/stats.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"
#include "trace/source.hpp"

namespace memopt::bench {

namespace {
/// The media-flavoured subset standing in for the paper's Ptolemy/
/// MediaBench programs. The remaining kernels (control/integer codes with
/// incompressible data) are reported too, as an honest lower envelope.
bool is_media_kernel(const std::string& name) {
    return name == "fir" || name == "biquad" || name == "histogram" || name == "rle" ||
           name == "conv3x3" || name == "listchase" || name == "strsearch" ||
           name == "fft16" || name == "dither";
}
}  // namespace

bool run_compression_table(const PlatformModel& platform, const std::string& experiment_id,
                           const std::string& report_name, const std::string& paper_range,
                           double paper_lo, double paper_hi) {
    print_header(experiment_id + "  energy-driven data compression (" + platform.name + ")",
                 paper_range,
                 platform.description +
                     "; diff codec on write-back, decompress on refill; savings are over "
                     "the main-memory/bus path (the paper's energy target)");

    const DiffCodec diff;
    const ZeroRunCodec zero_run;
    TablePrinter table({"benchmark", "D$ miss [%]", "traffic ratio", "mem-path base [nJ]",
                        "mem-path diff [nJ]", "diff savings [%]", "zero-run savings [%]",
                        "total savings [%]"});
    BenchReport report(report_name);
    std::vector<double> media_savings;

    for (const auto& run_ptr : run_suite()) {
        const KernelRun& run = *run_ptr;
        MaterializedSource source(run.result.data_trace);
        const auto base = CompressedMemorySim(platform.config, nullptr)
                              .run(source, run.program.data, run.program.data_base);
        const auto comp = CompressedMemorySim(platform.config, &diff)
                              .run(source, run.program.data, run.program.data_base);
        const auto zr = CompressedMemorySim(platform.config, &zero_run)
                            .run(source, run.program.data, run.program.data_base);

        const double base_path = base.energy.component("main_memory");
        const double comp_path =
            comp.energy.component("main_memory") + comp.energy.component("codec");
        const double zr_path = zr.energy.component("main_memory") + zr.energy.component("codec");
        const double path_savings = percent_savings(base_path, comp_path);
        const double total_savings = percent_savings(base.energy.total(), comp.energy.total());
        if (is_media_kernel(run.name)) media_savings.push_back(path_savings);

        table.add_row({run.name + (is_media_kernel(run.name) ? " *" : ""),
                       format_fixed(100.0 * base.cache_stats.miss_rate(), 1),
                       format_fixed(comp.traffic_ratio(), 2), format_fixed(base_path / 1e3, 1),
                       format_fixed(comp_path / 1e3, 1), format_fixed(path_savings, 1),
                       format_fixed(percent_savings(base_path, zr_path), 1),
                       format_fixed(total_savings, 1)});
        report.add_row({{"benchmark", run.name},
                        {"media_kernel", is_media_kernel(run.name)},
                        {"dcache_miss_pct", 100.0 * base.cache_stats.miss_rate()},
                        {"traffic_ratio", comp.traffic_ratio()},
                        {"mem_path_base_nj", base_path / 1e3},
                        {"mem_path_diff_nj", comp_path / 1e3},
                        {"diff_savings_pct", path_savings},
                        {"zero_run_savings_pct", percent_savings(base_path, zr_path)},
                        {"total_savings_pct", total_savings}});
    }
    table.print(std::cout);
    std::puts("(*) media-flavoured kernels, the workload class of the paper's table");

    const double lo = *std::min_element(media_savings.begin(), media_savings.end());
    const double hi = *std::max_element(media_savings.begin(), media_savings.end());
    std::printf("\nmeasured media-kernel band: %.1f%% .. %.1f%%   (paper: %.0f%%-%.0f%%)\n", lo,
                hi, paper_lo, paper_hi);
    const bool overlap = hi >= paper_lo && lo <= paper_hi && hi > 0.0;
    report.summary({{"media_band_lo_pct", lo},
                    {"media_band_hi_pct", hi},
                    {"paper_lo_pct", paper_lo},
                    {"paper_hi_pct", paper_hi}});
    report.finish(overlap, "media-kernel savings band overlaps the paper's reported range; "
                           "incompressible kernels sit near zero as expected");
    return overlap;
}

}  // namespace memopt::bench
