// E11 — extension ablation: the differential codec against alternative
// line-compression schemes (zero-run, base-delta-immediate, and the
// trained frequent-value dictionary the papers argue against).
//
// Metric: compression ratio on the actual write-back line population of
// each kernel (collected from the compressed-memory simulation geometry),
// plus the resulting memory-path energy on the VLIW platform.
#include <array>
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "cache/platform.hpp"
#include "support/parallel.hpp"
#include "compress/bdi_codec.hpp"
#include "compress/dictionary_codec.hpp"
#include "compress/diff_codec.hpp"
#include "compress/zero_run.hpp"
#include "support/stats.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"
#include "trace/source.hpp"

using namespace memopt;

int main() {
    bench::print_header(
        "E11  codec comparison: differential vs zero-run vs BDI vs dictionary",
        "extension: the per-word-tagged differential scheme dominates uniform-width "
        "and dictionary schemes on embedded data",
        "AR32 kernel suite; VLIW platform; dictionary trained per kernel on its own "
        "write values (16 entries)");

    const PlatformModel platform = vliw_platform();
    const DiffCodec diff;
    const ZeroRunCodec zero_run;
    const BdiCodec bdi;

    TablePrinter table({"benchmark", "diff ratio", "zero-run ratio", "bdi ratio",
                        "dict ratio", "best"});
    bench::BenchReport report("e11_codec_comparison");
    Accumulator diff_acc;
    Accumulator zr_acc;
    Accumulator bdi_acc;
    Accumulator dict_acc;

    // Candidate evaluation — dictionary training plus four compressed-
    // memory simulations per kernel — is independent across kernels; fan it
    // out over the parallel runtime (MEMOPT_JOBS) and fold the ordered rows
    // into the table and accumulators serially.
    struct Row {
        std::string name;
        std::array<double, 4> ratios;  // diff, zero-run, bdi, dict
    };
    const auto rows = parallel_map(bench::run_suite(), [&](const bench::KernelRunPtr& run) {
        const DictionaryCodec dict =
            DictionaryCodec::train(run->result.data_trace.write_values(), 16);
        const std::array<const LineCodec*, 4> codecs = {&diff, &zero_run, &bdi, &dict};
        MaterializedSource source(run->result.data_trace);
        Row row;
        row.name = run->name;
        for (std::size_t c = 0; c < codecs.size(); ++c) {
            const auto report = CompressedMemorySim(platform.config, codecs[c])
                                    .run(source, run->program.data, run->program.data_base);
            row.ratios[c] = report.traffic_ratio();
        }
        return row;
    });

    static constexpr std::array<const char*, 4> kLabels = {"diff", "zero-run", "bdi", "dict"};
    for (const Row& row : rows) {
        diff_acc.add(row.ratios[0]);
        zr_acc.add(row.ratios[1]);
        bdi_acc.add(row.ratios[2]);
        dict_acc.add(row.ratios[3]);
        std::size_t best = 0;
        for (std::size_t c = 1; c < row.ratios.size(); ++c)
            if (row.ratios[c] < row.ratios[best]) best = c;
        table.add_row({row.name, format_fixed(row.ratios[0], 3),
                       format_fixed(row.ratios[1], 3), format_fixed(row.ratios[2], 3),
                       format_fixed(row.ratios[3], 3), kLabels[best]});
        report.add_row({{"benchmark", row.name},
                        {"diff_ratio", row.ratios[0]},
                        {"zero_run_ratio", row.ratios[1]},
                        {"bdi_ratio", row.ratios[2]},
                        {"dict_ratio", row.ratios[3]},
                        {"best", kLabels[best]}});
    }
    table.add_separator();
    table.add_row({"average", format_fixed(diff_acc.mean(), 3), format_fixed(zr_acc.mean(), 3),
                   format_fixed(bdi_acc.mean(), 3), format_fixed(dict_acc.mean(), 3), ""});
    table.print(std::cout);

    std::printf("\n(lower traffic ratio is better; 1.000 = incompressible)\n");
    report.summary({{"avg_diff_ratio", diff_acc.mean()},
                    {"avg_zero_run_ratio", zr_acc.mean()},
                    {"avg_bdi_ratio", bdi_acc.mean()},
                    {"avg_dict_ratio", dict_acc.mean()}});
    report.finish(diff_acc.mean() <= zr_acc.mean() && diff_acc.mean() <= bdi_acc.mean() &&
                      diff_acc.mean() <= dict_acc.mean(),
                  "the differential codec achieves the best average traffic ratio "
                  "across the suite");
    return 0;
}
