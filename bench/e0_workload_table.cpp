// E0 — workload characterization (the "Table 1" every systems paper has).
//
// One row per bundled kernel: dynamic instruction count, data accesses,
// write ratio, touched footprint, profile skew (fraction of accesses in the
// 8 hottest 256 B blocks), spatial locality of the profile, and the
// write-back compressibility of its data under the diff codec. These are
// the workload properties every later experiment builds on.
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "compress/diff_codec.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"
#include "trace/profile.hpp"
#include "trace/source.hpp"

using namespace memopt;

namespace {

/// Average compression ratio of the kernel's final data image, taken over
/// 32-byte lines (a static proxy for write-back compressibility).
double image_compressibility(const std::vector<std::uint8_t>& data) {
    const DiffCodec codec;
    if (data.size() < 32) return 1.0;
    std::uint64_t raw_bits = 0;
    std::uint64_t coded_bits = 0;
    for (std::size_t off = 0; off + 32 <= data.size(); off += 32) {
        const std::span<const std::uint8_t> line(&data[off], 32);
        raw_bits += 256;
        coded_bits += codec.compressed_bits(line);
    }
    return static_cast<double>(coded_bits) / static_cast<double>(raw_bits);
}

}  // namespace

int main() {
    bench::print_header(
        "E0  workload characterization of the AR32 kernel suite",
        "(context table — no paper counterpart; the properties the experiments exploit)",
        "data profiles at 256 B blocks; image compressibility over 32 B lines");

    TablePrinter table({"kernel", "instructions", "data accs", "write [%]", "footprint",
                        "hot-8 [%]", "locality", "image ratio"});
    bench::BenchReport report("e0_workload_table");
    std::size_t rows = 0;
    bool sane = true;

    for (const auto& run_ptr : bench::run_suite()) {
        const bench::KernelRun& run = *run_ptr;
        const auto& trace = run.result.data_trace;
        MaterializedSource source(trace);
        const BlockProfile profile = BlockProfile::from_source(source, 256);
        std::uint64_t touched_blocks = 0;
        for (std::size_t b = 0; b < profile.num_blocks(); ++b)
            touched_blocks += profile.counts(b).total() > 0;
        const double write_pct = 100.0 * static_cast<double>(trace.summary().writes) /
                                 static_cast<double>(trace.size());
        table.add_row({run.name, format("%llu", (unsigned long long)run.result.instructions),
                       format("%zu", trace.size()), format_fixed(write_pct, 1),
                       format_bytes(touched_blocks * 256),
                       format_fixed(100.0 * profile.hot_fraction(8), 1),
                       format_fixed(profile.spatial_locality(), 2),
                       format_fixed(image_compressibility(run.program.data), 2)});
        report.add_row({{"kernel", run.name},
                        {"instructions", run.result.instructions},
                        {"data_accesses", static_cast<std::uint64_t>(trace.size())},
                        {"write_pct", write_pct},
                        {"footprint_bytes", touched_blocks * 256},
                        {"hot8_pct", 100.0 * profile.hot_fraction(8)},
                        {"locality", profile.spatial_locality()},
                        {"image_ratio", image_compressibility(run.program.data)}});
        ++rows;
        sane = sane && run.result.instructions > 1000 && !trace.empty() &&
               profile.hot_fraction(8) > 0.05;
    }
    table.print(std::cout);

    std::printf("\n(hot-8: accesses in the 8 hottest blocks; locality: 1 = hot blocks "
                "contiguous; image ratio: 1 = incompressible)\n");
    report.finish(rows == 12 && sane,
                  "all twelve kernels show skewed profiles — the property the "
                  "partitioning and clustering experiments exploit");
    return 0;
}
