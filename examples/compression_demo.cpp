// compression_demo — write-back data compression on a kernel of your choice.
//
// Runs a kernel (default: listchase, or argv[1]) through the compressed
// memory system on both platform models, with the differential and the
// zero-run codec, and prints the traffic and energy effects. Also shows the
// codec working on a single cache line so the bitstream layout is tangible.
#include <cstdio>
#include <iostream>
#include <string>

#include "cache/platform.hpp"
#include "compress/diff_codec.hpp"
#include "compress/zero_run.hpp"
#include "sim/kernels.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"
#include "trace/source.hpp"

int main(int argc, char** argv) {
    using namespace memopt;
    const std::string name = argc > 1 ? argv[1] : "listchase";

    // --- codec close-up -----------------------------------------------------
    const DiffCodec diff;
    std::vector<std::uint32_t> pointers;
    for (std::uint32_t i = 0; i < 8; ++i) pointers.push_back(0x20010000 + 16 * i);
    const auto line = words_to_line(pointers);
    const auto coded = diff.encode(line);
    std::printf("a 32-byte line of pointers compresses to %zu bits (%.0f%% of raw);\n",
                coded.bit_count(), 100.0 * coded.bit_count() / (line.size() * 8));
    std::printf("decoding restores it losslessly: %s\n\n",
                diff.decode(coded.bytes(), line.size()) == line ? "yes" : "NO (bug!)");

    // --- full system simulation ----------------------------------------------
    const Kernel& kernel = kernel_by_name(name);
    const auto program = assemble(kernel.source);
    const RunResult run = Cpu(CpuConfig{}).run(program);
    std::printf("kernel %s: %zu data accesses\n\n", name.c_str(), run.data_trace.size());

    const ZeroRunCodec zero_run;
    MaterializedSource source(run.data_trace);
    for (const PlatformModel& platform : {vliw_platform(), risc_platform()}) {
        std::printf("platform %s: %s\n", platform.name.c_str(), platform.description.c_str());
        TablePrinter table({"configuration", "traffic [B]", "traffic ratio", "cache [nJ]",
                            "main memory [nJ]", "codec [nJ]", "total [nJ]"});
        struct Config {
            const char* label;
            const LineCodec* codec;
        };
        for (const Config& cfg : {Config{"uncompressed", nullptr}, Config{"diff codec", &diff},
                                  Config{"zero-run codec", &zero_run}}) {
            const auto report = CompressedMemorySim(platform.config, cfg.codec)
                                    .run(source, program.data, program.data_base);
            table.add_row({cfg.label,
                           format("%llu", (unsigned long long)report.actual_traffic_bytes),
                           format_fixed(report.traffic_ratio(), 3),
                           format_fixed(report.energy.component("cache") / 1e3, 1),
                           format_fixed(report.energy.component("main_memory") / 1e3, 1),
                           format_fixed(report.energy.component("codec") / 1e3, 1),
                           format_fixed(report.energy.total() / 1e3, 1)});
        }
        table.print(std::cout);
        std::printf("\n");
    }
    return 0;
}
