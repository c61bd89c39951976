// arclang_demo — write a workload in arclang, compile it to AR32, and run
// the full optimization study on it.
//
// Shows the intended authoring path for users who do not want to write
// AR32 assembly: a moving-average filter over smooth sensor data, written
// in ~20 lines of arclang, becomes a first-class workload for every
// experiment in the toolkit.
#include <cstdio>
#include <iostream>

#include "core/study.hpp"
#include "lang/codegen.hpp"
#include "support/string_util.hpp"

int main() {
    using namespace memopt;

    const char* source = R"(
// moving-average filter over 512 smooth samples, window 8
array input[520] = smooth(2026, 1000000);
array output[512];
var i = 0;
while (i < 512) {
    var k = 0;
    var acc = 0;
    k = 0;
    acc = 0;
    while (k < 8) {
        acc = acc + (input[i + k] >> 16);
        k = k + 1;
    }
    output[i] = acc >> 3;
    i = i + 1;
}
// checksum
var n = 0;
var cks = 0;
while (n < 512) {
    cks = cks + output[n];
    n = n + 1;
}
out(cks);
)";

    std::puts("arclang source (moving-average filter):");
    std::puts(source);

    const std::string asm_text = lang::compile_to_asm(source);
    const AssembledProgram program = assemble(asm_text);
    std::printf("compiled to %zu AR32 instructions, %zu bytes of data\n\n",
                program.code.size(), program.data.size());

    CpuConfig config;
    config.record_fetch_stream = true;
    const RunResult run = Cpu(config).run(program);
    std::printf("executed %llu instructions; checksum 0x%08x; %zu data accesses\n\n",
                static_cast<unsigned long long>(run.instructions), run.output.at(0),
                run.data_trace.size());

    // Full study: partitioning/clustering, compression, bus encoding.
    const StudyReport report = study_trace("movavg", run.data_trace, program.data,
                                           program.data_base, run.fetch_stream);
    std::printf("optimization study for the compiled kernel:\n");
    std::printf("  clustering savings vs partitioning : %6.1f %%\n",
                report.clustering_savings_pct());
    std::printf("  compression savings (memory path)  : %6.1f %%\n",
                report.compression_savings_pct());
    std::printf("  bus-transition reduction           : %6.1f %%\n",
                report.encoding_reduction_pct());
    std::printf("\nfirst lines of the generated assembly:\n");
    std::size_t shown = 0;
    for (const auto line : split(asm_text, '\n')) {
        if (shown++ == 12) break;
        std::printf("  %.*s\n", static_cast<int>(line.size()), line.data());
    }
    return 0;
}
