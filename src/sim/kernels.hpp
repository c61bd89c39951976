// Bundled embedded benchmark kernels.
//
// Ten kernels written in AR32 assembly, standing in for the MediaBench /
// Ptolemy / DSPstone workloads of the DATE'03 1B evaluations: DSP filters,
// image processing, coding, sorting, searching and pointer chasing. Each
// kernel ends with one or more `out` values (a checksum) whose expected
// value is independently recomputed by the test suite, so a passing test
// run certifies ISA, assembler and simulator end to end.
//
// The .data layouts deliberately interleave hot arrays with cold buffers
// (I/O staging areas, padding) as real firmware images do; this produces the
// scattered-hot-block address profiles that address clustering (DATE'03
// 1B-1) exploits.
#pragma once

#include <string>
#include <vector>

#include "sim/cpu.hpp"

namespace memopt {

/// One benchmark kernel.
struct Kernel {
    std::string name;
    std::string description;
    std::string source;  ///< AR32 assembly
};

/// The full kernel suite, in canonical order.
const std::vector<Kernel>& kernel_suite();

/// Lookup by name; throws memopt::Error if unknown.
const Kernel& kernel_by_name(const std::string& name);

/// Assemble and run a kernel with the given simulator configuration.
RunResult run_kernel(const Kernel& kernel, const CpuConfig& config = CpuConfig{});

}  // namespace memopt
