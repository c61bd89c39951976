// AR32 instruction-set simulator.
//
// Executes an AssembledProgram and produces, besides the architectural
// results (output channel, cycle counts), the two artifacts the energy
// optimizations consume:
//   * the data-access trace (for profiling / partitioning / clustering /
//     cache simulation), and
//   * the instruction fetch stream (32-bit words in execution order, for
//     the instruction-bus transformation experiments).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "isa/assembler.hpp"
#include "trace/trace.hpp"

namespace memopt {

/// Size of the simulated data memory; the stack starts at its top.
inline constexpr std::uint64_t kCpuMemBytes = 256 * 1024;

/// Simulator configuration.
struct CpuConfig {
    std::uint64_t max_instructions = 100'000'000;  ///< runaway guard
    bool record_data_trace = true;             ///< collect the D-side MemTrace
    bool record_fetch_stream = false;          ///< collect executed instruction words
};

/// Result of a simulation run.
struct RunResult {
    std::vector<std::uint32_t> output;       ///< values emitted by `out`
    std::uint64_t instructions = 0;          ///< retired instruction count
    std::uint64_t cycles = 0;                ///< simple timing model (see Cpu)
    MemTrace data_trace;                     ///< D-side accesses (if recorded)
    std::vector<std::uint32_t> fetch_stream; ///< executed instruction words (if recorded)
};

/// The simulator. A fresh Cpu is constructed per run.
///
/// Timing model (documented, deliberately simple): 1 cycle per instruction,
/// +1 for loads/stores, +2 for multiplies, +2 for taken branches/calls/
/// indirect jumps. The optimizations consume traces and access counts, not
/// absolute cycle counts, so a coarse model suffices.
class Cpu {
public:
    explicit Cpu(const CpuConfig& config = CpuConfig{});

    /// Load and run `program` to completion (halt), instruction budget
    /// exhaustion (throws memopt::Error), or a memory fault (propagates
    /// memopt::Error). The stack pointer starts at the top of data memory.
    RunResult run(const AssembledProgram& program);

private:
    CpuConfig config_;
};

/// Convenience: assemble `source` and run it.
RunResult run_source(std::string_view source, const CpuConfig& config = CpuConfig{});

}  // namespace memopt
