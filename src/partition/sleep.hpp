// Trace-driven evaluation with sleepy banks (leakage-aware extension).
//
// The profile-based objective of partition/evaluate.hpp is time-blind: it
// cannot see that a bank which is idle for long stretches could be put into
// a low-leakage sleep state. This module replays the actual trace through a
// (possibly remapped) architecture with a simple sleep controller:
//
//   * a bank not accessed for `idle_cycles` consecutive cycles enters
//     sleep, cutting its leakage to `sleep_leak_factor` of nominal;
//   * the first access after sleep pays `wakeup_pj` and a wake latency is
//     ignored (energy study, not timing).
//
// This is the objective under which *temporal* clustering matters: packing
// co-accessed blocks into the same bank lengthens the idle stretches of the
// other banks. It reproduces the leakage-aware direction that the DATE'03
// partitioning line of work identified as future work.
#pragma once

#include <cstdint>

#include "cluster/address_map.hpp"
#include "energy/report.hpp"
#include "partition/bank.hpp"
#include "partition/evaluate.hpp"
#include "trace/trace.hpp"

namespace memopt {

class TraceSource;

/// Sleep-controller parameters.
struct SleepParams {
    std::uint64_t idle_cycles = 200;    ///< idle time before a bank sleeps
    double sleep_leak_factor = 0.08;    ///< leakage while asleep (fraction)
    double wakeup_pj = 40.0;            ///< energy of one bank wake-up
    double cycle_ns = 10.0;             ///< cycle time
};

/// Per-bank activity statistics from a sleepy replay.
struct SleepBankStats {
    std::uint64_t accesses = 0;
    std::uint64_t wakeups = 0;
    std::uint64_t asleep_cycles = 0;
};

/// Result of a sleepy trace replay.
struct SleepReport {
    EnergyBreakdown energy;  ///< "bank_access", "bank_select", "remap",
                             ///< "leakage", "wakeup"
    std::vector<SleepBankStats> banks;

    /// Total wake-ups across banks.
    std::uint64_t total_wakeups() const;
};

/// Replay `source` chunk by chunk in O(chunk) memory through `arch` under
/// `map` (identity allowed) with the sleep controller.
/// `energy_params.extra_pj_per_access` is charged per access exactly as in
/// the static evaluation; leakage uses the trace's cycle stamps (the last
/// access's cycle is the run length). The replay is inherently sequential
/// (the sleep controller is a state machine over cycle time), so chunking
/// changes nothing.
SleepReport evaluate_partition_sleepy(const MemoryArchitecture& arch, const AddressMap& map,
                                      TraceSource& source,
                                      const PartitionEnergyParams& energy_params,
                                      const SleepParams& sleep);

}  // namespace memopt
