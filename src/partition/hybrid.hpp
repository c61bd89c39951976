// Hybrid (mixed-technology) bank evaluation with dark-silicon gating.
//
// The trace-driven counterpart of partition/evaluate.hpp, and the toolkit's
// one gated-bank model: given an architecture and a BankPool of available
// technologies, replay the trace once to extract each bank's
// *technology-independent* activity (access counts and the power-gating
// residency the idle-threshold controller would produce), then choose the
// energy-optimal technology per bank with an exact assignment DP over the
// pool's slot counts. Sleepy banks are DrowsySram banks under the default
// controller: the leakage-aware study (bench/e10_sleep_ablation) evaluates
// them with evaluate_partition_hybrid, and the drowsy fault scaling
// (fault/campaign.hpp) reads their gated residency from the replay.
//
// The split matters: the gating state machine only looks at access *times*,
// which are fixed by the architecture and the address map, never by what the
// bank is built in. One replay therefore serves every candidate
// technology, and the per-bank cost of a technology is closed-form in the
// BankActivity — the assignment search costs microseconds, not replays.
//
// Determinism contract: the replay folds each chunk of a batch on its own
// task into per-bank integer segments and joins them in trace order, so its
// counts equal an access-by-access replay's; the DP iterates
// banks/states/slots in fixed order with strict-< improvement (first slot
// wins ties) — results are bit-identical at any --jobs.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/address_map.hpp"
#include "energy/report.hpp"
#include "energy/tech_model.hpp"
#include "partition/bank.hpp"
#include "partition/evaluate.hpp"

namespace memopt {

class TraceSource;

/// Dark-silicon gating controller parameters: a bank idle for more than
/// `idle_cycles` cycles is gated from `idle_cycles` after its last access
/// until its next one.
struct HybridGatingParams {
    /// Idle time before a bank is gated; 0 = banks never gate (static study).
    std::uint64_t idle_cycles = 200;
    /// Ablation knob: scales every technology's gate_leak_factor (1 = the
    /// technology's nominal gate, 0 = perfect gates everywhere). Used by
    /// bench/e14_hybrid_sweep to show gating savings are monotone in gate
    /// quality; leave at 1.0 otherwise.
    double gate_leak_scale = 1.0;
};

/// Technology-independent activity of one bank under the gating controller.
struct BankActivity {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t wakeups = 0;        ///< gated -> powered transitions
    std::uint64_t active_cycles = 0;  ///< cycles powered (incl. idle-but-on)
    std::uint64_t gated_cycles = 0;   ///< cycles power-gated

    std::uint64_t accesses() const { return reads + writes; }
    std::uint64_t total_cycles() const { return active_cycles + gated_cycles; }
};

/// Replay `source` through `arch` under `map` and return each bank's
/// activity. The replay spans max(last trace cycle + 1, min_total_cycles)
/// cycles; the tail beyond the last access follows the gating controller
/// like any other idle stretch. Resets `source` before replaying (and
/// leaves it exhausted), so back-to-back evaluations of different pools on
/// one source are independent. Throws memopt::Error on an empty trace, a
/// map that does not match `arch`, a negative gate_leak_scale, an address
/// outside the mapped span, or an access whose cycle precedes the previous
/// access's (the message names the access index and both cycles); of
/// several faulty accesses, the first in trace order is reported.
std::vector<BankActivity> replay_bank_activity(const MemoryArchitecture& arch,
                                               const AddressMap& map, TraceSource& source,
                                               const HybridGatingParams& gating,
                                               std::uint64_t min_total_cycles = 0);

/// Energy-optimal technology per bank, drawing at most slot.count banks
/// from each pool slot. Exact DP over (bank, per-slot usage) states whose
/// per-bank cost is the HybridBankReport::total_pj() that
/// evaluate_partition_hybrid reports; deterministic (earlier pool slots win
/// cost ties). `params` holds only technology-blind per-access terms, which
/// cannot change the arg-min, so the DP does not read it. Throws
/// memopt::Error when the pool has fewer banks than the architecture.
std::vector<MemTechnology> assign_technologies(const MemoryArchitecture& arch,
                                               const std::vector<BankActivity>& activity,
                                               const BankPool& pool,
                                               const PartitionEnergyParams& params,
                                               const HybridGatingParams& gating);

/// Per-bank slice of a hybrid evaluation: the closed-form energy of one
/// bank built in `tech` with activity `activity`. Excludes the per-access
/// architecture terms (bank select, remap), which are technology-blind.
struct HybridBankReport {
    MemTechnology tech = MemTechnology::Sram;
    Bank bank;
    BankActivity activity;
    double access_pj = 0.0;
    double leakage_pj = 0.0;   ///< powered (non-gated) leakage
    double refresh_pj = 0.0;
    double gated_pj = 0.0;     ///< residual leakage while gated, x gate_leak_scale
    double wakeup_pj = 0.0;

    /// access + powered leakage + refresh + gated leakage + wake-up.
    double total_pj() const {
        return access_pj + leakage_pj + refresh_pj + gated_pj + wakeup_pj;
    }
};

/// Result of a hybrid evaluation: the full breakdown plus per-bank detail.
/// Components: "bank_access", "bank_select", "leakage", "refresh",
/// "gated_leakage", "wakeup", and the usual "remap" when configured.
struct HybridReport {
    EnergyBreakdown energy;
    std::vector<HybridBankReport> banks;
    std::uint64_t total_cycles = 0;

    double total() const { return energy.total(); }
    std::uint64_t total_wakeups() const;
    std::uint64_t total_gated_cycles() const;
};

/// Evaluate `arch` with the given per-bank technologies and activity.
/// With every bank Sram, gating disabled and min_total_cycles >=
/// params.runtime_cycles > 0, "bank_access"/"bank_select"/"leakage" (and
/// "remap") are bit-identical to evaluate_partition() — the legacy
/// arithmetic is delegated to, not reproduced.
HybridReport evaluate_partition_hybrid(const MemoryArchitecture& arch,
                                       const std::vector<MemTechnology>& techs,
                                       const std::vector<BankActivity>& activity,
                                       const PartitionEnergyParams& params,
                                       const HybridGatingParams& gating);

}  // namespace memopt
