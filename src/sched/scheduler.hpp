// Data schedulers for multi-context reconfigurable architectures (1B-4).
//
// Three solvers produce a DataSchedule for an Application on the 1B-4
// architecture (sched/model.hpp); evaluate_schedule() is the shared
// objective. The scheduler's job is to
// decide, phase by phase, which on-chip level each data set occupies —
// trading access energy (hot data wants L1) against movement energy
// (relocating a big array costs a full copy) under the level capacities —
// and whether context planes are staged through L2 (cheaper reconfiguration
// at the price of L2 capacity).
#pragma once

#include "energy/report.hpp"
#include "sched/model.hpp"

namespace memopt {

/// Energy breakdown of running `app` under `schedule`:
/// components "data_access", "data_movement", "context_load".
/// Throws memopt::Error if the schedule violates a capacity constraint or
/// has the wrong shape.
EnergyBreakdown evaluate_schedule(const Application& app, const DataSchedule& schedule);

/// Naive baseline: data sets are packed onto L2 first-fit in declaration
/// order (a data set that does not fit stays external, and packing goes on
/// with the next one); no movement, no context prefetch. This is the "no
/// data scheduler" configuration of the paper.
DataSchedule naive_schedule(const Application& app);

/// Greedy scheduler: per phase, ranks used data sets by access density
/// (accesses per byte), fills L1 then L2, keeps unused data where it was
/// (avoiding spurious moves), and enables context prefetch when L2 retains
/// enough slack in every phase. Moves only when the access-energy gain of
/// the new placement exceeds the movement cost.
DataSchedule greedy_schedule(const Application& app);

/// Exact DP (Viterbi over per-phase level assignments). Exponential in the
/// data-set count; requires datasets <= 6. Used by tests and small benches
/// to certify the greedy solver.
DataSchedule optimal_schedule(const Application& app);

}  // namespace memopt
