// Multi-context reconfigurable architecture model — the 1B-4 substrate.
//
// Models a MorphoSys-class reconfigurable array from the data-management
// perspective: a sequence of kernel phases, each requiring one context
// (array configuration) and accessing a set of data arrays; two on-chip
// scratchpad levels (small/cheap L1, larger L2) backed by external memory;
// and an on-chip context store with a limited number of slots. The Data
// Scheduler decides on which level each data set lives during each phase.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/rng.hpp"

namespace memopt {

/// Storage levels a data set can live on during a phase.
enum class MemLevel : std::uint8_t { L1 = 0, L2 = 1, Ext = 2 };

inline constexpr std::size_t kNumLevels = 3;

/// Display name ("L1", "L2", "ext").
std::string mem_level_name(MemLevel level);

/// One data array of the application.
struct DataSet {
    std::string name;
    std::uint64_t bytes = 0;
};

/// One (data set, access count) pair within a phase.
struct KernelUse {
    std::size_t dataset = 0;      ///< index into Application::datasets
    std::uint64_t accesses = 0;   ///< 32-bit accesses during the phase
};

/// One kernel execution step.
struct KernelPhase {
    std::string name;
    std::size_t context = 0;      ///< configuration required by this phase
    std::vector<KernelUse> uses;
};

/// A complete application (what the paper calls the task's data flow).
struct Application {
    std::string name;
    std::vector<DataSet> datasets;
    std::vector<KernelPhase> phases;
    std::size_t num_contexts = 1;

    /// Throws memopt::Error if indices are out of range or counts are zero.
    void validate() const;
};

/// The architecture of the 1B-4 evaluation: capacities of the two
/// scratchpad levels and of the on-chip context store. The energies that
/// price it are named constants in model.cpp (4, 14 and 130 pJ per 32-bit
/// access at L1, L2 and external memory) and scheduler.cpp (0.9 pJ per
/// context byte).
inline constexpr std::uint64_t kL1Bytes = 2 * 1024;
inline constexpr std::uint64_t kL2Bytes = 8 * 1024;
inline constexpr std::uint64_t kContextBytes = 2 * 1024;  ///< one context word plane
inline constexpr std::size_t kContextSlots = 2;           ///< LRU context store slots

/// Per-word access energy of a level [pJ].
double access_pj(MemLevel level);

/// Energy to move one data set of `bytes` bytes from `from` to `to` (read
/// at source + write at destination, word by word) [pJ]. Zero if the
/// levels are equal.
double move_pj(MemLevel from, MemLevel to, std::uint64_t bytes);

/// A schedule: assignment[phase][dataset] = level of that data set during
/// that phase. Every data set has an assignment in every phase (unused data
/// sets park on Ext by convention of the generators/solvers).
struct DataSchedule {
    std::vector<std::vector<MemLevel>> assignment;
    bool prefetch_contexts = false;  ///< stage context planes through L2
};

/// Deterministic generator of synthetic multimedia applications (pipelines
/// of filter/transform kernels with shared buffers), used by tests and the
/// E9 bench: 6 data sets of 512 B to 8 KiB, 8 phases over 4 contexts, 2 000
/// to 60 000 accesses per use.
Application generate_application(std::uint64_t seed);

}  // namespace memopt
