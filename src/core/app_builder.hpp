// Build reconfigurable-scheduler applications from real kernel runs.
//
// The 1B-4 experiments need Applications (phase sequences with data-set
// access counts). Besides the synthetic generator in sched/model.hpp, this
// builder derives an Application from actual AR32 kernels: each kernel
// becomes one phase (requiring its own context), and its data sets are the
// assembler symbols of its image with their measured traffic — so the E9
// table can also be driven by the same workloads as every other experiment.
#pragma once

#include <string>
#include <vector>

#include "sched/model.hpp"

namespace memopt {

/// Build an Application whose phases are the named kernels, executed in
/// order. Each kernel is simulated once; its 4 hottest symbols (by
/// traffic) become data sets of at least 64 B. Kernel data sets are
/// distinct across kernels (no sharing — each kernel owns its image),
/// which models a pipeline of independent tasks on one reconfigurable
/// fabric. Throws memopt::Error on unknown kernel names.
Application application_from_kernels(const std::vector<std::string>& kernel_names);

}  // namespace memopt
