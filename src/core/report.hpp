// Comparative energy reporting helpers shared by benches and examples.
#pragma once

#include <string>
#include <vector>

#include "energy/report.hpp"
#include "support/table.hpp"

namespace memopt {

/// One labelled configuration in a comparison table.
struct NamedEnergy {
    std::string name;
    EnergyBreakdown energy;
};

/// Build a table with one row per configuration: total energy and savings
/// versus the first entry (the baseline).
TablePrinter energy_comparison_table(const std::vector<NamedEnergy>& rows);

}  // namespace memopt
