#include "core/report.hpp"

#include "support/assert.hpp"
#include "support/stats.hpp"
#include "support/string_util.hpp"

namespace memopt {

TablePrinter energy_comparison_table(const std::vector<NamedEnergy>& rows) {
    require(!rows.empty(), "energy_comparison_table: no rows");
    TablePrinter table({"configuration", "energy", "vs baseline [%]"});
    const double baseline = rows.front().energy.total();
    for (const NamedEnergy& row : rows) {
        const double total = row.energy.total();
        table.add_row({row.name, format_energy_pj(total),
                       baseline == 0.0 ? "-" : format_fixed(-percent_savings(baseline, total), 2)});
    }
    return table;
}

}  // namespace memopt
