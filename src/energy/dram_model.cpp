#include "energy/dram_model.hpp"

namespace memopt {

double DramEnergyModel::burst_energy(std::uint64_t bytes) const {
    if (bytes == 0) return 0.0;
    return tech_.activate_pj + tech_.per_byte_pj * static_cast<double>(bytes);
}

}  // namespace memopt
