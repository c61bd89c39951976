// Off-chip main-memory (DRAM) energy model.
//
// Used by the compression experiments (1B-2): the savings there come from
// shrinking the number of bytes moved between the D-cache and main memory.
// The model charges a fixed activation cost per access plus a per-byte
// transfer cost covering the external bus, I/O pads and DRAM column path.
#pragma once

#include <cstdint>

namespace memopt {

/// DRAM/system-bus technology constants. Energies in picojoules.
/// Defaults model an SDR/early-DDR era embedded SDRAM subsystem, where one
/// off-chip access costs two to three orders of magnitude more than an
/// on-chip SRAM access — the regime in which write-back compression pays off.
struct DramTechnology {
    double activate_pj = 1800.0;   ///< row activation + control, per burst
    double per_byte_pj = 42.0;     ///< per byte moved over the external bus
};

/// Energy model of the off-chip memory path.
class DramEnergyModel {
public:
    explicit DramEnergyModel(const DramTechnology& tech = DramTechnology{}) : tech_(tech) {}

    /// Energy of one burst moving `bytes` bytes [pJ].
    double burst_energy(std::uint64_t bytes) const;

    const DramTechnology& technology() const { return tech_; }

private:
    DramTechnology tech_;
};

}  // namespace memopt
