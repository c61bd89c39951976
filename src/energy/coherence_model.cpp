#include "energy/coherence_model.hpp"

namespace memopt {

namespace {
// Coherence fabric calibration [pJ].
constexpr double kCtrlMsgPj = 2.4;    // one control message (invalidate/downgrade)
constexpr double kPerBytePj = 0.9;    // payload byte moved L1 <-> home L2 bank
constexpr double kDirLookupPj = 1.6;  // one directory SRAM lookup + update
}  // namespace

double CoherenceEnergyModel::message_energy(std::uint64_t messages) const {
    return kCtrlMsgPj * static_cast<double>(messages);
}

double CoherenceEnergyModel::transfer_energy(std::uint64_t bytes) const {
    return kPerBytePj * static_cast<double>(bytes);
}

double CoherenceEnergyModel::lookup_energy(std::uint64_t lookups) const {
    return kDirLookupPj * static_cast<double>(lookups);
}

}  // namespace memopt
