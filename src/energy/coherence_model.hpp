// Coherence-traffic energy model.
//
// The multi-core cache system (cache/mcache.hpp) counts protocol events —
// directory lookups, invalidation/downgrade messages, dirty-line flushes —
// and this model prices them: control messages toggle the on-chip
// coherence interconnect (a BusEnergyModel-class cost per message), dirty
// transfers move a full line of payload between an L1 and its home L2
// bank, and every directory consultation reads and updates a small
// directory SRAM. The constants in coherence_model.cpp are sized against
// the 0.18um-era constants of the SRAM/bus models so coherence shows up in
// an EnergyBreakdown at the expected order of magnitude: noticeable under
// contention, negligible without sharing.
#pragma once

#include <cstdint>

namespace memopt {

/// Converts coherence event counts into energy.
class CoherenceEnergyModel {
public:
    /// Energy of `messages` control messages [pJ].
    double message_energy(std::uint64_t messages) const;

    /// Energy of moving `bytes` of line payload over the fabric [pJ].
    double transfer_energy(std::uint64_t bytes) const;

    /// Energy of `lookups` directory consultations [pJ].
    double lookup_energy(std::uint64_t lookups) const;
};

}  // namespace memopt
