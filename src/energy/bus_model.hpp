// Bus switching-energy model.
//
// The instruction-memory transformation experiments (1B-3) measure bit
// transitions on the instruction-fetch bus; dynamic bus power is
// proportional to switching activity (E = C_line * Vdd^2 per transition).
// This model converts transition counts to energy and also provides
// word-stream transition counting utilities. A bus idles at line state 0
// before its first word.
#pragma once

#include <cstdint>
#include <span>

namespace memopt {

/// Converts switching activity on a parallel bus into energy, at the
/// per-toggle line energy calibrated in bus_model.cpp.
class BusEnergyModel {
public:
    /// Energy of `transitions` line toggles [pJ].
    double transition_energy(std::uint64_t transitions) const;
};

/// Total Hamming transitions between consecutive words of a stream,
/// starting from the idle line state 0.
std::uint64_t count_transitions(std::span<const std::uint32_t> words);

/// Hamming distance of two 32-bit words.
unsigned hamming32(std::uint32_t a, std::uint32_t b);

}  // namespace memopt
