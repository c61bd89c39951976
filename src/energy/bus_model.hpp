// Bus switching-energy model.
//
// The instruction-memory transformation experiments (1B-3) measure bit
// transitions on the instruction-fetch bus; dynamic bus power is
// proportional to switching activity (E = C_line * Vdd^2 per transition).
// This model converts transition counts to energy and also provides
// word-stream transition counting utilities.
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

    /// Energy of driving `words.size()` words over the bus starting from
    /// `initial` line state [pJ]: counts Hamming transitions between
    /// consecutive words.
    double stream_energy(std::span<const std::uint32_t> words, std::uint32_t initial = 0) const;
};

/// Total Hamming transitions between consecutive words of a stream,
/// starting from the line state `initial`.
std::uint64_t count_transitions(std::span<const std::uint32_t> words, std::uint32_t initial = 0);

/// Hamming distance of two 32-bit words.
unsigned hamming32(std::uint32_t a, std::uint32_t b);

}  // namespace memopt
