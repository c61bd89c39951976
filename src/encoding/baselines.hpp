// Classic low-power bus-encoding baselines compared against the 1B-3
// application-specific transforms.
#pragma once

#include <cstdint>
#include <span>

namespace memopt {

/// Bus-invert coding (Stan & Burleson): if the Hamming distance between the
/// current bus state and the next word exceeds half the width, the inverted
/// word is sent and an extra invert line toggles. Returns the total line
/// transitions including the invert line (the honest cost of the extra
/// wire), from the idle bus state 0.
std::uint64_t bus_invert_transitions(std::span<const std::uint32_t> words);

/// Gray re-coding g = w ^ (w >> 1) applied to every word (invertible), from
/// the idle bus state 0. Effective for sequential numeric streams, largely
/// ineffective for instruction words — included as the representative
/// "fixed codebook" baseline.
std::uint64_t gray_code_transitions(std::span<const std::uint32_t> words);

}  // namespace memopt
