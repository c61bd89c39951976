// Power-of-two helpers for the geometry checks of every layer: cache and
// bank capacities, block and line sizes, trace spans, dictionary sizes.
#pragma once

#include <bit>
#include <cstdint>

#include "support/assert.hpp"

namespace memopt {

/// Round `v` up to the next power of two (v=0 -> 1). Requires v <= 2^63:
/// larger values have no power-of-two ceiling in 64 bits.
inline std::uint64_t ceil_pow2(std::uint64_t v) { return v <= 1 ? 1 : std::bit_ceil(v); }

/// True if `v` is a power of two (v > 0).
inline bool is_pow2(std::uint64_t v) { return v != 0 && std::has_single_bit(v); }

/// Integer log2 of a power of two.
inline unsigned log2_exact(std::uint64_t v) {
    MEMOPT_ASSERT(is_pow2(v));
    return static_cast<unsigned>(std::countr_zero(v));
}

}  // namespace memopt
