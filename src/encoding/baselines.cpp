#include "encoding/baselines.hpp"

#include "energy/bus_model.hpp"

namespace memopt {

std::uint64_t bus_invert_transitions(std::span<const std::uint32_t> words) {
    std::uint64_t total = 0;
    std::uint32_t bus = 0;
    bool invert_line = false;
    for (std::uint32_t w : words) {
        const unsigned direct = hamming32(bus, w);
        if (direct > 16) {
            const std::uint32_t inverted = ~w;
            total += hamming32(bus, inverted);
            if (!invert_line) ++total;  // invert line toggles 0 -> 1
            invert_line = true;
            bus = inverted;
        } else {
            total += direct;
            if (invert_line) ++total;  // invert line toggles 1 -> 0
            invert_line = false;
            bus = w;
        }
    }
    return total;
}

std::uint64_t gray_code_transitions(std::span<const std::uint32_t> words) {
    std::uint64_t total = 0;
    std::uint32_t prev = 0;  // the Gray code of the idle state 0
    for (std::uint32_t w : words) {
        const std::uint32_t g = w ^ (w >> 1);
        total += hamming32(prev, g);
        prev = g;
    }
    return total;
}

}  // namespace memopt
