#include "energy/bus_model.hpp"

#include <bit>

namespace memopt {

namespace {
constexpr double kPjPerTransition = 0.8;  // C_line * Vdd^2 for one line toggle
}  // namespace

unsigned hamming32(std::uint32_t a, std::uint32_t b) {
    return static_cast<unsigned>(std::popcount(a ^ b));
}

std::uint64_t count_transitions(std::span<const std::uint32_t> words) {
    std::uint64_t total = 0;
    std::uint32_t prev = 0;
    for (std::uint32_t w : words) {
        total += hamming32(prev, w);
        prev = w;
    }
    return total;
}

double BusEnergyModel::transition_energy(std::uint64_t transitions) const {
    return kPjPerTransition * static_cast<double>(transitions);
}

}  // namespace memopt
