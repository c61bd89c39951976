#include "fault/inject.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace memopt {

Rng FaultInjector::stream_rng(std::uint64_t stream) const {
    // mix64 decorrelates (seed, stream) pairs so that neighboring stream
    // ids produce unrelated generators.
    return Rng(mix64(seed_ ^ mix64(stream)));
}

std::size_t FaultInjector::flip_bits(std::span<std::uint8_t> bytes, double p, Rng& rng) {
    std::size_t flips = 0;
    for (std::uint8_t& byte : bytes) {
        for (unsigned bit = 0; bit < 8; ++bit) {
            if (rng.next_bool(p)) {
                byte = static_cast<std::uint8_t>(byte ^ (1u << bit));
                ++flips;
            }
        }
    }
    return flips;
}

std::size_t FaultInjector::flip_bits(ProtectedBuffer& buffer, double p, Rng& rng) {
    std::size_t flips = 0;
    const std::size_t bits = buffer.total_bits();
    for (std::size_t i = 0; i < bits; ++i) {
        if (rng.next_bool(p)) {
            buffer.flip_bit(i);
            ++flips;
        }
    }
    return flips;
}

void FaultInjector::flip_exact(ProtectedBuffer& buffer, std::size_t n, Rng& rng) {
    const std::size_t bits = buffer.total_bits();
    require(n <= bits, "FaultInjector::flip_exact: more flips than stored bits");
    // Partial Fisher-Yates over bit indices: the first n slots end up a
    // uniform n-subset.
    std::vector<std::size_t> indices(bits);
    for (std::size_t i = 0; i < bits; ++i) indices[i] = i;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t j = i + static_cast<std::size_t>(rng.next_below(bits - i));
        std::swap(indices[i], indices[j]);
        buffer.flip_bit(indices[i]);
    }
}

double sleepy_flip_probability(double base_rate, std::uint64_t asleep_cycles,
                               std::uint64_t total_cycles, double drowsy_factor) {
    require(base_rate >= 0.0, "sleepy_flip_probability: negative base rate");
    require(drowsy_factor >= 0.0, "sleepy_flip_probability: negative drowsy factor");
    const double asleep_fraction =
        total_cycles == 0 ? 0.0
                          : static_cast<double>(std::min(asleep_cycles, total_cycles)) /
                                static_cast<double>(total_cycles);
    return std::clamp(base_rate * (1.0 + drowsy_factor * asleep_fraction), 0.0, 0.5);
}

}  // namespace memopt
