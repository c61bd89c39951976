#include "encoding/decoder_cost.hpp"

#include <vector>

#include "energy/bus_model.hpp"

namespace memopt {

namespace {
constexpr double kGateTogglePj = 0.012;  // one XOR output toggle (gate-load cap)
}  // namespace

std::uint64_t decoder_toggles(const LinearTransform& transform,
                              std::span<const std::uint32_t> words) {
    if (transform.is_identity() || words.empty()) return 0;
    const auto& gates = transform.gates();

    // prev_outputs[g] = output bit of gate g for the previous word, all 0
    // for the idle bus (a linear transform maps 0 to 0). The decoder
    // applies the gates in reverse (invert order); the gate chain state is
    // reproduced here stage by stage.
    std::vector<std::uint8_t> prev_outputs(gates.size(), 0);
    std::uint64_t toggles = 0;

    auto stage_outputs = [&](std::uint32_t encoded, std::vector<std::uint8_t>& outputs) {
        std::uint32_t w = encoded;
        for (std::size_t g = gates.size(); g-- > 0;) {
            const XorGate& gate = gates[g];
            const std::uint32_t src_bit = (w >> gate.src) & 1u;
            w ^= src_bit << gate.dst;
            outputs[g] = static_cast<std::uint8_t>((w >> gate.dst) & 1u);
        }
    };

    std::vector<std::uint8_t> outputs(gates.size(), 0);
    for (std::uint32_t word : words) {
        stage_outputs(transform.apply(word), outputs);
        for (std::size_t g = 0; g < gates.size(); ++g)
            toggles += prev_outputs[g] != outputs[g];
        prev_outputs = outputs;
    }
    return toggles;
}

double decoder_energy(const LinearTransform& transform, std::span<const std::uint32_t> words) {
    return kGateTogglePj * static_cast<double>(decoder_toggles(transform, words));
}

EnergyBreakdown encoded_energy(const LinearTransform& transform,
                               std::span<const std::uint32_t> words) {
    EnergyBreakdown breakdown;
    breakdown.add("bus",
                  BusEnergyModel{}.transition_energy(encoded_transitions(transform, words)));
    breakdown.add("decoder", decoder_energy(transform, words));
    return breakdown;
}

}  // namespace memopt
