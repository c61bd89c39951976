// Decoder hardware cost of a bus transform — closes the 1B-3 energy loop.
//
// Each XOR gate in the fetch-path decoder dissipates energy when its output
// toggles. Gate output capacitance is ~three orders of magnitude below a
// bus line, so the decoder overhead is tiny — but reporting savings *net*
// of it (like the remap table in 1B-1) keeps the reproduction honest and
// lets the E8 ablation show where an oversized gate budget stops paying.
#pragma once

#include <cstdint>
#include <span>

#include "encoding/transform.hpp"
#include "energy/report.hpp"

namespace memopt {

/// Exact toggle count of every gate output across the stream: the stream is
/// replayed through the gate chain word by word and each gate's output bit
/// is compared with its previous value, starting from the idle bus state 0
/// (where every gate output is 0).
std::uint64_t decoder_toggles(const LinearTransform& transform,
                              std::span<const std::uint32_t> words);

/// Decoder energy [pJ] for the stream, at the per-toggle gate energy
/// calibrated in decoder_cost.cpp.
double decoder_energy(const LinearTransform& transform, std::span<const std::uint32_t> words);

/// Net bus+decoder energy comparison for a transform on a stream:
/// components "bus" (encoded transitions, priced by BusEnergyModel) and
/// "decoder".
EnergyBreakdown encoded_energy(const LinearTransform& transform,
                               std::span<const std::uint32_t> words);

}  // namespace memopt
