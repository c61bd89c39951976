// Invertible bit-level bus transforms — the 1B-3 mechanism.
//
// The paper encodes instruction words with "frugal functional
// transformations reliant on a single bit logic gate": per-bit XOR gates
// mixing one bus line into another, reprogrammable per application. Such a
// transform is an invertible *linear* map L over GF(2)^32 built from
// elementary operations bit[dst] ^= bit[src].
//
// Key property (and the reason this works): for a linear map,
//   T(w1) XOR T(w2) = L(w1 XOR w2),
// so the transitions of the transformed stream depend only on L applied to
// the stream's consecutive XOR differences. Constant XOR masks and pure bit
// permutations leave the total transition count unchanged — all the leverage
// is in the cross-bit mixing, which is exactly what the gate budget buys.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace memopt {

/// One elementary gate: bit[dst] ^= bit[src] (dst != src). Self-inverse.
struct XorGate {
    std::uint8_t dst = 0;
    std::uint8_t src = 1;

    bool operator==(const XorGate&) const = default;
};

/// An ordered sequence of XOR gates; invertible by construction.
class LinearTransform {
public:
    LinearTransform() = default;  ///< identity

    /// Build from a gate list (applied in order). Each gate must have
    /// dst != src and bit indices < 32.
    explicit LinearTransform(std::vector<XorGate> gates);

    const std::vector<XorGate>& gates() const { return gates_; }
    std::size_t gate_count() const { return gates_.size(); }
    bool is_identity() const { return gates_.empty(); }

    /// Encode one word (apply gates in order).
    std::uint32_t apply(std::uint32_t w) const;

    /// Decode one word (apply gates in reverse order; each gate is
    /// self-inverse). For all w: invert(apply(w)) == w.
    std::uint32_t invert(std::uint32_t w) const;

    /// Encode a whole stream.
    std::vector<std::uint32_t> apply_stream(std::span<const std::uint32_t> words) const;

    /// Append one gate.
    void append(XorGate gate);

private:
    std::vector<XorGate> gates_;
};

/// Total bus transitions of `words` after encoding with `t` (the encoded
/// stream's consecutive Hamming distances, starting from the idle line
/// state 0, which every linear transform maps to itself).
std::uint64_t encoded_transitions(const LinearTransform& t,
                                  std::span<const std::uint32_t> words);

}  // namespace memopt
