// Deterministic fault injection.
//
// A FaultInjector is a seed plus a family of independent sub-streams: the
// faults of (seed, stream) are a pure function of those two values, never
// of call order or thread schedule. Campaigns assign one stream per Monte-
// Carlo trial, so a parallel campaign is bit-identical to a serial one at
// any job count. Injection targets are byte buffers (sleepy SRAM bank
// contents, compressed lines between write-back and refill, serialized
// trace streams) and the stored bit space of a ProtectedBuffer.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fault/protect.hpp"
#include "support/rng.hpp"

namespace memopt {

class FaultInjector {
public:
    explicit FaultInjector(std::uint64_t seed) : seed_(seed) {}

    std::uint64_t seed() const { return seed_; }

    /// Independent deterministic sub-stream: equal (seed, stream) pairs
    /// yield equal fault patterns regardless of which streams were drawn
    /// before. Used to give every campaign trial its own generator.
    Rng stream_rng(std::uint64_t stream) const;

    /// Flip every bit of `bytes` independently with probability `p`
    /// (clamped to [0, 1]). Returns the number of flips.
    static std::size_t flip_bits(std::span<std::uint8_t> bytes, double p, Rng& rng);

    /// flip_bits over the bytes of a serialized stream (trace I/O fuzzing).
    static std::size_t flip_bits(std::string& bytes, double p, Rng& rng);

    /// Flip the stored bits (data + check) of a protected buffer with
    /// per-bit probability `p`. Returns the number of flips.
    static std::size_t flip_bits(ProtectedBuffer& buffer, double p, Rng& rng);

    /// Flip exactly `n` distinct stored bits of a protected buffer
    /// (uniformly chosen). Used to exercise exact-multiplicity behavior
    /// (SECDED: 1 flip corrected, 2 flips detected). Requires
    /// n <= buffer.total_bits().
    static void flip_exact(ProtectedBuffer& buffer, std::size_t n, Rng& rng);

private:
    std::uint64_t seed_;
};

/// Per-bit upset probability of a bank whose contents spent `asleep_cycles`
/// of `total_cycles` in the drowsy state: sleeping retention is
/// `drowsy_factor` times more fault-prone than nominal, so
///   p = base_rate * (1 + drowsy_factor * asleep_fraction),
/// clamped to [0, 0.5]. This is the coupling between the gated residency
/// of the bank-activity replay (BankActivity::gated_cycles,
/// partition/hybrid.hpp) and the fault model.
double sleepy_flip_probability(double base_rate, std::uint64_t asleep_cycles,
                               std::uint64_t total_cycles, double drowsy_factor);

}  // namespace memopt
