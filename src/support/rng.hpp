// Deterministic pseudo-random number generation.
//
// All stochastic components of memopt (synthetic trace generators, search
// heuristics, test sweeps) take an explicit Rng so that every result in the
// repository is reproducible from a seed. No global RNG state exists.
#pragma once

#include <cstdint>
#include <vector>

namespace memopt {

/// One SplitMix64 step: advance `state` by the golden-ratio increment and
/// return the mixed output. Seeds Rng, and is the `.rand` word stream.
std::uint64_t splitmix64(std::uint64_t& state);

/// SplitMix64's output for state `x`, as a pure function: decorrelates
/// seeds, stream ids and hash keys into well-mixed Rng seeds.
inline std::uint64_t mix64(std::uint64_t x) { return splitmix64(x); }

/// xoshiro256** PRNG (Blackman & Vigna). Fast, high quality, 256-bit state,
/// seeded via SplitMix64 so that any 64-bit seed yields a well-mixed state.
class Rng {
public:
    /// Construct from a 64-bit seed. Equal seeds yield equal streams.
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

    /// Next raw 64-bit value.
    std::uint64_t next_u64();

    /// Uniform integer in [0, bound). `bound` must be > 0.
    /// Uses rejection sampling: no modulo bias.
    std::uint64_t next_below(std::uint64_t bound);

    /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
    std::int64_t next_in(std::int64_t lo, std::int64_t hi);

    /// Uniform double in [0, 1).
    double next_double();

    /// Bernoulli trial with probability `p` of returning true (clamped to [0,1]).
    bool next_bool(double p = 0.5);

    /// Geometric-like heavy-tailed block index in [0, n): probability of
    /// index i proportional to (1-alpha)^i. Used to synthesize skewed
    /// embedded access profiles. Requires n > 0 and 0 < alpha < 1.
    std::uint64_t next_zipf_like(std::uint64_t n, double alpha);

    /// Fisher–Yates shuffle of a vector, in place.
    template <typename T>
    void shuffle(std::vector<T>& v) {
        for (std::size_t i = v.size(); i > 1; --i) {
            const std::size_t j = static_cast<std::size_t>(next_below(i));
            using std::swap;
            swap(v[i - 1], v[j]);
        }
    }

private:
    std::uint64_t s_[4];
};

}  // namespace memopt
