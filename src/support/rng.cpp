#include "support/rng.hpp"

#include <cmath>

#include "support/assert.hpp"

namespace memopt {

std::uint64_t splitmix64(std::uint64_t& state) {
    state += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

namespace {
std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& s : s_) s = splitmix64(sm);
    // A state of all zeros is the one invalid xoshiro state; splitmix64
    // cannot produce four zero outputs from any seed, but guard anyway.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
    MEMOPT_ASSERT(bound > 0);
    // Rejection sampling over the largest multiple of `bound` below 2^64.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        const std::uint64_t r = next_u64();
        if (r >= threshold) return r % bound;
    }
}

std::int64_t Rng::next_in(std::int64_t lo, std::int64_t hi) {
    MEMOPT_ASSERT(lo <= hi);
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) return static_cast<std::int64_t>(next_u64());  // full 64-bit range
    return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_double() {
    // 53 significant bits.
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool Rng::next_bool(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
}

std::uint64_t Rng::next_zipf_like(std::uint64_t n, double alpha) {
    MEMOPT_ASSERT(n > 0);
    MEMOPT_ASSERT(alpha > 0.0 && alpha < 1.0);
    // Truncated geometric distribution via inverse CDF.
    const double u = next_double();
    const double q = 1.0 - alpha;                        // decay per index
    const double denom = 1.0 - std::pow(q, static_cast<double>(n));
    const double x = std::log(1.0 - u * denom) / std::log(q);
    auto idx = static_cast<std::uint64_t>(x);
    return idx >= n ? n - 1 : idx;
}

}  // namespace memopt
