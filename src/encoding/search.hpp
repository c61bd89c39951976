// Application-specific transform search — the 1B-3 algorithm.
//
// Because a LinearTransform acts linearly on consecutive XOR differences
// (see transform.hpp), minimizing encoded bus transitions reduces to:
//
//   given the multiset D of difference words of the profiled fetch stream,
//   find an invertible linear map L (a short sequence of 2-input XOR
//   gates) minimizing  sum_{d in D} popcount(L(d)).
//
// The searcher is greedy: each step adds the single gate bit[dst] ^= bit[src]
// with the largest transition reduction, computed exactly from the bit
// co-occurrence matrix of the (transformed) difference multiset. The gate
// budget models the hardware frugality constraint of the paper — each gate
// is one 2-input XOR in the fetch path.
#pragma once

#include <cstdint>
#include <span>

#include "encoding/transform.hpp"

namespace memopt {

class JsonWriter;

/// Largest gate budget search_transform accepts.
inline constexpr std::size_t kMaxTransformGates = 1024;

/// Search configuration.
struct TransformSearchParams {
    std::size_t max_gates = 16;   ///< hardware budget (XOR gates in the decoder)
};

/// Result of a search.
struct TransformSearchResult {
    LinearTransform transform;
    std::uint64_t original_transitions = 0;
    std::uint64_t encoded_transitions = 0;

    /// Fractional reduction in [0, 1).
    double reduction() const {
        return original_transitions == 0
                   ? 0.0
                   : 1.0 - static_cast<double>(encoded_transitions) /
                               static_cast<double>(original_transitions);
    }
};

/// Serialize one search result: gate list, transition counts, reduction.
void to_json(JsonWriter& w, const TransformSearchResult& result);

/// Greedy gate search over the profiled stream. Like every transition
/// count in the toolkit, it starts from the idle bus state 0.
TransformSearchResult search_transform(std::span<const std::uint32_t> words,
                                       const TransformSearchParams& params = {});

/// Exhaustive best single gate (32*31 candidates); used by tests to certify
/// that the greedy step is optimal for a one-gate budget.
TransformSearchResult best_single_gate(std::span<const std::uint32_t> words);

}  // namespace memopt
