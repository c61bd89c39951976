#include "encoding/search.hpp"

#include <array>
#include <bit>
#include <unordered_map>
#include <vector>

#include "energy/bus_model.hpp"
#include "support/assert.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"

namespace memopt {

namespace {

/// The multiset of consecutive XOR differences, deduplicated. Instruction
/// streams are loop-dominated, so the number of distinct differences is
/// orders of magnitude below the stream length.
struct DiffHistogram {
    std::vector<std::uint32_t> values;
    std::vector<std::uint64_t> counts;

    static DiffHistogram build(std::span<const std::uint32_t> words) {
        std::unordered_map<std::uint32_t, std::uint64_t> map;
        std::uint32_t prev = 0;
        for (std::uint32_t w : words) {
            ++map[prev ^ w];
            prev = w;
        }
        DiffHistogram h;
        h.values.reserve(map.size());
        h.counts.reserve(map.size());
        // memopt-lint: order-independent -- every consumer of the histogram is a
        // multiset reduction: total_transitions and BitStats are exact uint64
        // sums (commutative/associative), apply() is elementwise, and best_gate
        // ranks gates on those sums with a fixed (dst, src) scan order. Pinned
        // by Search.InvariantUnderDiffOrder.
        for (const auto& [v, c] : map) {
            h.values.push_back(v);
            h.counts.push_back(c);
        }
        return h;
    }

    std::uint64_t total_transitions() const {
        std::uint64_t total = 0;
        for (std::size_t k = 0; k < values.size(); ++k)
            total += static_cast<std::uint64_t>(std::popcount(values[k])) * counts[k];
        return total;
    }

    /// Apply gate to every difference value (the linear action).
    void apply(const XorGate& g) {
        for (std::uint32_t& v : values) {
            const std::uint32_t src_bit = (v >> g.src) & 1u;
            v ^= src_bit << g.dst;
        }
    }
};

/// cost[i] = weighted count of set bit i; cooc[i][j] = weighted count of
/// (bit i AND bit j) both set.
struct BitStats {
    std::array<std::uint64_t, 32> cost{};
    std::array<std::array<std::uint64_t, 32>, 32> cooc{};

    /// Accumulate the stats of h.values[[first, last)) into this object.
    void accumulate(const DiffHistogram& h, std::size_t first, std::size_t last) {
        for (std::size_t k = first; k < last; ++k) {
            std::uint32_t v = h.values[k];
            const std::uint64_t c = h.counts[k];
            // Enumerate set bits.
            std::array<unsigned, 32> bits;
            unsigned nbits = 0;
            while (v != 0) {
                const unsigned b = static_cast<unsigned>(std::countr_zero(v));
                bits[nbits++] = b;
                v &= v - 1;
            }
            for (unsigned a = 0; a < nbits; ++a) {
                cost[bits[a]] += c;
                for (unsigned bidx = 0; bidx < nbits; ++bidx)
                    cooc[bits[a]][bits[bidx]] += c;
            }
        }
    }

    /// Histograms below this size are accumulated inline; the parallel
    /// split-and-merge only pays off on large difference populations.
    static constexpr std::size_t kParallelThreshold = 4096;

    static BitStats build(const DiffHistogram& h) {
        const std::size_t n = h.values.size();
        BitStats s;
        if (n < kParallelThreshold || default_jobs() <= 1 || in_parallel_region()) {
            s.accumulate(h, 0, n);
            return s;
        }
        // Chunk the histogram, accumulate partial stats concurrently, and
        // merge in chunk order. Every tally is an exact uint64 sum, so the
        // merged stats are bit-identical to the serial accumulation.
        const std::size_t chunks = std::min(default_jobs(), n / (kParallelThreshold / 8));
        std::vector<BitStats> partial(chunks);
        parallel_for(chunks, [&](std::size_t chunk) {
            const std::size_t first = n * chunk / chunks;
            const std::size_t last = n * (chunk + 1) / chunks;
            partial[chunk].accumulate(h, first, last);
        });
        for (const BitStats& p : partial) {
            for (unsigned i = 0; i < 32; ++i) {
                s.cost[i] += p.cost[i];
                for (unsigned j = 0; j < 32; ++j) s.cooc[i][j] += p.cooc[i][j];
            }
        }
        return s;
    }
};

/// Best gate for the current histogram: improvement of bit[dst] ^= bit[src]
/// is cost[dst] - N(dst,src) = 2*cooc[dst][src] - cost[src].
struct GateChoice {
    XorGate gate;
    std::int64_t improvement = 0;
};

GateChoice best_gate(const DiffHistogram& h) {
    const BitStats stats = BitStats::build(h);
    GateChoice best;
    best.improvement = 0;
    for (unsigned dst = 0; dst < 32; ++dst) {
        for (unsigned src = 0; src < 32; ++src) {
            if (dst == src) continue;
            const std::int64_t improvement =
                2 * static_cast<std::int64_t>(stats.cooc[dst][src]) -
                static_cast<std::int64_t>(stats.cost[src]);
            if (improvement > best.improvement) {
                best.improvement = improvement;
                best.gate = XorGate{static_cast<std::uint8_t>(dst),
                                    static_cast<std::uint8_t>(src)};
            }
        }
    }
    return best;
}

}  // namespace

void to_json(JsonWriter& w, const TransformSearchResult& result) {
    w.begin_object();
    w.member("gate_count", static_cast<std::uint64_t>(result.transform.gate_count()));
    w.key("gates").begin_array();
    for (const XorGate& g : result.transform.gates()) {
        w.begin_object();
        w.member("dst", static_cast<unsigned>(g.dst));
        w.member("src", static_cast<unsigned>(g.src));
        w.end_object();
    }
    w.end_array();
    w.member("original_transitions", result.original_transitions);
    w.member("encoded_transitions", result.encoded_transitions);
    w.member("reduction_pct", 100.0 * result.reduction());
    w.end_object();
}

TransformSearchResult search_transform(std::span<const std::uint32_t> words,
                                       const TransformSearchParams& params) {
    require(params.max_gates <= kMaxTransformGates, "TransformSearchParams: absurd gate budget");
    static MetricCounter& searches = MetricsRegistry::instance().counter("encoding.searches");
    static MetricCounter& gates_selected =
        MetricsRegistry::instance().counter("encoding.gates_selected");
    static MetricTimer& search_timer = MetricsRegistry::instance().timer("encoding.search");
    searches.add();
    const ScopedTimer scope(search_timer);

    TransformSearchResult result;
    if (words.empty()) return result;

    DiffHistogram hist = DiffHistogram::build(words);
    result.original_transitions = hist.total_transitions();

    LinearTransform transform;
    for (std::size_t step = 0; step < params.max_gates; ++step) {
        const GateChoice choice = best_gate(hist);
        if (choice.improvement <= 0) break;
        transform.append(choice.gate);
        hist.apply(choice.gate);
    }
    result.encoded_transitions = hist.total_transitions();
    result.transform = std::move(transform);
    gates_selected.add(result.transform.gate_count());

    // Cross-check the histogram bookkeeping against a direct simulation of
    // the encoder; cheap relative to the search and catches any drift.
    MEMOPT_ASSERT(encoded_transitions(result.transform, words) == result.encoded_transitions);
    return result;
}

TransformSearchResult best_single_gate(std::span<const std::uint32_t> words) {
    TransformSearchResult result;
    result.original_transitions = count_transitions(words);
    result.encoded_transitions = result.original_transitions;

    // Candidate evaluation is 32*31 full-stream simulations; fan the dst
    // rows out over the parallel runtime and reduce in row order. Ties keep
    // the first candidate in (dst, src) scan order — exactly the serial
    // strict-< scan — so the winner is identical at every job count.
    struct RowBest {
        std::uint64_t transitions;
        LinearTransform transform;
    };
    std::array<RowBest, 32> rows;
    parallel_for(32, [&](std::size_t dst) {
        RowBest best{result.original_transitions, LinearTransform{}};
        for (unsigned src = 0; src < 32; ++src) {
            if (dst == src) continue;
            const LinearTransform t(std::vector<XorGate>{
                XorGate{static_cast<std::uint8_t>(dst), static_cast<std::uint8_t>(src)}});
            const std::uint64_t trans = encoded_transitions(t, words);
            if (trans < best.transitions) {
                best.transitions = trans;
                best.transform = t;
            }
        }
        rows[dst] = std::move(best);
    });
    for (const RowBest& row : rows) {
        if (row.transitions < result.encoded_transitions) {
            result.encoded_transitions = row.transitions;
            result.transform = row.transform;
        }
    }
    return result;
}

}  // namespace memopt
