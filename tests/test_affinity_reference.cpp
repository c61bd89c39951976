// Differential tests for the two affinity kernels of the clustering path:
// the co-access pair accumulator behind windowed_affinity (at windows 2,
// the consecutive transitions, 4 and the product's 32), and the heap-driven
// greedy chain in affinity_clustering. Each kernel is compared exactly
// against a short, obviously-correct reference over the synthetic trace
// families, block counts on both sides of the accumulator's dense/hash-table
// threshold, stable and non-stable sources, several chunk sizes, and job
// counts from serial to eight tasks: trace shards below the threshold, key
// partitions above it.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cluster/affinity_cluster.hpp"
#include "support/assert.hpp"
#include "trace/source.hpp"
#include "trace/stream_file.hpp"
#include "trace/synthetic.hpp"

namespace memopt {
namespace {

using PairCounts = std::map<std::pair<std::size_t, std::size_t>, std::uint64_t>;

namespace reference {

/// Co-access counts straight from the definition: access i pairs once with
/// each of the up-to-(window - 1) accesses before it that lies in another
/// block. window == 2 gives the transition counts.
PairCounts pair_counts(std::span<const std::uint64_t> addrs, std::uint64_t block_size,
                       std::size_t window) {
    PairCounts counts;
    for (std::size_t i = 0; i < addrs.size(); ++i) {
        const std::size_t b = addrs[i] / block_size;
        for (std::size_t j = i >= window - 1 ? i - (window - 1) : 0; j < i; ++j) {
            const std::size_t a = addrs[j] / block_size;
            if (a != b) ++counts[{std::min(a, b), std::max(a, b)}];
        }
    }
    return counts;
}

/// The greedy chain as a linear argmax: every step rescans all unplaced hot
/// blocks and keeps the first block with the highest score. This is the
/// O(n^2) formulation affinity_clustering's heap replaces.
AddressMap affinity_chain(const BlockProfile& profile, const AffinityMatrix& affinity,
                          const AffinityClusterParams& params) {
    const std::size_t n = profile.num_blocks();

    std::uint64_t max_count = 0;
    for (std::size_t b = 0; b < n; ++b)
        max_count = std::max(max_count, profile.counts(b).total());
    const double max_affinity = affinity.max_offdiagonal();

    const auto heat = [&](std::size_t b) {
        return max_count == 0
                   ? 0.0
                   : static_cast<double>(profile.counts(b).total()) / static_cast<double>(max_count);
    };

    std::vector<std::size_t> hot;
    std::vector<std::size_t> cold;
    for (std::size_t b = 0; b < n; ++b) {
        (profile.counts(b).total() > 0 ? hot : cold).push_back(b);
    }

    std::vector<std::size_t> chain;
    chain.reserve(hot.size());
    std::vector<bool> placed(n, false);

    if (!hot.empty()) {
        std::size_t seed = hot.front();
        for (std::size_t b : hot) {
            if (profile.counts(b).total() > profile.counts(seed).total()) seed = b;
        }

        std::vector<double> attraction(n, 0.0);
        auto tail_update = [&](std::size_t member, double sign) {
            affinity.for_each_neighbor(
                member, [&](std::size_t b, double w) { attraction[b] += sign * w; });
        };

        chain.push_back(seed);
        placed[seed] = true;
        tail_update(seed, 1.0);

        while (chain.size() < hot.size()) {
            double best_score = -1.0;
            std::size_t best_block = SIZE_MAX;
            for (std::size_t b : hot) {
                if (placed[b]) continue;
                double aff = attraction[b];
                if (max_affinity > 0.0) aff /= max_affinity * static_cast<double>(params.tail_window);
                const double score = aff + params.frequency_weight * heat(b);
                if (score > best_score) {
                    best_score = score;
                    best_block = b;
                }
            }
            MEMOPT_ASSERT(best_block != SIZE_MAX);
            chain.push_back(best_block);
            placed[best_block] = true;
            tail_update(best_block, 1.0);
            if (chain.size() > params.tail_window)
                tail_update(chain[chain.size() - 1 - params.tail_window], -1.0);
        }
    }

    std::vector<std::size_t> perm(n, SIZE_MAX);
    std::size_t position = 0;
    for (std::size_t b : chain) perm[b] = position++;
    for (std::size_t b : cold) perm[b] = position++;
    return AddressMap(profile.block_size(), std::move(perm));
}

}  // namespace reference

constexpr std::uint64_t kBlock = 256;
constexpr std::size_t kWindow = 4;
// stream_accumulate gives a task at least 64Ki accesses: J tasks (and J key
// partitions above the dense threshold) need J * 64Ki of them.
constexpr std::size_t kAccessesPerTask = std::size_t{1} << 16;
// Two tasks at --jobs 8.
constexpr std::size_t kShardedAccesses = 140000;
constexpr std::size_t kChunk = 4096;
constexpr std::size_t kBlockCounts[] = {64, kAffinityDenseMaxBlocks, kAffinityDenseMaxBlocks + 1,
                                        16384};

/// A trace length; the block counts, windows, job counts and chunk sizes
/// it is replayed at; and whether a compressed .mtsc copy joins the stable
/// and the generated source.
struct Replay {
    std::size_t accesses;
    std::vector<std::size_t> blocks;
    std::vector<std::size_t> windows;
    std::vector<std::size_t> jobs;
    std::vector<std::size_t> chunks;
    bool compressed;
};
// Every family:
// - 140000 accesses: serial and two tasks over 35 chunks, on both sides of
//   the accumulator's dense/hash-table threshold, at windows 4 and 2.
// - 200000 accesses in chunks of 3001 at --jobs 3, at windows 4 and 2:
//   three tasks, and a non-stable source's last batch holds one chunk. A
//   compressed .mtsc joins the sources.
const Replay kReplays[] = {
    {kShardedAccesses, {std::begin(kBlockCounts), std::end(kBlockCounts)}, {kWindow, 2}, {1, 8},
     {kChunk}, false},
    {200000, {64, 2048}, {kWindow, 2}, {3}, {3001}, true},
};
// The hotspot family, whose pairs concentrate on few blocks and keep the
// reference small, also runs:
// - 8 * 64Ki + 3001 accesses at 1, 2, 3, 4 and 8 tasks, which above the
//   threshold are also the key-partition counts; and eight tasks over
//   chunks of 65536, where the last batch holds one short chunk, on both
//   sides of the threshold;
// - the product's window of 32 (FlowParams::affinity_window).
constexpr std::size_t kEightTaskAccesses = 8 * kAccessesPerTask + 3001;
const Replay kHotspotReplays[] = {
    {kEightTaskAccesses, {2048}, {kWindow}, {1, 2, 3, 4, 8}, {kChunk}, true},
    {kEightTaskAccesses, {512, 2048}, {kWindow}, {8}, {65536}, true},
    {kShardedAccesses, {16384}, {32}, {1, 8}, {kChunk}, true},
};

/// A trace of `kind` whose addresses fall in the first bit_floor(blocks)
/// blocks, so a profile of `blocks` blocks covers it (1025 blocks leaves
/// one block cold but still selects the accumulator's hash table).
SyntheticSpec spec_for(SyntheticKind kind, std::size_t blocks, std::size_t accesses) {
    SyntheticSpec spec;
    spec.kind = kind;
    spec.base = {.span_bytes = std::bit_floor(blocks) * kBlock,
                 .num_accesses = accesses,
                 .write_fraction = 0.3,
                 .seed = 40 + static_cast<std::uint64_t>(kind)};
    spec.num_hotspots = 4;
    spec.hotspot_bytes = 1024;
    spec.stride = 64;
    return spec;
}

BlockProfile profile_of(const MemTrace& trace, std::size_t blocks) {
    BlockProfile profile(kBlock, blocks);
    const auto addrs = trace.addrs();
    const auto kinds = trace.kinds();
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const bool read = kinds[i] == AccessKind::Read;
        profile.add_counts(addrs[i] / kBlock, read ? 1 : 0, read ? 0 : 1);
    }
    return profile;
}

/// Reference counts laid out the way AffinityMatrix answers queries: every
/// row's neighbours in ascending block order.
struct ExpectedMatrix {
    std::vector<std::vector<std::pair<std::size_t, double>>> rows;
    std::size_t pairs = 0;
    double total = 0.0;
};

ExpectedMatrix expected_matrix(const PairCounts& counts, std::size_t n) {
    ExpectedMatrix e{.rows = std::vector<std::vector<std::pair<std::size_t, double>>>(n),
                     .pairs = counts.size()};
    for (const auto& [pair, count] : counts) {
        const auto w = static_cast<double>(count);
        e.rows[pair.first].emplace_back(pair.second, w);
        e.rows[pair.second].emplace_back(pair.first, w);
        e.total += w;
    }
    for (auto& row : e.rows) std::sort(row.begin(), row.end());
    return e;
}

/// `m` must hold exactly `expected`.
void expect_matrix(const AffinityMatrix& m, const ExpectedMatrix& expected) {
    const std::size_t n = m.num_blocks();
    ASSERT_EQ(n, expected.rows.size());
    EXPECT_EQ(m.stored_pairs(), expected.pairs);
    EXPECT_EQ(m.total(), expected.total);
    std::vector<std::pair<std::size_t, double>> row;
    for (std::size_t a = 0; a < n; ++a) {
        row.clear();
        m.for_each_neighbor(a, [&](std::size_t b, double w) { row.emplace_back(b, w); });
        ASSERT_EQ(row, expected.rows[a]) << "row " << a;
    }
}

/// The physical block order a map lays out: position p holds the logical
/// block that maps to p.
std::vector<std::size_t> layout(const AddressMap& map) {
    std::vector<std::size_t> order(map.num_blocks());
    for (std::size_t b = 0; b < order.size(); ++b) order[map.map_block(b)] = b;
    return order;
}

class AffinityReference : public ::testing::TestWithParam<SyntheticKind> {};

// Stable zero-copy chunks (MaterializedSource) and copied chunks
// (SyntheticSource, and a compressed .mtsc read through the non-stable mmap
// reader) batch differently in stream_accumulate; all of them must
// reproduce the reference counts at every job count and chunk size, under
// either mapping.
TEST_P(AffinityReference, PairCountsMatchStdMapReference) {
    const std::string packed = ::testing::TempDir() + "affinity_ref_" +
                               synthetic_kind_name(GetParam()) + "_z.mtsc";
    std::vector<Replay> replays(std::begin(kReplays), std::end(kReplays));
    if (GetParam() == SyntheticKind::Hotspot)
        replays.insert(replays.end(), std::begin(kHotspotReplays), std::end(kHotspotReplays));
    for (const Replay& replay : replays) {
        for (const std::size_t blocks : replay.blocks) {
            SCOPED_TRACE(testing::Message() << replay.accesses << " accesses, blocks " << blocks);
            const SyntheticSpec spec = spec_for(GetParam(), blocks, replay.accesses);
            const MemTrace trace = materialize_synthetic(spec);
            const BlockProfile profile = profile_of(trace, blocks);
            std::vector<ExpectedMatrix> expected;
            for (const std::size_t window : replay.windows)
                expected.push_back(expected_matrix(
                    reference::pair_counts(trace.addrs(), kBlock, window), blocks));
            for (const std::size_t chunk : replay.chunks) {
                if (replay.compressed) {
                    MaterializedSource source(trace);
                    write_trace_stream(packed, source, {.chunk_accesses = chunk, .compress = true});
                }
                for (const std::size_t jobs : replay.jobs) {
                    SCOPED_TRACE(testing::Message() << "chunk " << chunk << ", jobs " << jobs);
                    MaterializedSource stable(trace, chunk);
                    SyntheticSource generated(spec, chunk);
                    std::vector<TraceSource*> sources = {&stable, &generated};
                    std::optional<MmapBinarySource> compressed;
                    if (replay.compressed) {
                        compressed.emplace(packed);
                        ASSERT_FALSE(compressed->stable_chunks());
                        sources.push_back(&*compressed);
                    }
                    for (TraceSource* source : sources) {
                        SCOPED_TRACE(source == &stable      ? "stable source"
                                     : source == &generated ? "generated source"
                                                            : "compressed .mtsc source");
                        for (std::size_t w = 0; w < replay.windows.size(); ++w) {
                            const std::size_t window = replay.windows[w];
                            SCOPED_TRACE(testing::Message() << "window " << window);
                            expect_matrix(windowed_affinity(*source, profile, window, jobs),
                                          expected[w]);
                        }
                    }
                }
            }
        }
    }
    std::remove(packed.c_str());
}

// The heap chain must pick the same block as the linear argmax at every
// step, for tail windows that evict every step, evict sometimes and never
// evict, and for frequency weights from pure affinity to heat-dominated.
// The chain reads only the matrix, which the test above pins at every job
// count, so one sharded --jobs 8 build per size feeds it.
TEST_P(AffinityReference, ChainMatchesLinearArgmax) {
    for (const std::size_t blocks : kBlockCounts) {
        SCOPED_TRACE(testing::Message() << "blocks " << blocks);
        // Few enough accesses at 16384 blocks to keep the O(hot^2)
        // reference cheap; the smaller sizes shard.
        const std::size_t accesses = blocks > kAffinityDenseMaxBlocks + 1 ? 2000 : kShardedAccesses;
        const MemTrace trace = materialize_synthetic(spec_for(GetParam(), blocks, accesses));
        const BlockProfile profile = profile_of(trace, blocks);
        MaterializedSource source(trace, kChunk);
        const AffinityMatrix affinity = windowed_affinity(source, profile, kWindow, 8);
        std::size_t hot = 0;
        for (std::size_t b = 0; b < blocks; ++b) hot += profile.counts(b).total() > 0 ? 1 : 0;

        for (const std::size_t tail : {std::size_t{1}, std::size_t{8}, hot + 1}) {
            for (const double weight : {0.0, 0.25, 4.0}) {
                SCOPED_TRACE(testing::Message() << "tail_window " << tail << " frequency_weight "
                                                << weight);
                const AffinityClusterParams params{.frequency_weight = weight,
                                                   .tail_window = tail};
                ASSERT_EQ(layout(affinity_clustering(profile, affinity, params)),
                          layout(reference::affinity_chain(profile, affinity, params)));
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Families, AffinityReference,
                         ::testing::Values(SyntheticKind::Uniform, SyntheticKind::Hotspot,
                                           SyntheticKind::Stride, SyntheticKind::TwoPhase),
                         [](const auto& info) {
                             std::string name = synthetic_kind_name(info.param);
                             std::erase(name, '-');
                             return name;
                         });

/// An n-block matrix holding `pairs` (each co-accessed `count` times).
AffinityMatrix matrix_of(std::size_t n,
                         const std::vector<std::pair<std::pair<std::size_t, std::size_t>,
                                                     std::uint64_t>>& pairs) {
    AffinityAccumulator acc(n);
    for (const auto& [pair, count] : pairs)
        for (std::uint64_t i = 0; i < count; ++i) acc.add(pair.first, pair.second);
    return acc.finalize();
}

// Equal heats and no affinity at all: every score ties, so the hot blocks
// chain in ascending order (the linear scan's first-index tie-break) and
// the cold blocks follow in their original order.
TEST(AffinityChainTies, EqualHeatsWithoutAffinityChainInAscendingOrder) {
    for (const std::size_t n : {std::size_t{12}, kAffinityDenseMaxBlocks + 12}) {
        BlockProfile profile(kBlock, n);
        const std::vector<std::size_t> hot = {1, 3, 4, 7, 10, n - 1};
        for (const std::size_t b : hot) profile.add_counts(b, 5, 5);
        std::vector<std::size_t> order = hot;
        for (std::size_t b = 0; b < n; ++b)
            if (std::find(hot.begin(), hot.end(), b) == hot.end()) order.push_back(b);

        const AffinityMatrix none = matrix_of(n, {});
        for (const double weight : {0.0, 0.25, 4.0}) {
            for (const std::size_t tail : {std::size_t{1}, std::size_t{8}}) {
                const AffinityClusterParams params{.frequency_weight = weight, .tail_window = tail};
                EXPECT_EQ(layout(affinity_clustering(profile, none, params)), order)
                    << "n " << n << " weight " << weight << " tail " << tail;
            }
        }
    }
}

// Seed 0 is the hottest block (4 accesses). With tail_window 1 and
// frequency_weight 4, block `pulled` (1 access, the maximal affinity 2 to
// the seed) and block `heated` (2 accesses, no affinity) both score exactly
// 2/(2*1) + 4/4 = 4*2/4 = 2.0, while block 1 (1 access) scores 1.0. The
// lower-indexed of the tied pair must be placed first.
TEST(AffinityChainTies, EqualScoresFromAttractionAndHeatBreakToLowerBlock) {
    struct Case {
        std::size_t pulled;
        std::size_t heated;
        std::vector<std::size_t> order;
    };
    const std::vector<Case> cases = {
        // Attraction wins the tie, then the heated block outscores block 1.
        {2, 3, {0, 2, 3, 1}},
        // Heat wins the tie. Placing block 2 evicts the seed from the tail,
        // so block 3 loses its attraction and now ties block 1 at 1.0.
        {3, 2, {0, 2, 1, 3}},
    };
    for (const std::size_t n : {std::size_t{4}, kAffinityDenseMaxBlocks + 4}) {
        for (const Case& c : cases) {
            BlockProfile profile(kBlock, n);
            profile.add_counts(0, 4, 0);
            profile.add_counts(1, 1, 0);
            profile.add_counts(c.pulled, 1, 0);
            profile.add_counts(c.heated, 2, 0);
            const AffinityMatrix affinity = matrix_of(n, {{{0, c.pulled}, 2}});
            const AffinityClusterParams params{.frequency_weight = 4.0, .tail_window = 1};

            std::vector<std::size_t> order = c.order;
            for (std::size_t b = 4; b < n; ++b) order.push_back(b);
            const auto got = layout(affinity_clustering(profile, affinity, params));
            EXPECT_EQ(got, order) << "n " << n << " pulled " << c.pulled;
            EXPECT_EQ(got, layout(reference::affinity_chain(profile, affinity, params)));
        }
    }
}

}  // namespace
}  // namespace memopt
