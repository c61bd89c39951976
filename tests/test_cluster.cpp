// Unit and property tests for address clustering: maps, policies, remap
// cost, and the end-to-end clustering-beats-plain-partitioning property on
// scattered-hotspot profiles.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "cluster/address_map.hpp"
#include "cluster/affinity_cluster.hpp"
#include "cluster/frequency.hpp"
#include "cluster/remap_cost.hpp"
#include "core/flow.hpp"
#include "partition/solver.hpp"
#include "support/assert.hpp"
#include "trace/source.hpp"
#include "trace/synthetic.hpp"

namespace memopt {
namespace {

// ----------------------------------------------------------- AddressMap ----

TEST(AddressMap, IdentityMapsAddressesUnchanged) {
    const auto map = AddressMap::identity(256, 8);
    EXPECT_TRUE(map.is_identity());
    EXPECT_EQ(map.map_addr(0x123), 0x123u);
    EXPECT_EQ(map.map_block(5), 5u);
}

TEST(AddressMap, MapPreservesOffsetWithinBlock) {
    const AddressMap map(256, {1, 0});
    EXPECT_EQ(map.map_addr(0x10), 0x110u);
    EXPECT_EQ(map.map_addr(0x1FC), 0xFCu);
}

TEST(AddressMap, InverseIsConsistent) {
    // Every physical block has exactly one logical preimage, and the
    // permutation view, map_block and map_addr agree on it.
    const AddressMap map(256, {2, 0, 3, 1});
    std::vector<std::size_t> inverse(map.num_blocks(), SIZE_MAX);
    for (std::size_t b = 0; b < map.num_blocks(); ++b) {
        EXPECT_EQ(map.permutation()[b], map.map_block(b));
        EXPECT_EQ(map.map_addr(b * 256 + 7), map.map_block(b) * 256 + 7);
        EXPECT_EQ(inverse[map.map_block(b)], SIZE_MAX) << "two blocks map to one";
        inverse[map.map_block(b)] = b;
    }
    EXPECT_EQ(inverse, (std::vector<std::size_t>{1, 3, 0, 2}));
}

TEST(AddressMap, RejectsNonBijections) {
    EXPECT_THROW(AddressMap(256, {0, 0}), Error);
    EXPECT_THROW(AddressMap(256, {0, 2}), Error);
    EXPECT_THROW(AddressMap(256, {}), Error);
    EXPECT_THROW(AddressMap(100, {0}), Error);  // block size not pow2
}

TEST(AddressMap, MapAddrRejectsOutsideSpan) {
    const AddressMap map(256, {1, 0});
    EXPECT_THROW(map.map_addr(512), Error);
}

TEST(AddressMap, ProfileAndTraceApplicationsAgree) {
    // profile(map(trace)) == map(profile(trace)) — the remap stage commutes
    // with profiling.
    const MemTrace trace = materialize_synthetic(
        {.kind = SyntheticKind::Uniform,
         .base = {.span_bytes = 4096, .num_accesses = 3000, .write_fraction = 0.25, .seed = 5}});
    MaterializedSource source(trace);
    const BlockProfile profile = BlockProfile::from_source(source, 256);
    Rng rng(7);
    std::vector<std::size_t> perm(profile.num_blocks());
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    rng.shuffle(perm);
    const AddressMap map(256, perm);

    const BlockProfile direct = map.apply(profile);
    MemTrace mapped;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        MemAccess a = trace.at(i);
        a.addr = map.map_addr(a.addr);
        mapped.add(a);
    }
    MaterializedSource mapped_source(mapped);
    const BlockProfile via_trace = BlockProfile::from_source(mapped_source, 256);
    ASSERT_EQ(direct.num_blocks(), via_trace.num_blocks());
    for (std::size_t b = 0; b < direct.num_blocks(); ++b) {
        EXPECT_EQ(direct.counts(b).reads, via_trace.counts(b).reads) << b;
        EXPECT_EQ(direct.counts(b).writes, via_trace.counts(b).writes) << b;
    }
}

// ------------------------------------------------------------ policies ----

TEST(FrequencyClustering, HotBlocksMoveToFront) {
    BlockProfile p(256, 8);
    p.add_counts(6, 100, 0);
    p.add_counts(2, 50, 0);
    p.add_counts(4, 10, 0);
    const AddressMap map = frequency_clustering(p);
    EXPECT_EQ(map.map_block(6), 0u);
    EXPECT_EQ(map.map_block(2), 1u);
    EXPECT_EQ(map.map_block(4), 2u);
    // The permuted profile is hot-first and monotone non-increasing.
    const BlockProfile q = map.apply(p);
    for (std::size_t b = 1; b < q.num_blocks(); ++b)
        EXPECT_LE(q.counts(b).total(), q.counts(b - 1).total());
}

TEST(FrequencyClustering, IsAlwaysABijection) {
    const MemTrace trace = materialize_synthetic({
        .kind = SyntheticKind::Hotspot,
        .base = {.span_bytes = 32768, .num_accesses = 10000, .write_fraction = 0.3, .seed = 3},
        .num_hotspots = 5,
        .hotspot_bytes = 512,
        .hot_fraction = 0.9,
    });
    MaterializedSource source(trace);
    const BlockProfile p = BlockProfile::from_source(source, 256);
    const AddressMap map = frequency_clustering(p);  // ctor validates bijection
    EXPECT_EQ(map.num_blocks(), p.num_blocks());
}

TEST(AffinityClustering, ProducesValidMapAndKeepsHotSeedFirst) {
    const MemTrace trace = materialize_synthetic(
        {.kind = SyntheticKind::TwoPhase,
         .base = {.span_bytes = 8192, .num_accesses = 4000, .write_fraction = 0.3, .seed = 11}});
    MaterializedSource source(trace);
    const BlockProfile p = BlockProfile::from_source(source, 256);
    const AffinityMatrix aff = windowed_affinity(source, p, 16);
    const AddressMap map = affinity_clustering(p, aff);
    EXPECT_EQ(map.num_blocks(), p.num_blocks());
    // The seed (hottest block) lands at physical position 0.
    const auto order = p.blocks_by_access_desc();
    EXPECT_EQ(map.map_block(order[0]), 0u);
}

TEST(AffinityClustering, ColdBlocksLandAtTheTail) {
    BlockProfile p(256, 6);
    p.add_counts(1, 10, 0);
    p.add_counts(3, 20, 0);
    AffinityAccumulator acc(6);
    for (int i = 0; i < 5; ++i) acc.add(1, 3);
    const AddressMap map = affinity_clustering(p, acc.finalize());
    EXPECT_LT(map.map_block(1), 2u);
    EXPECT_LT(map.map_block(3), 2u);
    EXPECT_GE(map.map_block(0), 2u);
    EXPECT_GE(map.map_block(5), 2u);
}

TEST(AffinityClustering, GroupsCoAccessedBlocks) {
    // Blocks 0 and 9 are always accessed together; 5 is equally hot but
    // never co-accessed: 0 and 9 must be physical neighbours.
    BlockProfile p(256, 10);
    p.add_counts(0, 100, 0);
    p.add_counts(9, 100, 0);
    p.add_counts(5, 100, 0);
    AffinityAccumulator acc(10);
    for (int i = 0; i < 100; ++i) acc.add(0, 9);
    const AddressMap map = affinity_clustering(p, acc.finalize());
    const auto pos0 = map.map_block(0);
    const auto pos9 = map.map_block(9);
    const auto pos5 = map.map_block(5);
    EXPECT_EQ(std::max(pos0, pos9) - std::min(pos0, pos9), 1u);
    EXPECT_GT(pos5, std::max(pos0, pos9));
}

TEST(AffinityClustering, ValidatesInputs) {
    BlockProfile p(256, 4);
    p.add_counts(0, 1, 0);
    AffinityMatrix wrong(5);
    EXPECT_THROW(affinity_clustering(p, wrong), Error);
    AffinityMatrix ok(4);
    EXPECT_THROW(affinity_clustering(p, ok, {.tail_window = 0}), Error);
}

// ----------------------------------------------------------- remap cost ----

TEST(RemapTable, SingleBlockIsFree) {
    EXPECT_DOUBLE_EQ(RemapTableModel(1).lookup_energy(), 0.0);
}

TEST(RemapTable, EnergyAndBitsGrowWithBlocks) {
    double prev_energy = 0.0;
    std::uint64_t prev_bits = 0;
    for (std::size_t blocks = 2; blocks <= 4096; blocks *= 4) {
        const RemapTableModel model(blocks);
        EXPECT_GT(model.lookup_energy(), prev_energy);
        EXPECT_GT(model.table_bits(), prev_bits);
        prev_energy = model.lookup_energy();
        prev_bits = model.table_bits();
    }
}

TEST(RemapTable, IndexBitsCeilLog2) {
    EXPECT_EQ(RemapTableModel(1024).index_bits(), 10u);
    EXPECT_EQ(RemapTableModel(1000).index_bits(), 10u);
    EXPECT_EQ(RemapTableModel(2).index_bits(), 1u);
}

TEST(RemapTable, LookupStaysSmallRelativeToBankAccess) {
    // The remap stage must stay an order of magnitude below a bank access,
    // or clustering could never win; this guards the technology defaults.
    const RemapTableModel remap(1024);
    const SramEnergyModel bank(8 * 1024);
    EXPECT_LT(remap.lookup_energy() * 5, bank.read_energy());
}

// ------------------------------------------------------------ E2E flow ----

class ClusteringWins : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClusteringWins, BeatsPlainPartitioningOnScatteredHotspots) {
    const MemTrace trace = materialize_synthetic({
        .kind = SyntheticKind::Hotspot,
        .base = {.span_bytes = 128 * 1024, .num_accesses = 40000, .write_fraction = 0.3,
                 .seed = GetParam()},
        .num_hotspots = 8,
        .hotspot_bytes = 1024,
        .hot_fraction = 0.9,
    });
    FlowParams fp;
    fp.block_size = 256;
    fp.constraints.max_banks = 4;
    const MemoryOptimizationFlow flow(fp);
    MaterializedSource source(trace);
    const FlowComparison cmp = flow.compare(source, ClusterMethod::Frequency);
    EXPECT_GT(cmp.partitioning_savings_pct(), 0.0);
    EXPECT_GT(cmp.clustering_savings_pct(), 5.0)
        << "clustering must clearly beat plain partitioning on scattered profiles";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusteringWins, ::testing::Values(21, 22, 23, 24, 25));

/// The least energy of the exact DP over every order of the blocks.
double best_over_permutations(const BlockProfile& profile, const PartitionConstraints& constraints,
                              const PartitionEnergyParams& params) {
    std::vector<std::size_t> perm(profile.num_blocks());
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    double best = std::numeric_limits<double>::infinity();
    do {
        const BlockProfile permuted = AddressMap(profile.block_size(), perm).apply(profile);
        const double energy = solve_partition_optimal(permuted, constraints, params).energy.total();
        best = std::min(best, energy);
    } while (std::next_permutation(perm.begin(), perm.end()));
    return best;
}

double hot_first_energy(const BlockProfile& profile, const PartitionConstraints& constraints,
                        const PartitionEnergyParams& params) {
    const BlockProfile physical = frequency_clustering(profile).apply(profile);
    return solve_partition_optimal(physical, constraints, params).energy.total();
}

class FrequencyOptimality : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FrequencyOptimality, NoPermutationBeatsFrequencyPlusExactDp) {
    // Spot check of EXPERIMENTS.md E1 on a trace with writes: hot-first
    // ordering followed by the exact DP against random permutations. The
    // exchange argument holds for read-only profiles only (see the
    // exhaustive tests below); on these traces no sampled permutation wins.
    const MemTrace trace = materialize_synthetic({
        .kind = SyntheticKind::Hotspot,
        .base = {.span_bytes = 16384, .num_accesses = 20000, .write_fraction = 0.3,
                 .seed = GetParam()},
        .num_hotspots = 4,
        .hotspot_bytes = 512,
        .hot_fraction = 0.85,
    });
    MaterializedSource source(trace);
    const BlockProfile profile = BlockProfile::from_source(source, 256);
    const PartitionConstraints constraints{4};
    const PartitionEnergyParams params;  // no remap term: pure permutation comparison

    const double best = hot_first_energy(profile, constraints, params);

    Rng rng(GetParam() + 5000);
    std::vector<std::size_t> perm(profile.num_blocks());
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    for (int trial = 0; trial < 10; ++trial) {
        rng.shuffle(perm);
        const BlockProfile shuffled = AddressMap(256, perm).apply(profile);
        const double other =
            solve_partition_optimal(shuffled, constraints, params).energy.total();
        EXPECT_GE(other, best * (1 - 1e-12)) << "trial " << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrequencyOptimality, ::testing::Values(41, 42, 43));

// EXPERIMENTS.md E1's exchange argument, checked by brute force: on a
// read-only profile, hot-first order followed by the exact DP is optimal
// over every block permutation, for 2 to 8 blocks, bank budgets 1 to 8,
// and leakage off and on.
TEST(ExchangeArgument, HotFirstBeatsEveryPermutationOfReadOnlyProfiles) {
    const std::size_t budgets[] = {1, 2, 3, 4, 8};
    for (std::uint64_t seed = 1; seed <= 70; ++seed) {
        const std::size_t blocks = 2 + seed % 7;
        Rng rng(seed);
        BlockProfile profile(256, blocks);
        for (std::size_t b = 0; b < blocks; ++b) {
            if (!rng.next_bool(0.2)) profile.add_counts(b, rng.next_below(1000), 0);
        }
        const PartitionConstraints constraints{budgets[seed % 5]};
        PartitionEnergyParams params;
        params.runtime_cycles = seed % 2 == 0 ? 0 : 100000;
        const double hot_first = hot_first_energy(profile, constraints, params);
        const double best = best_over_permutations(profile, constraints, params);
        EXPECT_LE(hot_first, best * (1 + 1e-12)) << "seed " << seed;
    }
}

// The documented limit of E1's claim: hot-first ranks blocks by total
// accesses, but a write costs more than a read, so with writes another
// order can win. On this 4-block profile it wins by 0.07%.
TEST(ExchangeArgument, WritesCanBeatHotFirstOrder) {
    BlockProfile profile(256, 4);
    profile.add_counts(0, 954, 271);
    profile.add_counts(1, 647, 85);
    profile.add_counts(2, 543, 203);
    profile.add_counts(3, 719, 44);
    const PartitionConstraints constraints{3};
    const PartitionEnergyParams params;  // runtime 0: no leakage
    const double hot_first = hot_first_energy(profile, constraints, params);
    const double best = best_over_permutations(profile, constraints, params);
    EXPECT_NEAR(hot_first, 36212.21, 0.01);
    EXPECT_NEAR(best, 36186.20, 0.01);
}

TEST(Flow, ComparisonFieldsAreConsistent) {
    const MemTrace trace = materialize_synthetic({
        .kind = SyntheticKind::Hotspot,
        .base = {.span_bytes = 32768, .num_accesses = 20000, .write_fraction = 0.3, .seed = 31},
        .num_hotspots = 6,
        .hotspot_bytes = 512,
        .hot_fraction = 0.85,
    });
    FlowParams fp;
    fp.constraints.max_banks = 4;
    const MemoryOptimizationFlow flow(fp);
    MaterializedSource source(trace);
    const FlowComparison cmp = flow.compare(source, ClusterMethod::Affinity);
    EXPECT_EQ(cmp.partitioned.method, ClusterMethod::None);
    EXPECT_EQ(cmp.clustered.method, ClusterMethod::Affinity);
    EXPECT_TRUE(cmp.partitioned.map.is_identity());
    EXPECT_FALSE(cmp.clustered.map.is_identity());
    // Partitioning never loses to the monolithic baseline (k=1 is in the
    // DP's search space).
    EXPECT_LE(cmp.partitioned.energy.total(), cmp.monolithic.total() * (1 + 1e-12));
    // The clustered flow pays for its remap table.
    EXPECT_GT(cmp.clustered.energy.component("remap"), 0.0);
    EXPECT_DOUBLE_EQ(cmp.partitioned.energy.component("remap"), 0.0);
}

TEST(Flow, AffinityNeedsTrace) {
    BlockProfile p(256, 8);
    p.add_counts(0, 10, 5);
    const MemoryOptimizationFlow flow(FlowParams{});
    EXPECT_THROW(flow.run(p, ClusterMethod::Affinity), Error);
    EXPECT_NO_THROW(flow.run(p, ClusterMethod::Frequency));
}

TEST(Flow, AutoGreedyFallbackOnHugeProfiles) {
    // 2 MiB span at 256 B blocks = 8192 blocks: above the auto-greedy
    // threshold, the flow must still complete quickly and return a valid
    // architecture.
    const MemTrace trace = materialize_synthetic({
        .kind = SyntheticKind::Hotspot,
        .base = {.span_bytes = 2 * 1024 * 1024, .num_accesses = 30000,
                 .write_fraction = 0.3, .seed = 77},
        .num_hotspots = 10,
        .hotspot_bytes = 2048,
        .hot_fraction = 0.9,
    });
    FlowParams fp;
    fp.block_size = 256;
    fp.constraints.max_banks = 4;
    const MemoryOptimizationFlow flow(fp);
    MaterializedSource source(trace);
    const FlowResult result = flow.run(source, ClusterMethod::Frequency);
    EXPECT_EQ(result.solution.arch.num_blocks(), 8192u);
    EXPECT_LE(result.solution.arch.num_banks(), 4u);
}

TEST(Flow, MethodNames) {
    EXPECT_EQ(cluster_method_name(ClusterMethod::None), "none");
    EXPECT_EQ(cluster_method_name(ClusterMethod::Frequency), "frequency");
    EXPECT_EQ(cluster_method_name(ClusterMethod::Affinity), "affinity");
    for (const ClusterMethod m :
         {ClusterMethod::None, ClusterMethod::Frequency, ClusterMethod::Affinity})
        EXPECT_EQ(parse_cluster_method(cluster_method_name(m)), m);
    EXPECT_FALSE(parse_cluster_method("Affinity").has_value());
}

}  // namespace
}  // namespace memopt
