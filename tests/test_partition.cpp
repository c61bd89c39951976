// Unit and property tests for the partitioning engine: architecture
// validation, energy evaluation, and DP-vs-brute-force certification.
#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <optional>
#include <vector>

#include "partition/evaluate.hpp"
#include "partition/solver.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"
#include "trace/source.hpp"
#include "trace/synthetic.hpp"

namespace memopt {
namespace {

BlockProfile random_profile(std::size_t blocks, std::uint64_t seed, std::uint64_t max_count = 1000) {
    BlockProfile p(256, blocks);
    Rng rng(seed);
    for (std::size_t b = 0; b < blocks; ++b) {
        if (rng.next_bool(0.3)) continue;  // leave some blocks cold
        p.add_counts(b, rng.next_below(max_count), rng.next_below(max_count / 2 + 1));
    }
    if (p.total_accesses() == 0) p.add_counts(0, 10, 5);
    return p;
}

/// The DP's oracle: every subset of the num_blocks - 1 split points with at
/// most max_banks banks, each evaluated from scratch; requires
/// num_blocks <= 20.
PartitionSolution solve_partition_brute(const BlockProfile& profile,
                                        const PartitionConstraints& constraints,
                                        const PartitionEnergyParams& params) {
    const std::size_t n = profile.num_blocks();
    require(n >= 1 && n <= 20, "solve_partition_brute: needs 1 to 20 blocks");
    require(constraints.max_banks >= 1, "solve_partition_brute: max_banks must be >= 1");
    std::optional<PartitionSolution> best;
    for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << (n - 1)); ++mask) {
        if (static_cast<std::size_t>(std::popcount(mask)) + 1 > constraints.max_banks) continue;
        std::vector<std::size_t> splits;
        for (std::size_t bit = 0; bit + 1 < n; ++bit) {
            if (mask & (std::uint64_t{1} << bit)) splits.push_back(bit + 1);
        }
        auto arch = MemoryArchitecture::from_splits(profile.block_size(), n, splits,
                                                    params.min_bank_bytes);
        auto energy = evaluate_partition(arch, profile, params);
        if (!best || energy.total() < best->energy.total())
            best = PartitionSolution{std::move(arch), std::move(energy)};
    }
    return *best;
}

// ------------------------------------------------------- architecture ----

TEST(MemoryArchitecture, CapacityForRoundsUp) {
    EXPECT_EQ(MemoryArchitecture::capacity_for(256, 3, 256), 1024u);
    EXPECT_EQ(MemoryArchitecture::capacity_for(256, 4, 256), 1024u);
    EXPECT_EQ(MemoryArchitecture::capacity_for(256, 1, 1024), 1024u);  // min clamp
}

TEST(MemoryArchitecture, FromSplitsBuildsContiguousBanks) {
    const auto arch = MemoryArchitecture::from_splits(256, 10, {3, 7});
    ASSERT_EQ(arch.num_banks(), 3u);
    EXPECT_EQ(arch.banks()[0].num_blocks, 3u);
    EXPECT_EQ(arch.banks()[1].first_block, 3u);
    EXPECT_EQ(arch.banks()[2].end_block(), 10u);
    EXPECT_EQ(arch.num_blocks(), 10u);
}

TEST(MemoryArchitecture, BankOfBlockBinarySearch) {
    const auto arch = MemoryArchitecture::from_splits(256, 100, {10, 40, 90});
    EXPECT_EQ(arch.bank_of_block(0), 0u);
    EXPECT_EQ(arch.bank_of_block(9), 0u);
    EXPECT_EQ(arch.bank_of_block(10), 1u);
    EXPECT_EQ(arch.bank_of_block(39), 1u);
    EXPECT_EQ(arch.bank_of_block(89), 2u);
    EXPECT_EQ(arch.bank_of_block(99), 3u);
    EXPECT_THROW(arch.bank_of_block(100), Error);
}

TEST(MemoryArchitecture, RejectsBadLayouts) {
    EXPECT_THROW(MemoryArchitecture({}, 256), Error);
    // Gap between banks.
    std::vector<Bank> gap{{0, 2, 512}, {3, 2, 512}};
    EXPECT_THROW(MemoryArchitecture(gap, 256), Error);
    // Capacity too small for the range.
    std::vector<Bank> tiny{{0, 4, 512}};
    EXPECT_THROW(MemoryArchitecture(tiny, 256), Error);
    // Non-pow2 capacity.
    std::vector<Bank> odd{{0, 3, 768}};
    EXPECT_THROW(MemoryArchitecture(odd, 256), Error);
}

TEST(MemoryArchitecture, FromSplitsValidatesSplits) {
    EXPECT_THROW(MemoryArchitecture::from_splits(256, 10, {0}), Error);
    EXPECT_THROW(MemoryArchitecture::from_splits(256, 10, {10}), Error);
    EXPECT_THROW(MemoryArchitecture::from_splits(256, 10, {5, 5}), Error);
    EXPECT_THROW(MemoryArchitecture::from_splits(256, 10, {7, 3}), Error);
}

// ----------------------------------------------------------- evaluate ----

TEST(Evaluate, MonolithicMatchesSingleBankPartition) {
    const BlockProfile p = random_profile(16, 1);
    const PartitionEnergyParams params;
    const auto mono = evaluate_monolithic(p, params);
    const auto arch = MemoryArchitecture::monolithic(256, 16);
    const auto same = evaluate_partition(arch, p, params);
    EXPECT_DOUBLE_EQ(mono.total(), same.total());
    EXPECT_DOUBLE_EQ(mono.component("bank_select"), 0.0);
}

TEST(Evaluate, IsolatingHotBlockSavesEnergy) {
    // One hot block in a big cold space: a small dedicated bank must win.
    BlockProfile p(256, 64);
    p.add_counts(0, 100000, 50000);
    const PartitionEnergyParams params;
    const auto mono = evaluate_monolithic(p, params);
    const auto split = evaluate_partition(MemoryArchitecture::from_splits(256, 64, {1}), p, params);
    EXPECT_LT(split.total(), mono.total());
}

TEST(Evaluate, RemapOverheadCharged) {
    const BlockProfile p = random_profile(8, 2);
    PartitionEnergyParams params;
    params.extra_pj_per_access = 1.5;
    const auto e = evaluate_monolithic(p, params);
    EXPECT_DOUBLE_EQ(e.component("remap"),
                     1.5 * static_cast<double>(p.total_accesses()));
}

TEST(Evaluate, LeakageOnlyWhenRuntimeGiven) {
    const BlockProfile p = random_profile(8, 3);
    PartitionEnergyParams params;
    EXPECT_DOUBLE_EQ(evaluate_monolithic(p, params).component("leakage"), 0.0);
    params.runtime_cycles = 100000;
    EXPECT_GT(evaluate_monolithic(p, params).component("leakage"), 0.0);
}

TEST(Evaluate, RejectsGeometryMismatch) {
    const BlockProfile p = random_profile(8, 4);
    const auto arch = MemoryArchitecture::monolithic(256, 9);
    EXPECT_THROW(evaluate_partition(arch, p, {}), Error);
}

// ------------------------------------------------------------ solvers ----

class SolverCertification : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverCertification, DpMatchesBruteForce) {
    const BlockProfile p = random_profile(10, GetParam());
    PartitionConstraints constraints;
    constraints.max_banks = 4;
    const PartitionEnergyParams params;
    const auto dp = solve_partition_optimal(p, constraints, params);
    const auto brute = solve_partition_brute(p, constraints, params);
    EXPECT_NEAR(dp.energy.total(), brute.energy.total(), 1e-6 * brute.energy.total());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverCertification,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

class SolverOrdering : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverOrdering, OptimalLeqGreedyLeqMonolithic) {
    const MemTrace trace = materialize_synthetic({
        .kind = SyntheticKind::Hotspot,
        .base = {.span_bytes = 64 * 1024, .num_accesses = 30000, .write_fraction = 0.3,
                 .seed = GetParam()},
        .num_hotspots = 6,
        .hotspot_bytes = 1024,
        .hot_fraction = 0.85,
    });
    MaterializedSource source(trace);
    const BlockProfile p = BlockProfile::from_source(source, 256);
    PartitionConstraints constraints;
    constraints.max_banks = 8;
    const PartitionEnergyParams params;
    const double mono = evaluate_monolithic(p, params).total();
    const double greedy = solve_partition_greedy(p, constraints, params).energy.total();
    const double optimal = solve_partition_optimal(p, constraints, params).energy.total();
    EXPECT_LE(optimal, greedy * (1 + 1e-12));
    EXPECT_LE(greedy, mono * (1 + 1e-12));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverOrdering, ::testing::Values(11, 12, 13, 14, 15));

TEST(Solver, RespectsBankBudget) {
    const BlockProfile p = random_profile(64, 77);
    for (std::size_t max_banks : {1u, 2u, 3u, 5u, 8u}) {
        PartitionConstraints constraints;
        constraints.max_banks = max_banks;
        const auto sol = solve_partition_optimal(p, constraints, {});
        EXPECT_LE(sol.arch.num_banks(), max_banks);
        EXPECT_EQ(sol.arch.num_blocks(), p.num_blocks());
    }
}

TEST(Solver, MoreBanksNeverHurt) {
    const BlockProfile p = random_profile(64, 78);
    double prev = std::numeric_limits<double>::infinity();
    for (std::size_t max_banks = 1; max_banks <= 8; ++max_banks) {
        const auto sol = solve_partition_optimal(p, {max_banks}, {});
        EXPECT_LE(sol.energy.total(), prev * (1 + 1e-12));
        prev = sol.energy.total();
    }
}

TEST(Solver, SingleBankBudgetYieldsMonolithic) {
    const BlockProfile p = random_profile(32, 79);
    const auto sol = solve_partition_optimal(p, {1}, {});
    EXPECT_EQ(sol.arch.num_banks(), 1u);
    EXPECT_DOUBLE_EQ(sol.energy.total(), evaluate_monolithic(p, {}).total());
}

TEST(Solver, UniformProfileGainsLittle) {
    // With perfectly uniform heat, partitioning can still shrink bank size,
    // but the DP result must match the evaluated architecture exactly.
    BlockProfile p(256, 32);
    for (std::size_t b = 0; b < 32; ++b) p.add_counts(b, 100, 50);
    const auto sol = solve_partition_optimal(p, {8}, {});
    const auto recheck = evaluate_partition(sol.arch, p, {});
    EXPECT_DOUBLE_EQ(sol.energy.total(), recheck.total());
}

TEST(Solver, BruteForceRejectsLargeInstances) {
    const BlockProfile p = random_profile(32, 80);
    EXPECT_THROW(solve_partition_brute(p, {4}, {}), Error);
}

TEST(Solver, GreedyHandlesLargeProfiles) {
    const BlockProfile p = random_profile(4096, 81);
    const auto sol = solve_partition_greedy(p, {8}, {});
    EXPECT_LE(sol.arch.num_banks(), 8u);
    EXPECT_EQ(sol.arch.num_blocks(), 4096u);
}

}  // namespace
}  // namespace memopt
