// Unit and property tests for the partitioning engine: architecture
// validation, energy evaluation, and DP-vs-brute-force certification.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "energy/sram_model.hpp"
#include "partition/evaluate.hpp"
#include "partition/solver.hpp"
#include "support/assert.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "trace/source.hpp"
#include "trace/synthetic.hpp"

namespace memopt {
namespace reference {

/// The exact DP's oracle: the O(K n^2) recurrence as one serial loop, with
/// integer prefix sums, one energy entry per bank length, and a scan of
/// every predecessor that keeps its first minimum. Every candidate is the
/// library's expression, so splits and energies must match bit for bit.
PartitionSolution solve_partition_optimal(const BlockProfile& profile,
                                          const PartitionConstraints& constraints,
                                          const PartitionEnergyParams& params) {
    const std::size_t n = profile.num_blocks();
    const std::size_t kmax = std::min(constraints.max_banks, n);
    std::vector<std::uint64_t> pre_reads(n + 1, 0);
    std::vector<std::uint64_t> pre_writes(n + 1, 0);
    for (std::size_t b = 0; b < n; ++b) {
        pre_reads[b + 1] = pre_reads[b] + profile.counts(b).reads;
        pre_writes[b + 1] = pre_writes[b] + profile.counts(b).writes;
    }
    struct Entry {
        double read_pj;
        double write_pj;
        double leak_pj;
    };
    std::map<std::uint64_t, Entry> by_capacity;
    std::vector<Entry> by_length(n + 1);
    for (std::size_t len = 1; len <= n; ++len) {
        const std::uint64_t cap = MemoryArchitecture::capacity_for(profile.block_size(), len);
        if (!by_capacity.contains(cap)) {
            const SramEnergyModel model(cap);
            by_capacity[cap] = Entry{
                model.read_energy(), model.write_energy(),
                params.runtime_cycles > 0 ? model.leakage_energy(params.runtime_cycles) : 0.0};
        }
        by_length[len] = by_capacity[cap];
    }
    const auto cost = [&](std::size_t i, std::size_t j) {
        const Entry& e = by_length[j - i];
        const auto reads = static_cast<double>(pre_reads[j] - pre_reads[i]);
        const auto writes = static_cast<double>(pre_writes[j] - pre_writes[i]);
        return reads * e.read_pj + writes * e.write_pj + e.leak_pj;
    };

    // dp[k][j]: min cost of blocks [0, j) in exactly k banks.
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<std::vector<double>> dp(kmax + 1, std::vector<double>(n + 1, inf));
    std::vector<std::vector<std::size_t>> parent(kmax + 1, std::vector<std::size_t>(n + 1, 0));
    dp[0][0] = 0.0;
    for (std::size_t k = 1; k <= kmax; ++k) {
        for (std::size_t j = k; j <= n; ++j) {
            for (std::size_t i = k - 1; i < j; ++i) {
                const double cand = dp[k - 1][i] + cost(i, j);
                if (cand < dp[k][j]) {
                    dp[k][j] = cand;
                    parent[k][j] = i;
                }
            }
        }
    }
    const auto total_accesses = static_cast<double>(pre_reads[n] + pre_writes[n]);
    double best_total = inf;
    std::size_t best_k = 1;
    for (std::size_t k = 1; k <= kmax; ++k) {
        const double total = dp[k][n] + total_accesses * bank_select_energy(k);
        if (total < best_total) {
            best_total = total;
            best_k = k;
        }
    }
    std::vector<std::size_t> splits;
    for (std::size_t k = best_k, j = n; k >= 1; --k) {
        j = parent[k][j];
        if (j != 0) splits.push_back(j);
    }
    std::reverse(splits.begin(), splits.end());
    auto arch = MemoryArchitecture::from_splits(profile.block_size(), n, splits);
    auto energy = evaluate_partition(arch, profile, params);
    return PartitionSolution{std::move(arch), std::move(energy)};
}

}  // namespace reference

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
        auto arch = MemoryArchitecture::from_splits(profile.block_size(), n, splits);
        auto energy = evaluate_partition(arch, profile, params);
        if (!best || energy.total() < best->energy.total())
            best = PartitionSolution{std::move(arch), std::move(energy)};
    }
    return *best;
}

// ------------------------------------------------------- architecture ----

TEST(MemoryArchitecture, CapacityForRoundsUp) {
    EXPECT_EQ(MemoryArchitecture::capacity_for(256, 3), 1024u);
    EXPECT_EQ(MemoryArchitecture::capacity_for(256, 4), 1024u);
    EXPECT_EQ(MemoryArchitecture::capacity_for(64, 1), kMinBankBytes);  // min clamp
    EXPECT_EQ(kMinBankBytes, 256u);
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

std::vector<std::string> component_names(const EnergyBreakdown& energy) {
    std::vector<std::string> names;
    for (const auto& [name, pj] : energy.components()) names.push_back(name);
    return names;
}

TEST(Evaluate, LeakageOnlyWhenRuntimeGiven) {
    const BlockProfile p = random_profile(8, 3);
    const auto arch = MemoryArchitecture::from_splits(256, 8, {2});
    using Names = std::vector<std::string>;
    PartitionEnergyParams params;
    EXPECT_DOUBLE_EQ(evaluate_monolithic(p, params).component("leakage"), 0.0);
    EXPECT_EQ(component_names(evaluate_partition(arch, p, params)),
              (Names{"bank_access", "bank_select"}));
    params.runtime_cycles = 100000;
    EXPECT_GT(evaluate_monolithic(p, params).component("leakage"), 0.0);
    EXPECT_EQ(component_names(evaluate_partition(arch, p, params)),
              (Names{"bank_access", "bank_select", "leakage"}));
    params.extra_pj_per_access = 1.5;
    EXPECT_EQ(component_names(evaluate_partition(arch, p, params)),
              (Names{"bank_access", "bank_select", "leakage", "remap"}));
    params.runtime_cycles = 0;
    EXPECT_EQ(component_names(evaluate_partition(arch, p, params)),
              (Names{"bank_access", "bank_select", "remap"}));
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

TEST(Solver, AccessSumsReachingTwoToThe53Throw) {
    // The solvers keep their prefix access sums in doubles, exact below
    // 2^53 accesses.
    BlockProfile p(256, 4);
    p.add_counts(0, std::uint64_t{1} << 52, 0);
    p.add_counts(3, 0, (std::uint64_t{1} << 52) - 1);
    EXPECT_NO_THROW(solve_partition_optimal(p, {4}, {}));
    EXPECT_NO_THROW(solve_partition_greedy(p, {4}, {}));
    p.add_counts(1, 0, 1);
    ASSERT_EQ(p.total_accesses(), std::uint64_t{1} << 53);
    for (const bool greedy : {false, true}) {
        try {
            if (greedy)
                solve_partition_greedy(p, {4}, {});
            else
                solve_partition_optimal(p, {4}, {});
            ADD_FAILURE() << "2^53 accesses accepted (greedy " << greedy << ")";
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find("2^53"), std::string::npos) << e.what();
        }
    }
}

// ------------------------------------------------- DP differential test ----

/// A profile of `n` blocks in one of the differential test's families.
BlockProfile dp_profile(const std::string& family, std::size_t n, std::uint64_t seed) {
    BlockProfile p(256, n);
    Rng rng(seed);
    if (family == "random") {
        for (std::size_t b = 0; b < n; ++b) {
            if (rng.next_bool(0.3)) continue;
            p.add_counts(b, rng.next_below(1000), rng.next_below(501));
        }
    } else if (family == "hot-first") {
        // The order frequency clustering leaves: counts fall with the block
        // index, and the long cold tail repeats the same small counts.
        for (std::size_t b = 0; b < n; ++b) {
            const std::uint64_t hot = 200000 / (b + 1);
            p.add_counts(b, hot, hot / 3);
        }
    } else if (family == "all-equal") {
        // Every bank of a given length costs the same: the most ties.
        for (std::size_t b = 0; b < n; ++b) p.add_counts(b, 100, 50);
    } else {
        // Runs of untouched blocks between runs of touched ones; the first
        // profile of each size touches nothing at all.
        bool touched = false;
        for (std::size_t b = 0; b < n;) {
            const std::size_t run = 1 + rng.next_below(std::max<std::size_t>(n / 8, 1));
            for (std::size_t r = 0; r < run && b < n; ++r, ++b)
                if (touched && seed % 4 != 0)
                    p.add_counts(b, rng.next_below(64), rng.next_below(16));
            touched = !touched;
        }
    }
    return p;
}

void expect_same_solution(const PartitionSolution& got, const PartitionSolution& want,
                          const std::string& where) {
    ASSERT_EQ(got.arch.num_banks(), want.arch.num_banks()) << where;
    for (std::size_t b = 0; b < want.arch.num_banks(); ++b) {
        EXPECT_EQ(got.arch.banks()[b].first_block, want.arch.banks()[b].first_block) << where;
        EXPECT_EQ(got.arch.banks()[b].num_blocks, want.arch.banks()[b].num_blocks) << where;
        EXPECT_EQ(got.arch.banks()[b].size_bytes, want.arch.banks()[b].size_bytes) << where;
    }
    ASSERT_EQ(got.energy.components().size(), want.energy.components().size()) << where;
    for (std::size_t c = 0; c < want.energy.components().size(); ++c) {
        EXPECT_EQ(got.energy.components()[c].first, want.energy.components()[c].first) << where;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.energy.components()[c].second),
                  std::bit_cast<std::uint64_t>(want.energy.components()[c].second))
            << where << ", " << want.energy.components()[c].first;
    }
}

class DpReference : public ::testing::TestWithParam<const char*> {};

TEST_P(DpReference, LanedParallelDpMatchesSerialLoopBitForBit) {
    const std::string family = GetParam();
    const std::size_t prior = default_jobs();
    // Every size for every bank budget, with leakage off and on; 4096
    // blocks only as the hybrid flow solves them, with leakage and four
    // banks (the CLI's default budget): the oracle is quadratic.
    struct Case {
        std::size_t n;
        std::size_t max_banks;
        bool leakage;
    };
    std::vector<Case> cases;
    for (const std::size_t n : {1u, 2u, 3u, 5u, 8u, 17u, 64u, 129u, 300u, 600u, 1024u})
        for (std::size_t k = 1; k <= 8; ++k)
            for (const bool leakage : {false, true}) cases.push_back(Case{n, k, leakage});
    cases.push_back(Case{4096, 4, true});
    for (const Case& c : cases) {
        const BlockProfile profile = dp_profile(family, c.n, 1000 * c.n + c.max_banks);
        PartitionEnergyParams params;
        if (c.leakage) params.runtime_cycles = 250000;
        const PartitionSolution want =
            reference::solve_partition_optimal(profile, {c.max_banks}, params);
        for (const std::size_t jobs : {1u, 8u}) {
            set_default_jobs(jobs);
            const std::string where = family + ", " + std::to_string(c.n) + " blocks, " +
                                      std::to_string(c.max_banks) + " banks, leakage " +
                                      (c.leakage ? "on" : "off") + ", jobs " +
                                      std::to_string(jobs);
            expect_same_solution(solve_partition_optimal(profile, {c.max_banks}, params), want,
                                 where);
        }
    }
    set_default_jobs(prior);
}

INSTANTIATE_TEST_SUITE_P(Families, DpReference,
                         ::testing::Values("random", "hot-first", "all-equal", "zero-runs"),
                         [](const auto& info) {
                             std::string name = info.param;
                             std::replace(name.begin(), name.end(), '-', '_');
                             return name;
                         });

TEST(Solver, GreedyHandlesLargeProfiles) {
    const BlockProfile p = random_profile(4096, 81);
    const auto sol = solve_partition_greedy(p, {8}, {});
    EXPECT_LE(sol.arch.num_banks(), 8u);
    EXPECT_EQ(sol.arch.num_blocks(), 4096u);
}

}  // namespace
}  // namespace memopt
