// Heterogeneous memory technology tests: per-technology energy identities,
// BankPool parsing, gating residency replay (including the sleepy-bank
// study's drowsy-SRAM contracts and the rejection of backward cycles),
// assignment DP behavior, the static objective as the ungated all-SRAM
// case of the hybrid evaluation, the component list of a hybrid report,
// the heat rank, the back-to-back pool evaluation / jobs-invariance
// determinism contracts, and the hybrid-pool affinity path.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "energy/tech_model.hpp"
#include "partition/evaluate.hpp"
#include "partition/hybrid.hpp"
#include "support/assert.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "trace/source.hpp"
#include "trace/synthetic.hpp"

namespace memopt {
namespace {

// Two hot 4-block regions accessed in alternating bursts with long idle
// gaps — the shape that makes gating matter.
MemTrace bursty_trace(std::uint64_t gap_cycles, int bursts = 10) {
    MemTrace t;
    std::uint64_t cycle = 0;
    for (int burst = 0; burst < bursts; ++burst) {
        const std::uint64_t base = burst % 2 == 0 ? 0 : 4096;
        for (int i = 0; i < 50; ++i) {
            t.add(MemAccess{.addr = base + static_cast<std::uint64_t>(i % 256) * 4,
                            .cycle = cycle, .size = 4,
                            .kind = i % 4 == 0 ? AccessKind::Write : AccessKind::Read});
            cycle += 2;
        }
        cycle += gap_cycles;
    }
    return t;
}

// ------------------------------------------------------- technologies ----

TEST(TechModel, NamesRoundTrip) {
    for (MemTechnology tech : {MemTechnology::Sram, MemTechnology::Edram,
                               MemTechnology::SttMram, MemTechnology::DrowsySram})
        EXPECT_EQ(parse_technology(technology_name(tech)), tech);
    EXPECT_FALSE(parse_technology("dram").has_value());
    EXPECT_FALSE(parse_technology("").has_value());
}

TEST(TechModel, SramIsBitIdenticalToLegacyModel) {
    for (std::uint64_t size : {256u, 4096u, 131072u}) {
        const SramEnergyModel legacy(size);
        const TechEnergyModel tech(MemTechnology::Sram, size);
        // Exact equality, not near: the SRAM branch copies the SRAM values
        // and leaks by the same expression, it does not multiply by 1.0.
        EXPECT_EQ(tech.read_energy(), legacy.read_energy());
        EXPECT_EQ(tech.write_energy(), legacy.write_energy());
        EXPECT_EQ(tech.leakage_pw(), legacy.leakage_pw());
        EXPECT_EQ(tech.leakage_energy(12345), legacy.leakage_energy(12345));
        EXPECT_EQ(tech.refresh_energy(12345), 0.0);
    }
}

TEST(TechModel, SttMramReadWriteAsymmetry) {
    const SramEnergyModel sram(4096);
    const TechEnergyModel stt(MemTechnology::SttMram, 4096);
    // Reads slightly above SRAM, writes several times a read, leakage near
    // zero, and the gate is perfect (non-volatile cell).
    EXPECT_GT(stt.read_energy(), sram.read_energy());
    EXPECT_LT(stt.read_energy(), 1.5 * sram.read_energy());
    EXPECT_GT(stt.write_energy(), 4.0 * stt.read_energy());
    EXPECT_LT(stt.leakage_pw(), 0.05 * sram.leakage_pw());
    EXPECT_EQ(stt.gated_leakage_energy(100000), 0.0);
}

TEST(TechModel, EdramRefreshScalesWithPoweredCycles) {
    const TechEnergyModel edram(MemTechnology::Edram, 4096);
    const double one = edram.refresh_energy(1000);
    EXPECT_GT(one, 0.0);
    EXPECT_DOUBLE_EQ(edram.refresh_energy(2000), 2.0 * one);
    EXPECT_DOUBLE_EQ(edram.refresh_energy(0), 0.0);
    // Refresh power scales with the array size (per-byte sweep).
    const TechEnergyModel big(MemTechnology::Edram, 8192);
    EXPECT_DOUBLE_EQ(big.refresh_energy(1000), 2.0 * one);
    // Static technologies never refresh.
    EXPECT_EQ(TechEnergyModel(MemTechnology::SttMram, 4096).refresh_energy(1000), 0.0);
    EXPECT_EQ(TechEnergyModel(MemTechnology::DrowsySram, 4096).refresh_energy(1000), 0.0);
}

TEST(TechModel, DrowsyMatchesSleepMachineryConstants) {
    const TechEnergyModel drowsy(MemTechnology::DrowsySram, 4096);
    const SramEnergyModel sram(4096);
    // Access and standby energy are plain SRAM; only the gate differs.
    EXPECT_EQ(drowsy.read_energy(), sram.read_energy());
    EXPECT_EQ(drowsy.leakage_pw(), sram.leakage_pw());
    // The drowsy state is the sleepy-bank design point of E10 and
    // `fault --drowsy`: 8% residual leakage, 40 pJ wake, retentive.
    EXPECT_DOUBLE_EQ(drowsy.factors().gate_leak_factor, 0.08);
    EXPECT_DOUBLE_EQ(drowsy.gate_wake_energy(), 40.0);
}

// ----------------------------------------------------------- bank pool ----

TEST(BankPool, ParsesSpecGrammar) {
    const BankPool pool = BankPool::parse("sram=2,sttmram=6");
    ASSERT_EQ(pool.num_slots(), 2u);
    EXPECT_EQ(pool.slots()[0].tech, MemTechnology::Sram);
    EXPECT_EQ(pool.slots()[0].count, 2u);
    EXPECT_EQ(pool.slots()[1].tech, MemTechnology::SttMram);
    EXPECT_EQ(pool.slots()[1].count, 6u);
    EXPECT_EQ(pool.total_banks(), 8u);
    EXPECT_EQ(pool.to_string(), "sram=2,sttmram=6");

    const BankPool unbounded = BankPool::parse("edram");
    EXPECT_EQ(unbounded.slots()[0].count, BankPool::kUnbounded);
    EXPECT_EQ(unbounded.to_string(), "edram");
    EXPECT_EQ(BankPool::parse(" sram = 2 , drowsy ").to_string(), "sram=2,drowsy");
}

TEST(BankPool, RejectsBadSpecs) {
    EXPECT_THROW(BankPool::parse(""), Error);
    EXPECT_THROW(BankPool::parse("sram,,edram"), Error);
    EXPECT_THROW(BankPool::parse("flash=2"), Error);
    EXPECT_THROW(BankPool::parse("sram=0"), Error);
    EXPECT_THROW(BankPool::parse("sram=x"), Error);
}

// ------------------------------------------------------ gating replay ----

TEST(HybridGating, GatedBankChargesZeroDynamicEnergy) {
    const MemTrace trace = bursty_trace(5000);
    MaterializedSource source(trace);
    const BlockProfile profile = BlockProfile::from_source(source, 1024);
    // Bank 1 covers only the cold tail past both hot regions: never
    // accessed, gated for essentially the whole run.
    const auto arch =
        MemoryArchitecture::from_splits(1024, profile.num_blocks(), {profile.num_blocks() - 1});
    const AddressMap map = AddressMap::identity(1024, profile.num_blocks());
    HybridGatingParams gating;
    gating.idle_cycles = 100;
    const auto activity = replay_bank_activity(arch, map, source, gating);
    ASSERT_EQ(activity.size(), 2u);

    const std::size_t cold = activity[0].accesses() == 0 ? 0 : 1;
    EXPECT_EQ(activity[cold].accesses(), 0u);
    EXPECT_EQ(activity[cold].wakeups, 0u);
    EXPECT_GT(activity[cold].gated_cycles, 9u * activity[cold].active_cycles);

    const HybridReport report = evaluate_partition_hybrid(
        arch, {MemTechnology::Sram, MemTechnology::Sram}, activity, {}, gating);
    EXPECT_EQ(report.banks[cold].access_pj, 0.0);
    EXPECT_EQ(report.banks[cold].wakeup_pj, 0.0);
    EXPECT_GT(report.banks[cold].gated_pj, 0.0);  // residual gate leakage only
    // A perfectly-gated technology charges nothing at all while dark.
    const HybridReport stt = evaluate_partition_hybrid(
        arch, {MemTechnology::Sram, MemTechnology::SttMram}, activity, {}, gating);
    EXPECT_EQ(stt.banks[cold].gated_pj, 0.0);
}

TEST(HybridGating, ResidencyIsConsistent) {
    const MemTrace trace = bursty_trace(3000);
    MaterializedSource source(trace);
    const BlockProfile profile = BlockProfile::from_source(source, 1024);
    const auto arch = MemoryArchitecture::from_splits(1024, profile.num_blocks(), {4});
    const AddressMap map = AddressMap::identity(1024, profile.num_blocks());
    HybridGatingParams gating;
    gating.idle_cycles = 200;
    const auto activity = replay_bank_activity(arch, map, source, gating);

    const std::uint64_t end = trace.cycles().back() + 1;
    std::uint64_t accesses = 0;
    for (const BankActivity& a : activity) {
        EXPECT_EQ(a.total_cycles(), end);  // active + gated partition the run
        accesses += a.accesses();
    }
    EXPECT_EQ(accesses, trace.size());

    // Gating disabled: every cycle is active, nothing wakes.
    HybridGatingParams off;
    off.idle_cycles = 0;
    for (const BankActivity& a : replay_bank_activity(arch, map, source, off)) {
        EXPECT_EQ(a.gated_cycles, 0u);
        EXPECT_EQ(a.wakeups, 0u);
        EXPECT_EQ(a.active_cycles, end);
    }
}

TEST(HybridGating, BackwardCyclesThrowNamingTheAccess) {
    MemTrace trace;
    for (const std::uint64_t cycle : {10u, 5u, 20u})
        trace.add(MemAccess{.addr = 4 * cycle, .cycle = cycle, .size = 4,
                            .kind = AccessKind::Read});
    const auto arch = MemoryArchitecture::monolithic(1024, 1);
    const AddressMap map = AddressMap::identity(1024, 1);
    // The index is the access's position in the trace, not in its chunk.
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{4096}}) {
        MaterializedSource source(trace, chunk);
        try {
            replay_bank_activity(arch, map, source, HybridGatingParams{});
            ADD_FAILURE() << "backward cycles accepted (chunk " << chunk << ")";
        } catch (const Error& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("access 1 "), std::string::npos) << what;
            EXPECT_NE(what.find("cycle 5,"), std::string::npos) << what;
            EXPECT_NE(what.find("cycle 10 "), std::string::npos) << what;
        }
    }

    // Batches of several chunks, each folded on its own task: 2^17 accesses
    // in 1000-access chunks at eight jobs give batches of two chunks, so
    // chunks 4 and 5 share a batch. Cycles count up by one.
    const std::size_t prior = default_jobs();
    set_default_jobs(8);
    const auto replay_error = [&](std::uint64_t backward_at, std::uint64_t outside_at) {
        MemTrace long_trace;
        for (std::uint64_t i = 0; i < (std::uint64_t{1} << 17); ++i)
            long_trace.add(MemAccess{.addr = i == outside_at ? 1024 : 4 * (i % 256),
                                     .cycle = i == backward_at ? i - 2 : i,
                                     .size = 4,
                                     .kind = AccessKind::Read});
        MaterializedSource source(long_trace, 1000);
        try {
            replay_bank_activity(arch, map, source, HybridGatingParams{});
        } catch (const Error& e) {
            return std::string(e.what());
        }
        return std::string("accepted");
    };
    const std::uint64_t none = std::numeric_limits<std::uint64_t>::max();
    // A backward cycle on the boundary between the batch's two chunks.
    EXPECT_EQ(replay_error(5000, none),
              "replay_bank_activity: access 5000 is at cycle 4998, before the previous "
              "access's cycle 4999 (trace cycles must be non-decreasing)");
    // An out-of-span access in the batch's first chunk comes before a
    // backward cycle in its second, as in an access-by-access replay.
    EXPECT_EQ(replay_error(5500, 4500), "map_addr: address outside mapped span");
    EXPECT_EQ(replay_error(4500, 5500),
              "replay_bank_activity: access 4500 is at cycle 4498, before the previous "
              "access's cycle 4499 (trace cycles must be non-decreasing)");
    set_default_jobs(prior);
}

// ---------------------------------------------------------- sleepy banks ----
//
// The leakage-aware study: every bank drowsy SRAM under the default gating
// controller (bench/e10_sleep_ablation).

HybridReport drowsy_report(const MemoryArchitecture& arch, const AddressMap& map,
                           TraceSource& source, const PartitionEnergyParams& params,
                           const HybridGatingParams& gating) {
    const std::vector<MemTechnology> drowsy(arch.num_banks(), MemTechnology::DrowsySram);
    return evaluate_partition_hybrid(arch, drowsy,
                                     replay_bank_activity(arch, map, source, gating), params,
                                     gating);
}

TEST(SleepyBanks, IdleBanksSleepAndWake) {
    const MemTrace trace = bursty_trace(5000);
    MaterializedSource source(trace);
    const BlockProfile profile = BlockProfile::from_source(source, 1024);
    // Two banks: blocks [0,1) and [1, N).
    const auto arch = MemoryArchitecture::from_splits(1024, profile.num_blocks(), {1});
    const AddressMap map = AddressMap::identity(1024, profile.num_blocks());
    HybridGatingParams gating;
    gating.idle_cycles = 500;
    const HybridReport report = drowsy_report(arch, map, source, {}, gating);
    // Each bank is touched by 5 bursts: it must wake repeatedly.
    EXPECT_GE(report.total_wakeups(), 8u);
    EXPECT_GT(report.energy.component("wakeup"), 0.0);
    EXPECT_GT(report.energy.component("leakage"), 0.0);
    // Every access is accounted to some bank.
    std::uint64_t accesses = 0;
    for (const HybridBankReport& b : report.banks) accesses += b.activity.accesses();
    EXPECT_EQ(accesses, trace.size());
}

TEST(SleepyBanks, SleepCutsLeakageVersusAlwaysOn) {
    const MemTrace trace = bursty_trace(20000);
    MaterializedSource source(trace);
    const BlockProfile profile = BlockProfile::from_source(source, 1024);
    const auto arch = MemoryArchitecture::from_splits(1024, profile.num_blocks(), {1});
    const AddressMap map = AddressMap::identity(1024, profile.num_blocks());

    HybridGatingParams sleepy;
    sleepy.idle_cycles = 300;
    HybridGatingParams never;
    never.idle_cycles = 0;
    const EnergyBreakdown gated = drowsy_report(arch, map, source, {}, sleepy).energy;
    const EnergyBreakdown ungated = drowsy_report(arch, map, source, {}, never).energy;
    EXPECT_LT(gated.component("leakage") + gated.component("gated_leakage"),
              0.5 * ungated.component("leakage"));
}

TEST(SleepyBanks, RemapChargedPerAccess) {
    const MemTrace trace = bursty_trace(1000);
    MaterializedSource source(trace);
    const BlockProfile profile = BlockProfile::from_source(source, 1024);
    const auto arch = MemoryArchitecture::monolithic(1024, profile.num_blocks());
    const AddressMap map = AddressMap::identity(1024, profile.num_blocks());
    PartitionEnergyParams params;
    params.extra_pj_per_access = 2.0;
    const HybridReport report = drowsy_report(arch, map, source, params, {});
    EXPECT_DOUBLE_EQ(report.energy.component("remap"), 2.0 * trace.size());
}

TEST(SleepyBanks, ValidatesInputs) {
    const MemTrace trace = bursty_trace(100);
    MaterializedSource source(trace);
    const BlockProfile profile = BlockProfile::from_source(source, 1024);
    const auto arch = MemoryArchitecture::monolithic(1024, profile.num_blocks());
    const AddressMap wrong = AddressMap::identity(1024, profile.num_blocks() + 1);
    EXPECT_THROW(replay_bank_activity(arch, wrong, source, {}), Error);
    const AddressMap ok = AddressMap::identity(1024, profile.num_blocks());
    const MemTrace empty;
    MaterializedSource empty_source(empty);
    EXPECT_THROW(replay_bank_activity(arch, ok, empty_source, {}), Error);
    HybridGatingParams bad;
    bad.gate_leak_scale = -1.0;
    EXPECT_THROW(replay_bank_activity(arch, ok, source, bad), Error);
}

// ------------------------------------------------- legacy bit-identity ----

// evaluate_partition prices the profile's per-bank counts as every bank
// SRAM, powered for runtime_cycles, never gated. An ungated replay over the
// same window yields exactly that activity, so both reports agree bit for
// bit.
TEST(HybridIdentity, AllSramUngatedReplayMatchesLegacyBitForBit) {
    const MemTrace trace = bursty_trace(1000);
    MaterializedSource source(trace);
    const BlockProfile profile = BlockProfile::from_source(source, 1024);
    const auto arch = MemoryArchitecture::from_splits(1024, profile.num_blocks(), {2, 5});
    const AddressMap map = AddressMap::identity(1024, profile.num_blocks());
    PartitionEnergyParams params;
    params.runtime_cycles = trace.cycles().back() + 1;

    HybridGatingParams off;
    off.idle_cycles = 0;
    const auto activity =
        replay_bank_activity(arch, map, source, off, params.runtime_cycles);
    ASSERT_EQ(activity.size(), arch.num_banks());
    for (std::size_t k = 0; k < arch.num_banks(); ++k) {
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
        for (std::size_t b = arch.banks()[k].first_block; b < arch.banks()[k].end_block(); ++b) {
            reads += profile.counts(b).reads;
            writes += profile.counts(b).writes;
        }
        EXPECT_EQ(activity[k].reads, reads) << "bank " << k;
        EXPECT_EQ(activity[k].writes, writes) << "bank " << k;
        EXPECT_EQ(activity[k].active_cycles, params.runtime_cycles) << "bank " << k;
        EXPECT_EQ(activity[k].gated_cycles, 0u) << "bank " << k;
        EXPECT_EQ(activity[k].wakeups, 0u) << "bank " << k;
    }
    const std::vector<MemTechnology> sram(arch.num_banks(), MemTechnology::Sram);
    const HybridReport report =
        evaluate_partition_hybrid(arch, sram, activity, params, off);

    const EnergyBreakdown legacy = evaluate_partition(arch, profile, params);
    for (const char* component : {"bank_access", "bank_select", "leakage"})
        EXPECT_EQ(report.energy.component(component), legacy.component(component))
            << component;
}

std::vector<std::string> component_names(const EnergyBreakdown& energy) {
    std::vector<std::string> names;
    for (const auto& [name, pj] : energy.components()) names.push_back(name);
    return names;
}

// Which components a hybrid report holds, and in which order: "leakage"
// whenever a bank was powered, "gated_leakage" and "wakeup" whenever gating
// is on (even at 0 pJ), "refresh" only when it is above 0.
TEST(HybridIdentity, ComponentsInOrder) {
    const MemTrace trace = bursty_trace(1000);
    MaterializedSource source(trace);
    const BlockProfile profile = BlockProfile::from_source(source, 1024);
    const auto arch = MemoryArchitecture::from_splits(1024, profile.num_blocks(), {2});
    const AddressMap map = AddressMap::identity(1024, profile.num_blocks());
    const std::vector<MemTechnology> sram(arch.num_banks(), MemTechnology::Sram);
    const std::vector<MemTechnology> edram(arch.num_banks(), MemTechnology::Edram);
    PartitionEnergyParams remap;
    remap.extra_pj_per_access = 1.5;

    HybridGatingParams off;
    off.idle_cycles = 0;
    const auto ungated = replay_bank_activity(arch, map, source, off);
    using Names = std::vector<std::string>;
    EXPECT_EQ(component_names(evaluate_partition_hybrid(arch, sram, ungated, {}, off).energy),
              (Names{"bank_access", "bank_select", "leakage"}));
    EXPECT_EQ(
        component_names(evaluate_partition_hybrid(arch, sram, ungated, remap, off).energy),
        (Names{"bank_access", "bank_select", "leakage", "remap"}));
    EXPECT_EQ(component_names(evaluate_partition_hybrid(arch, edram, ungated, {}, off).energy),
              (Names{"bank_access", "bank_select", "leakage", "refresh"}));

    const HybridGatingParams on;
    const auto gated = replay_bank_activity(arch, map, source, on);
    EXPECT_EQ(component_names(evaluate_partition_hybrid(arch, sram, gated, {}, on).energy),
              (Names{"bank_access", "bank_select", "leakage", "gated_leakage", "wakeup"}));
    EXPECT_EQ(component_names(evaluate_partition_hybrid(arch, edram, gated, remap, on).energy),
              (Names{"bank_access", "bank_select", "leakage", "refresh", "gated_leakage",
                     "wakeup", "remap"}));
}

// -------------------------------------------------------- assignment ----

TEST(HybridAssignment, RespectsPoolCountsAndPrefersCheapTech) {
    const MemTrace trace = bursty_trace(5000);
    FlowParams fp;
    fp.block_size = 1024;
    fp.constraints.max_banks = 8;
    fp.energy.runtime_cycles = trace.cycles().back() + 1;
    const MemoryOptimizationFlow flow(fp);

    const BankPool pool = BankPool::parse("sram=1,sttmram=7");
    MaterializedSource source(trace);
    const auto result = flow.run_hybrid(source, ClusterMethod::Frequency, pool);
    std::size_t sram_banks = 0;
    for (const HybridBankReport& bank : result.report.banks)
        if (bank.tech == MemTechnology::Sram) ++sram_banks;
    EXPECT_LE(sram_banks, 1u);
    EXPECT_EQ(result.report.banks.size(), result.base.solution.arch.num_banks());
    // heat_rank is a permutation of [0, num_banks).
    std::vector<bool> seen(result.report.banks.size(), false);
    for (const HybridBankReport& bank : result.report.banks) {
        ASSERT_LT(bank.heat_rank, seen.size());
        seen[bank.heat_rank] = true;
    }
    for (bool s : seen) EXPECT_TRUE(s);
}

/// The heat rank as a physical profile gives it: each bank's accesses per
/// byte of capacity, hottest first, density ties to the lower bank index.
std::vector<std::size_t> profile_heat_rank(const MemoryArchitecture& arch,
                                           const BlockProfile& physical) {
    std::vector<double> heat;
    for (const Bank& bank : arch.banks()) {
        std::uint64_t accesses = 0;
        for (std::size_t b = bank.first_block; b < bank.end_block(); ++b)
            accesses += physical.counts(b).total();
        heat.push_back(static_cast<double>(accesses) / static_cast<double>(bank.size_bytes));
    }
    std::vector<std::size_t> order(heat.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return heat[a] > heat[b]; });
    std::vector<std::size_t> rank(heat.size());
    for (std::size_t r = 0; r < order.size(); ++r) rank[order[r]] = r;
    return rank;
}

TEST(HybridAssignment, HeatRankIsTheProfileDensityRank) {
    // Blocks 0 and 7 take 300 accesses each, blocks 2 and 5 take 40 each,
    // and the rest one each.
    MemTrace trace;
    std::uint64_t cycle = 0;
    const auto touch = [&](std::uint64_t block, int times) {
        for (int i = 0; i < times; ++i)
            trace.add(MemAccess{.addr = block * 1024 + static_cast<std::uint64_t>(i % 64) * 4,
                                .cycle = cycle += 3, .size = 4,
                                .kind = i % 3 == 0 ? AccessKind::Write : AccessKind::Read});
    };
    for (int round = 0; round < 10; ++round) {
        touch(0, 30);
        touch(7, 30);
        touch(round % 2 == 0 ? 2 : 5, 8);
    }
    for (const std::uint64_t block : {1u, 3u, 4u, 6u}) touch(block, 1);

    FlowParams fp;
    fp.block_size = 1024;
    fp.constraints.max_banks = 4;
    fp.energy.runtime_cycles = cycle + 1;
    const MemoryOptimizationFlow flow(fp);
    MaterializedSource source(trace);
    const BlockProfile profile = BlockProfile::from_source(source, fp.block_size);
    for (const ClusterMethod method : {ClusterMethod::None, ClusterMethod::Frequency}) {
        const HybridFlowResult result =
            flow.run_hybrid(source, method, BankPool::parse("sram=2,sttmram=6"));
        const std::vector<std::size_t> want =
            profile_heat_rank(result.base.solution.arch, result.base.map.apply(profile));
        // Unclustered, the banks are [0,1), [1,3), [3,7) and [7,8): the two
        // 1 KiB banks of the hot blocks tie, and the lower index wins.
        if (method == ClusterMethod::None) {
            ASSERT_EQ(want, (std::vector<std::size_t>{0, 2, 3, 1}));
        }
        ASSERT_EQ(result.report.banks.size(), want.size());
        for (std::size_t b = 0; b < want.size(); ++b)
            EXPECT_EQ(result.report.banks[b].heat_rank, want[b])
                << cluster_method_name(method) << ", bank " << b;
    }
}

TEST(HybridAssignment, FreeMixNeverLosesToHomogeneous) {
    const MemTrace trace = bursty_trace(4000);
    FlowParams fp;
    fp.block_size = 1024;
    fp.constraints.max_banks = 6;
    fp.energy.runtime_cycles = trace.cycles().back() + 1;
    const MemoryOptimizationFlow flow(fp);

    MaterializedSource source(trace);
    const double mix =
        flow.run_hybrid(source, ClusterMethod::Frequency,
                        BankPool::parse("sram,edram,sttmram,drowsy")).total();
    for (const char* name : {"sram", "edram", "sttmram", "drowsy"}) {
        const double homog =
            flow.run_hybrid(source, ClusterMethod::Frequency,
                            BankPool::homogeneous(parse_technology(name).value())).total();
        EXPECT_LE(mix, homog * (1.0 + 1e-12)) << name;
    }
}

TEST(HybridAssignment, PoolCapsBankCount) {
    const MemTrace trace = bursty_trace(2000);
    FlowParams fp;
    fp.block_size = 1024;
    fp.constraints.max_banks = 8;
    const MemoryOptimizationFlow flow(fp);
    MaterializedSource source(trace);
    const auto result =
        flow.run_hybrid(source, ClusterMethod::Frequency, BankPool::parse("edram=2"));
    EXPECT_LE(result.base.solution.arch.num_banks(), 2u);
}

// ------------------------------------------------------- determinism ----

TEST(HybridDeterminism, BackToBackPoolEvaluationsAreIndependent) {
    // Regression for stale gating/residency state: evaluating pool B right
    // after pool A on the same source must match evaluating pool B on a
    // fresh source (the replay resets the source and keeps no globals).
    const MemTrace trace = bursty_trace(3000);
    FlowParams fp;
    fp.block_size = 1024;
    fp.constraints.max_banks = 6;
    fp.energy.runtime_cycles = trace.cycles().back() + 1;
    const MemoryOptimizationFlow flow(fp);

    MaterializedSource shared(trace);
    const auto first =
        flow.run_hybrid(shared, ClusterMethod::Frequency, BankPool::parse("sram"));
    const auto second = flow.run_hybrid(shared, ClusterMethod::Frequency,
                                        BankPool::parse("sram=1,sttmram=7"));

    MaterializedSource fresh(trace);
    const auto alone = flow.run_hybrid(fresh, ClusterMethod::Frequency,
                                       BankPool::parse("sram=1,sttmram=7"));
    EXPECT_EQ(second.total(), alone.total());
    ASSERT_EQ(second.report.banks.size(), alone.report.banks.size());
    for (std::size_t b = 0; b < alone.report.banks.size(); ++b) {
        EXPECT_EQ(second.report.banks[b].tech, alone.report.banks[b].tech);
        EXPECT_EQ(second.report.banks[b].activity.gated_cycles,
                  alone.report.banks[b].activity.gated_cycles);
        EXPECT_EQ(second.report.banks[b].activity.wakeups,
                  alone.report.banks[b].activity.wakeups);
    }
    // And the first run was not disturbed by having had a different pool.
    MaterializedSource fresh_first(trace);
    EXPECT_EQ(first.total(),
              flow.run_hybrid(fresh_first, ClusterMethod::Frequency, BankPool::parse("sram"))
                  .total());
}

TEST(HybridDeterminism, JobsInvariance1vs8) {
    // Batch hybrid evaluation across traces must be bit-identical at any
    // job count (parallel_map with in-order reduction; each evaluation is
    // sequential inside).
    std::vector<MemTrace> traces;
    for (int i = 0; i < 6; ++i) traces.push_back(bursty_trace(1000 + 700 * i));
    FlowParams fp;
    fp.block_size = 1024;
    fp.constraints.max_banks = 6;
    const MemoryOptimizationFlow flow(fp);
    const BankPool pool = BankPool::parse("sram=2,edram=2,sttmram=4");

    const auto eval = [&](const MemTrace& trace) {
        MaterializedSource source(trace);
        return flow.run_hybrid(source, ClusterMethod::Frequency, pool).total();
    };
    const std::vector<double> serial =
        parallel_map(std::span<const MemTrace>(traces), eval, 1);
    const std::vector<double> parallel =
        parallel_map(std::span<const MemTrace>(traces), eval, 8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]) << "trace " << i;
}

// --------------------------------------------- hybrid pool, affinity ----
//
// run_hybrid over ClusterMethod::Affinity: the flow profiles the trace,
// builds its windowed affinity, clusters, splits over the pool, replays for
// gating and assigns technologies. 4096 blocks of 256 B put the affinity
// pairs in key-partitioned tables.

constexpr const char* kHotspotSpec =
    "hotspot,span=1048576,n=100000,seed=3,hotspots=8,hotspot-bytes=1024,hot-frac=0.9";

FlowParams affinity_pool_params() {
    FlowParams fp;
    fp.constraints.max_banks = 4;  // memopt_cli partition's default
    return fp;
}

HybridFlowResult run_affinity_pool(TraceSource& source, std::size_t jobs) {
    const std::size_t prior = default_jobs();
    set_default_jobs(jobs);
    HybridFlowResult result = MemoryOptimizationFlow(affinity_pool_params())
                                  .run_hybrid(source, ClusterMethod::Affinity,
                                              BankPool::parse("sram=2,sttmram=6"));
    set_default_jobs(prior);
    return result;
}

std::string json_of(const HybridFlowResult& result) {
    std::ostringstream os;
    JsonWriter w(os);
    to_json(w, result);
    return os.str();
}

TEST(HybridAffinity, JsonIdenticalAtAnyJobCount) {
    const SyntheticSpec spec = parse_synthetic_spec(kHotspotSpec);
    SyntheticSource serial(spec);
    SyntheticSource parallel(spec);
    EXPECT_EQ(json_of(run_affinity_pool(serial, 1)), json_of(run_affinity_pool(parallel, 8)));
}

TEST(HybridAffinity, JsonIdenticalOverGeneratedAndMaterializedSources) {
    const SyntheticSpec spec = parse_synthetic_spec(kHotspotSpec);
    const MemTrace trace = materialize_synthetic(spec);
    SyntheticSource generated(spec);
    MaterializedSource materialized(trace);
    EXPECT_EQ(json_of(run_affinity_pool(generated, 4)),
              json_of(run_affinity_pool(materialized, 4)));
}

TEST(HybridAffinity, MapIsTheChainOverTheHandBuiltAffinity) {
    const SyntheticSpec spec = parse_synthetic_spec(kHotspotSpec);
    SyntheticSource source(spec);
    const HybridFlowResult result = run_affinity_pool(source, 4);

    const FlowParams fp = affinity_pool_params();
    SyntheticSource replay(spec);
    const BlockProfile profile = BlockProfile::from_source(replay, fp.block_size);
    const AffinityMatrix affinity = windowed_affinity(replay, profile, fp.affinity_window);
    const AddressMap expected = affinity_clustering(profile, affinity, fp.affinity);
    ASSERT_EQ(result.base.map.num_blocks(), expected.num_blocks());
    for (std::size_t b = 0; b < expected.num_blocks(); ++b)
        ASSERT_EQ(result.base.map.map_block(b), expected.map_block(b)) << b;
}

}  // namespace
}  // namespace memopt
