// Seeded differential test of the bank-activity replay
// (partition/hybrid.hpp) against its reference: the eager per-access loop
// that retires gate transitions for every bank on every access, kept here
// verbatim as the obviously-correct oracle. The library folds each chunk
// into per-bank segments on its own task and joins them in trace order
// instead; every BankActivity field must match exactly across trace
// families, gating thresholds, replay windows, address maps, bank splits,
// trace sources, chunk sizes and job counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/address_map.hpp"
#include "cluster/affinity_cluster.hpp"
#include "cluster/frequency.hpp"
#include "partition/bank.hpp"
#include "partition/hybrid.hpp"
#include "support/assert.hpp"
#include "support/parallel.hpp"
#include "trace/affinity.hpp"
#include "trace/profile.hpp"
#include "trace/source.hpp"
#include "trace/stream_file.hpp"
#include "trace/synthetic.hpp"

namespace memopt {
namespace reference {

std::vector<BankActivity> replay_bank_activity(const MemoryArchitecture& arch,
                                               const AddressMap& map, TraceSource& source,
                                               const HybridGatingParams& gating,
                                               std::uint64_t min_total_cycles = 0) {
    const std::size_t num_banks = arch.num_banks();
    std::vector<BankActivity> activity(num_banks);

    struct BankState {
        std::uint64_t last_access = 0;
        std::uint64_t state_since = 0;  // cycle the current power state began
        bool gated = false;
    };
    std::vector<BankState> states(num_banks);

    std::uint64_t now = 0;
    source.reset();
    TraceChunk chunk;
    while (source.next(chunk)) {
        for (std::size_t i = 0; i < chunk.size(); ++i) {
            MEMOPT_ASSERT_MSG(chunk.cycles[i] >= now, "trace cycles must be non-decreasing");
            now = chunk.cycles[i];
            const std::uint64_t phys = map.map_addr(chunk.addrs[i]);
            const std::size_t block = static_cast<std::size_t>(phys / arch.block_size());
            const std::size_t bank = arch.bank_of_block(block);

            if (gating.idle_cycles > 0) {
                // Retire gate transitions for every bank whose idle
                // threshold has passed (the accessed bank must be exact,
                // the rest need the transition point for their own
                // residency split).
                for (std::size_t b = 0; b < num_banks; ++b) {
                    BankState& s = states[b];
                    if (!s.gated && now > s.last_access + gating.idle_cycles) {
                        const std::uint64_t gate_start = s.last_access + gating.idle_cycles;
                        activity[b].active_cycles += gate_start - s.state_since;
                        s.gated = true;
                        s.state_since = gate_start;
                    }
                }
                BankState& s = states[bank];
                if (s.gated) {
                    activity[bank].gated_cycles += now - s.state_since;
                    s.gated = false;
                    s.state_since = now;
                    ++activity[bank].wakeups;
                }
                s.last_access = now;
            }
            if (chunk.kinds[i] == AccessKind::Read)
                ++activity[bank].reads;
            else
                ++activity[bank].writes;
        }
    }

    // Close out every bank at the end of the observation window. The tail
    // beyond the last access is idle time like any other: banks whose
    // threshold passes inside it gate for the remainder.
    const std::uint64_t end = std::max(now + 1, min_total_cycles);
    for (std::size_t b = 0; b < num_banks; ++b) {
        BankState& s = states[b];
        if (gating.idle_cycles > 0 && !s.gated && end > s.last_access + gating.idle_cycles) {
            const std::uint64_t gate_start = s.last_access + gating.idle_cycles;
            activity[b].active_cycles += gate_start - s.state_since;
            s.gated = true;
            s.state_since = gate_start;
        }
        if (s.gated)
            activity[b].gated_cycles += end - s.state_since;
        else
            activity[b].active_cycles += end - s.state_since;
    }
    return activity;
}

}  // namespace reference

namespace {

constexpr std::uint64_t kBlockBytes = 256;

void expect_activity_equal(const std::vector<BankActivity>& got,
                           const std::vector<BankActivity>& want, const std::string& where) {
    ASSERT_EQ(got.size(), want.size()) << where;
    for (std::size_t b = 0; b < want.size(); ++b) {
        EXPECT_EQ(got[b].reads, want[b].reads) << where << ", bank " << b;
        EXPECT_EQ(got[b].writes, want[b].writes) << where << ", bank " << b;
        EXPECT_EQ(got[b].wakeups, want[b].wakeups) << where << ", bank " << b;
        EXPECT_EQ(got[b].active_cycles, want[b].active_cycles) << where << ", bank " << b;
        EXPECT_EQ(got[b].gated_cycles, want[b].gated_cycles) << where << ", bank " << b;
    }
}

/// `banks` near-equal contiguous banks over `num_blocks` blocks.
MemoryArchitecture even_split(std::size_t num_blocks, std::size_t banks) {
    std::vector<std::size_t> splits;
    for (std::size_t j = 1; j < banks; ++j) splits.push_back(num_blocks * j / banks);
    return MemoryArchitecture::from_splits(kBlockBytes, num_blocks, splits);
}

class HybridReplayReference : public ::testing::TestWithParam<const char*> {};

TEST_P(HybridReplayReference, LazySettlementMatchesEagerReplay) {
    const std::string family = GetParam();
    const SyntheticSpec spec =
        parse_synthetic_spec(family + ",span=16384,n=3000,seed=5,write=0.4");
    const MemTrace trace = materialize_synthetic(spec);
    MaterializedSource oracle_source(trace);
    const BlockProfile profile = BlockProfile::from_source(oracle_source, kBlockBytes);
    const std::size_t num_blocks = profile.num_blocks();
    ASSERT_GE(num_blocks, 8u);

    const std::string plain = ::testing::TempDir() + "hybrid_ref_" + family + ".mtsc";
    const std::string packed = ::testing::TempDir() + "hybrid_ref_" + family + "_z.mtsc";
    StreamWriteOptions opts;
    opts.chunk_accesses = 1024;  // several blocks per container
    write_trace_stream(plain, oracle_source, opts);
    opts.compress = true;
    write_trace_stream(packed, oracle_source, opts);

    MaterializedSource one(trace, 1);
    MaterializedSource some(trace, 300);
    MaterializedSource big(trace, std::size_t{1} << 16);
    SyntheticSource synthetic(spec);
    MmapBinarySource mapped(plain);
    MmapBinarySource compressed(packed);
    const std::pair<const char*, TraceSource*> sources[] = {
        {"materialized/1", &one},        {"materialized/300", &some},
        {"materialized/64Ki", &big},     {"synthetic", &synthetic},
        {"mtsc", &mapped},               {"mtsc-compressed", &compressed},
    };

    const AffinityMatrix affinity = windowed_affinity(oracle_source, profile, 8);
    const std::pair<const char*, AddressMap> maps[] = {
        {"identity", AddressMap::identity(kBlockBytes, num_blocks)},
        {"frequency", frequency_clustering(profile)},
        {"affinity", affinity_clustering(profile, affinity)},
    };

    std::vector<std::pair<std::string, HybridGatingParams>> gatings;
    HybridGatingParams off;
    off.idle_cycles = 0;
    gatings.emplace_back("off", off);
    for (const std::uint64_t idle : {1ull, 7ull, 200ull, 1000000ull}) {
        HybridGatingParams g;
        g.idle_cycles = idle;
        gatings.emplace_back("idle " + std::to_string(idle), g);
    }

    const std::uint64_t span = trace.cycles().back() + 1;
    for (const auto& [map_name, map] : maps) {
        for (const std::size_t banks : {1u, 3u, 8u}) {
            const MemoryArchitecture arch = even_split(num_blocks, banks);
            for (const auto& [gating_name, gating] : gatings) {
                for (const std::uint64_t min_total : {std::uint64_t{0}, span, 10 * span}) {
                    const std::vector<BankActivity> want = reference::replay_bank_activity(
                        arch, map, oracle_source, gating, min_total);
                    for (const auto& [source_name, source] : sources) {
                        const std::string where =
                            family + ", " + map_name + " map, " + std::to_string(banks) +
                            " banks, gating " + gating_name + ", min_total " +
                            std::to_string(min_total) + ", " + source_name;
                        expect_activity_equal(
                            replay_bank_activity(arch, map, *source, gating, min_total), want,
                            where);
                    }
                }
            }
        }
    }
    std::remove(plain.c_str());
    std::remove(packed.c_str());
}

INSTANTIATE_TEST_SUITE_P(Families, HybridReplayReference,
                         ::testing::Values("uniform", "hotspot", "stride", "two-phase"),
                         [](const auto& info) {
                             std::string name = info.param;
                             std::replace(name.begin(), name.end(), '-', '_');
                             return name;
                         });

TEST(HybridReplayReferenceFold, SegmentsJoinAcrossChunksAndBatches) {
    // 2^19 accesses are enough for batches of eight chunks at eight jobs,
    // so the per-chunk segments join inside a batch as well as across
    // batches; 1000-access chunks put most joins mid-run.
    const std::size_t prior = default_jobs();
    for (const char* family : {"hotspot", "two-phase"}) {
        const SyntheticSpec spec = parse_synthetic_spec(
            std::string(family) + ",span=65536,n=524288,seed=9,write=0.3");
        const MemTrace trace = materialize_synthetic(spec);
        MaterializedSource oracle_source(trace);
        const BlockProfile profile = BlockProfile::from_source(oracle_source, kBlockBytes);
        const AddressMap map = frequency_clustering(profile);
        const MemoryArchitecture arch = even_split(profile.num_blocks(), 8);

        const std::string file = ::testing::TempDir() + "hybrid_fold_" + family + ".mtsc";
        StreamWriteOptions opts;
        opts.chunk_accesses = 1000;
        write_trace_stream(file, oracle_source, opts);
        MaterializedSource small(trace, 1000);
        MaterializedSource large(trace, std::size_t{1} << 16);
        MmapBinarySource mapped(file);
        const std::pair<const char*, TraceSource*> sources[] = {
            {"materialized/1000", &small}, {"materialized/64Ki", &large}, {"mtsc/1000", &mapped}};

        const std::uint64_t span = trace.cycles().back() + 1;
        for (const std::uint64_t idle : {0ull, 7ull, 200ull, 1000000ull}) {
            HybridGatingParams gating;
            gating.idle_cycles = idle;
            for (const std::uint64_t min_total : {std::uint64_t{0}, 10 * span}) {
                const std::vector<BankActivity> want = reference::replay_bank_activity(
                    arch, map, oracle_source, gating, min_total);
                for (const auto& [source_name, source] : sources) {
                    for (const std::size_t jobs : {1u, 8u}) {
                        set_default_jobs(jobs);
                        const std::string where = std::string(family) + ", idle " +
                                                  std::to_string(idle) + ", min_total " +
                                                  std::to_string(min_total) + ", " +
                                                  source_name + ", jobs " + std::to_string(jobs);
                        expect_activity_equal(
                            replay_bank_activity(arch, map, *source, gating, min_total), want,
                            where);
                    }
                }
            }
        }
        std::remove(file.c_str());
    }
    set_default_jobs(prior);
}

TEST(HybridReplayReferenceSpan, OutOfSpanAddressThrowsLikeTheReference) {
    // Four 256-byte blocks mapped; the third access lies past them.
    MemTrace trace;
    trace.add(MemAccess{.addr = 0, .cycle = 0, .size = 4, .kind = AccessKind::Read});
    trace.add(MemAccess{.addr = 600, .cycle = 3, .size = 4, .kind = AccessKind::Write});
    trace.add(MemAccess{.addr = 4 * kBlockBytes, .cycle = 9, .size = 4,
                        .kind = AccessKind::Read});
    MaterializedSource source(trace);
    const MemoryArchitecture arch = even_split(4, 2);
    const AddressMap map = AddressMap::identity(kBlockBytes, 4);
    HybridGatingParams off;
    off.idle_cycles = 0;
    for (const HybridGatingParams& gating : {HybridGatingParams{}, off}) {
        for (const bool use_reference : {true, false}) {
            try {
                if (use_reference)
                    reference::replay_bank_activity(arch, map, source, gating);
                else
                    replay_bank_activity(arch, map, source, gating);
                ADD_FAILURE() << "out-of-span access accepted";
            } catch (const Error& e) {
                EXPECT_STREQ(e.what(), "map_addr: address outside mapped span");
            }
        }
    }
}

}  // namespace
}  // namespace memopt
