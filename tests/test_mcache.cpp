// Tests for the multi-core coherent cache system: the MSI directory's
// transition table (exhaustive over reachable state x event pairs), the
// sharer-bitset/L1-residency invariants, single-core equivalence with the
// two-level CacheHierarchy, and the determinism contract (bit-identical
// results across replays and at any --jobs).
#include <gtest/gtest.h>

#include <bit>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "cache/cache.hpp"
#include "cache/coherence.hpp"
#include "cache/mcache.hpp"
#include "cache_hierarchy.hpp"
#include "core/workload.hpp"
#include "support/assert.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "trace/io.hpp"
#include "trace/source.hpp"
#include "trace/stream_file.hpp"
#include "trace/synthetic.hpp"

namespace memopt {
namespace {

constexpr std::uint64_t kLineA = 0x1000;
// Line bound of the standalone directories: the tests track a line or two.
constexpr std::size_t kMaxLines = 8;

std::uint64_t bits(std::initializer_list<unsigned> cores) {
    std::uint64_t b = 0;
    for (unsigned c : cores) b |= std::uint64_t{1} << c;
    return b;
}

// ------------------------------------------------ MSI transition table ----
//
// One test per reachable (state, event) pair of the directory's table;
// each checks the next state, the sharer set, and every action field.

TEST(MsiDirectory, InvalidReadMissFetchesAndShares) {
    MsiDirectory dir(4, kMaxLines);
    const CoherenceActions a = dir.on_read_miss(1, kLineA);
    EXPECT_TRUE(a.fetch);
    EXPECT_EQ(a.invalidate, 0u);
    EXPECT_FALSE(a.writeback_owner.has_value());
    EXPECT_EQ(dir.line(kLineA).state, MsiState::Shared);
    EXPECT_EQ(dir.line(kLineA).sharers, bits({1}));
}

TEST(MsiDirectory, InvalidWriteMissFetchesAndOwns) {
    MsiDirectory dir(4, kMaxLines);
    const CoherenceActions a = dir.on_write(2, kLineA);
    EXPECT_TRUE(a.fetch);
    EXPECT_EQ(a.invalidate, 0u);
    EXPECT_FALSE(a.writeback_owner.has_value());
    EXPECT_EQ(dir.line(kLineA).state, MsiState::Modified);
    EXPECT_EQ(dir.line(kLineA).sharers, bits({2}));
    EXPECT_EQ(dir.stats().invalidations, 0u);
}

TEST(MsiDirectory, SharedReadMissAddsSharer) {
    MsiDirectory dir(4, kMaxLines);
    dir.on_read_miss(0, kLineA);
    const CoherenceActions a = dir.on_read_miss(3, kLineA);
    EXPECT_TRUE(a.fetch);
    EXPECT_EQ(a.invalidate, 0u);
    EXPECT_FALSE(a.writeback_owner.has_value());
    EXPECT_EQ(dir.line(kLineA).state, MsiState::Shared);
    EXPECT_EQ(dir.line(kLineA).sharers, bits({0, 3}));
}

TEST(MsiDirectory, SharedHolderWriteUpgradesWithoutFetch) {
    MsiDirectory dir(4, kMaxLines);
    dir.on_read_miss(0, kLineA);
    dir.on_read_miss(1, kLineA);
    const CoherenceActions a = dir.on_write(0, kLineA);
    EXPECT_FALSE(a.fetch);  // the holder already has the data
    EXPECT_EQ(a.invalidate, bits({1}));
    EXPECT_FALSE(a.writeback_owner.has_value());
    EXPECT_EQ(dir.line(kLineA).state, MsiState::Modified);
    EXPECT_EQ(dir.line(kLineA).sharers, bits({0}));
    EXPECT_EQ(dir.stats().upgrades, 1u);
    EXPECT_EQ(dir.stats().invalidations, 1u);
}

TEST(MsiDirectory, SharedNonHolderWriteInvalidatesAllAndFetches) {
    MsiDirectory dir(4, kMaxLines);
    dir.on_read_miss(0, kLineA);
    dir.on_read_miss(1, kLineA);
    const CoherenceActions a = dir.on_write(2, kLineA);
    EXPECT_TRUE(a.fetch);
    EXPECT_EQ(a.invalidate, bits({0, 1}));
    EXPECT_FALSE(a.writeback_owner.has_value());
    EXPECT_EQ(dir.line(kLineA).state, MsiState::Modified);
    EXPECT_EQ(dir.line(kLineA).sharers, bits({2}));
    EXPECT_EQ(dir.stats().upgrades, 0u);
    EXPECT_EQ(dir.stats().invalidations, 2u);
}

TEST(MsiDirectory, ModifiedRemoteReadDowngradesOwner) {
    MsiDirectory dir(4, kMaxLines);
    dir.on_write(0, kLineA);
    const CoherenceActions a = dir.on_read_miss(1, kLineA);
    EXPECT_TRUE(a.fetch);
    EXPECT_EQ(a.invalidate, 0u);  // the owner keeps a clean copy
    ASSERT_TRUE(a.writeback_owner.has_value());
    EXPECT_EQ(*a.writeback_owner, 0u);
    EXPECT_EQ(dir.line(kLineA).state, MsiState::Shared);
    EXPECT_EQ(dir.line(kLineA).sharers, bits({0, 1}));
    EXPECT_EQ(dir.stats().downgrades, 1u);
}

TEST(MsiDirectory, ModifiedRemoteWriteFlushesAndKillsOwner) {
    MsiDirectory dir(4, kMaxLines);
    dir.on_write(0, kLineA);
    const CoherenceActions a = dir.on_write(1, kLineA);
    EXPECT_TRUE(a.fetch);
    EXPECT_EQ(a.invalidate, bits({0}));
    ASSERT_TRUE(a.writeback_owner.has_value());
    EXPECT_EQ(*a.writeback_owner, 0u);
    EXPECT_EQ(dir.line(kLineA).state, MsiState::Modified);
    EXPECT_EQ(dir.line(kLineA).sharers, bits({1}));
    EXPECT_EQ(dir.stats().owner_flushes, 1u);
    EXPECT_EQ(dir.stats().invalidations, 1u);
}

TEST(MsiDirectory, EvictDropsSharerAndInvalidatesWhenLast) {
    MsiDirectory dir(4, kMaxLines);
    dir.on_read_miss(0, kLineA);
    dir.on_read_miss(1, kLineA);
    dir.on_evict(0, kLineA);
    EXPECT_EQ(dir.line(kLineA).state, MsiState::Shared);
    EXPECT_EQ(dir.line(kLineA).sharers, bits({1}));
    dir.on_evict(1, kLineA);
    EXPECT_EQ(dir.line(kLineA).state, MsiState::Invalid);
    EXPECT_EQ(dir.tracked_lines(), 0u);
    EXPECT_EQ(dir.stats().evictions, 2u);
}

TEST(MsiDirectory, ModifiedEvictInvalidatesEntry) {
    MsiDirectory dir(4, kMaxLines);
    dir.on_write(2, kLineA);
    dir.on_evict(2, kLineA);
    EXPECT_EQ(dir.line(kLineA).state, MsiState::Invalid);
    EXPECT_EQ(dir.tracked_lines(), 0u);
}

TEST(MsiDirectory, FlushDowngradesModifiedOwnerInPlace) {
    MsiDirectory dir(4, kMaxLines);
    dir.on_write(1, kLineA);
    dir.on_flush(1, kLineA);
    EXPECT_EQ(dir.line(kLineA).state, MsiState::Shared);
    EXPECT_EQ(dir.line(kLineA).sharers, bits({1}));
}

TEST(MsiDirectory, RejectsBadCoreCounts) {
    EXPECT_THROW(MsiDirectory(0, kMaxLines), Error);
    EXPECT_THROW(MsiDirectory(65, kMaxLines), Error);
    EXPECT_NO_THROW(MsiDirectory(64, kMaxLines));
}

TEST(MsiDirectory, RejectsAZeroLineBound) {
    EXPECT_THROW(MsiDirectory(4, 0), Error);  // no line could be tracked
    EXPECT_NO_THROW(MsiDirectory(4, 1));
}

// --------------------------------------------------- system invariants ----

MultiCoreConfig tiny_config(unsigned cores, unsigned l2_banks = 2) {
    MultiCoreConfig cfg;
    cfg.cores = cores;
    cfg.l2_banks = l2_banks;
    cfg.l1.size_bytes = 512;
    cfg.l1.line_bytes = 32;
    cfg.l1.associativity = 2;
    cfg.l2_bank.size_bytes = 4 * 1024;
    cfg.l2_bank.line_bytes = 32;
    cfg.l2_bank.associativity = 4;
    return cfg;
}

SyntheticSpec sharing_spec(std::size_t n = 20000) {
    SyntheticSpec spec;
    spec.kind = SyntheticKind::ProducerConsumer;
    spec.base.span_bytes = 16 * 1024;
    spec.base.num_accesses = n;
    spec.base.seed = 7;
    spec.shared_bytes = 1024;
    spec.shared_fraction = 0.5;
    return spec;
}

void replay_sharing(MultiCoreCacheSystem& system, std::size_t n = 20000) {
    SyntheticSpec spec = sharing_spec(n);
    spec.cores = system.cores();
    std::vector<std::unique_ptr<TraceSource>> sources;
    for (const SyntheticSpec& core_spec : per_core_specs(spec))
        sources.push_back(std::make_unique<SyntheticSource>(core_spec, 1024));
    system.replay(sources);
}

// The directory's sharer bitsets must agree exactly with L1 residency and
// dirtiness: bit c set iff core c holds the line, and Modified iff the
// (unique) copy is dirty.
void check_directory_matches_l1s(const MultiCoreCacheSystem& system) {
    std::size_t resident = 0;
    for (unsigned c = 0; c < system.cores(); ++c)
        resident += system.l1(c).resident_lines();
    EXPECT_EQ(system.directory().total_sharers(), resident);

    for (const auto& [line, entry] : system.directory().snapshot()) {
        ASSERT_NE(entry.state, MsiState::Invalid);
        ASSERT_NE(entry.sharers, 0u);
        if (entry.state == MsiState::Modified) {
            EXPECT_EQ(std::popcount(entry.sharers), 1);
        }
        for (unsigned c = 0; c < system.cores(); ++c) {
            const bool shares = ((entry.sharers >> c) & 1) != 0;
            const std::optional<bool> dirty = system.l1(c).probe(line);
            EXPECT_EQ(shares, dirty.has_value());
            if (dirty.has_value()) {
                EXPECT_EQ(*dirty, entry.state == MsiState::Modified);
            }
        }
    }
}

TEST(MultiCore, DirectorySharersMatchL1ResidencyUnderContention) {
    MultiCoreCacheSystem system(tiny_config(4));
    replay_sharing(system);
    EXPECT_GT(system.directory().stats().invalidations, 0u);
    EXPECT_GT(system.directory().stats().downgrades, 0u);
    check_directory_matches_l1s(system);
    system.flush();
    // After a flush every surviving copy is clean: no Modified entries.
    for (const auto& [line, entry] : system.directory().snapshot())
        EXPECT_EQ(entry.state, MsiState::Shared) << "line " << line;
    check_directory_matches_l1s(system);
}

TEST(MultiCore, SingleCoreMatchesCacheHierarchy) {
    const MultiCoreConfig cfg = tiny_config(1, 1);
    MultiCoreCacheSystem system(cfg);
    CacheHierarchy hierarchy(cfg.l1, cfg.l2_bank);

    SyntheticSpec spec;
    spec.base.span_bytes = 8 * 1024;
    spec.base.num_accesses = 20000;
    spec.base.seed = 11;

    std::vector<std::unique_ptr<TraceSource>> sources;
    sources.push_back(std::make_unique<SyntheticSource>(spec, 1024));
    system.replay(sources);
    SyntheticSource mirror(spec, 1024);
    hierarchy.replay(mirror);

    // One core, one bank: the coherent machine degenerates to the plain
    // two-level hierarchy, counter for counter.
    EXPECT_EQ(system.l1_totals(), hierarchy.l1().stats());
    EXPECT_EQ(system.l2_totals(), hierarchy.l2().stats());
    EXPECT_EQ(system.traffic().line_fetches, hierarchy.traffic().line_fetches);
    EXPECT_EQ(system.traffic().line_writes, hierarchy.traffic().line_writes);
    // And no coherence messages ever cross a single-core machine.
    EXPECT_EQ(system.directory().stats().messages(), 0u);
    EXPECT_EQ(system.directory().stats().owner_flushes, 0u);
}

TEST(MultiCore, StraddlingAccessTouchesBothLinesOnEveryCore) {
    MultiCoreCacheSystem system(tiny_config(2));
    MemTrace trace;
    MemAccess a;
    a.addr = 30;  // last 2 bytes of line 0, first 2 of line 32
    a.size = 4;
    a.kind = AccessKind::Read;
    trace.add(a);
    const auto shared = std::make_shared<const MemTrace>(std::move(trace));
    std::vector<std::unique_ptr<TraceSource>> sources;
    sources.push_back(std::make_unique<MaterializedSource>(shared));
    sources.push_back(std::make_unique<MaterializedSource>(shared));
    system.replay(sources);
    EXPECT_EQ(system.l1_totals().read_misses + system.l1_totals().read_hits, 4u);
    EXPECT_EQ(system.directory().line(0).sharers, bits({0, 1}));
    EXPECT_EQ(system.directory().line(32).sharers, bits({0, 1}));
}

// An access in the last L1 line of the 64-bit space touches that line
// only: the walk over the lines an access covers must not wrap to line 0.
TEST(MultiCore, TopLineAccessTouchesOneLineOnEveryCore) {
    MultiCoreCacheSystem system(tiny_config(2));
    MemTrace trace;
    trace.add_read(0xFFFFFFFFFFFFFFFCull);
    const auto shared = std::make_shared<const MemTrace>(std::move(trace));
    std::vector<std::unique_ptr<TraceSource>> sources;
    sources.push_back(std::make_unique<MaterializedSource>(shared));
    sources.push_back(std::make_unique<MaterializedSource>(shared));
    system.replay(sources);
    for (unsigned c = 0; c < 2; ++c) EXPECT_EQ(system.l1(c).stats().accesses(), 1u) << c;
    EXPECT_EQ(system.directory().line(0xFFFFFFFFFFFFFFE0ull).sharers, bits({0, 1}));
}

TEST(MultiCore, TopLineAccessMatchesCacheHierarchy) {
    const MultiCoreConfig cfg = tiny_config(1, 1);
    MultiCoreCacheSystem system(cfg);
    CacheHierarchy hierarchy(cfg.l1, cfg.l2_bank);
    MemTrace trace;
    trace.add_read(0x100);
    trace.add_write(0xFFFFFFFFFFFFFFFCull);
    const auto shared = std::make_shared<const MemTrace>(std::move(trace));
    std::vector<std::unique_ptr<TraceSource>> sources;
    sources.push_back(std::make_unique<MaterializedSource>(shared));
    system.replay(sources);
    MaterializedSource mirror(shared);
    hierarchy.replay(mirror);
    EXPECT_EQ(system.l1_totals().accesses(), 2u);
    EXPECT_EQ(system.l1_totals(), hierarchy.l1().stats());
    EXPECT_EQ(system.l2_totals(), hierarchy.l2().stats());
    EXPECT_EQ(system.traffic().line_fetches, hierarchy.traffic().line_fetches);
}

TEST(MultiCore, RejectsInvalidConfigs) {
    MultiCoreConfig cfg = tiny_config(2);
    cfg.l2_bank.line_bytes = 64;  // directory blocks must match the L1 line
    EXPECT_THROW(MultiCoreCacheSystem{cfg}, Error);
    cfg = tiny_config(2);
    cfg.cores = 0;
    EXPECT_THROW(MultiCoreCacheSystem{cfg}, Error);
    // The directory bound divides by the L1 line size, so each of these
    // must fail the L1 geometry check first, never the division.
    cfg = tiny_config(2);
    cfg.l1.line_bytes = 0;
    cfg.l2_bank.line_bytes = 0;
    EXPECT_THROW(MultiCoreCacheSystem{cfg}, Error);
    cfg = tiny_config(2);
    cfg.l1.size_bytes = 500;  // not a power of two
    EXPECT_THROW(MultiCoreCacheSystem{cfg}, Error);
    cfg = tiny_config(2);
    cfg.l1.associativity = 32;  // 16 lines
    EXPECT_THROW(MultiCoreCacheSystem{cfg}, Error);
}

// ------------------------------------------------------- determinism ----

constexpr const char* kSharingSpec =
    "synthetic:producer-consumer,span=16384,n=20000,seed=7,shared-bytes=1024,shared-frac=0.5";

std::string run_and_serialize(const std::string& spec, unsigned cores, std::size_t chunk) {
    MultiCoreCacheSystem system(tiny_config(cores));
    const auto sources = WorkloadRepository::instance().open_core_trace_sources(
        spec, cores, chunk);
    system.replay(sources);
    system.flush();
    std::ostringstream os;
    JsonWriter w(os);
    to_json(w, system);
    return os.str();
}

TEST(MultiCore, BitIdenticalAcrossReplaysAndChunkSizes) {
    const std::string a = run_and_serialize(kSharingSpec, 4, 512);
    EXPECT_EQ(a, run_and_serialize(kSharingSpec, 4, 512));
    // Round-robin arbitration is one access per core per turn, so chunk
    // geometry must not be observable either.
    EXPECT_EQ(a, run_and_serialize(kSharingSpec, 4, 4096));
}

TEST(MultiCore, ProducerConsumerBitIdenticalAtAnyJobCount) {
    // Every source kind. The spec and the .mtsc traces are longer than one
    // 64Ki-access chunk, so at --jobs 8 their first fill runs on the pool,
    // and at 65536 so does every refill. The text trace is short: the cores
    // share one parsed copy of the file.
    const std::string spec =
        "synthetic:producer-consumer,span=16384,n=66000,seed=7,shared-bytes=1024,"
        "shared-frac=0.5";
    SyntheticSource written(parse_synthetic_spec("uniform,span=16384,n=66000,seed=3,write=0.3"));
    SyntheticSource short_text(parse_synthetic_spec("uniform,span=16384,n=6000,seed=3,write=0.3"));
    const std::string text = ::testing::TempDir() + "mcache_jobs.trace";
    const std::string plain = ::testing::TempDir() + "mcache_jobs.mtsc";
    const std::string packed = ::testing::TempDir() + "mcache_jobs_z.mtsc";
    {
        std::ofstream os(text);
        write_trace_text(os, short_text);
    }
    write_trace_stream(plain, written);
    StreamWriteOptions compress;
    compress.compress = true;
    write_trace_stream(packed, written, compress);

    struct Input {
        std::string source;
        bool takes_chunk;  // a .mtsc delivers the blocks it was written with
    };
    const Input inputs[] = {
        {spec, true}, {"matmul", true}, {text, true}, {plain, false}, {packed, false},
    };
    const std::size_t prior = default_jobs();
    for (const Input& input : inputs) {
        for (const std::size_t chunk : {1, 512, 65536}) {
            if (!input.takes_chunk && chunk != 65536) continue;
            set_default_jobs(1);
            const std::string serial = run_and_serialize(input.source, 4, chunk);
            set_default_jobs(8);
            const std::string parallel = run_and_serialize(input.source, 4, chunk);
            EXPECT_EQ(serial, parallel) << input.source << " chunk=" << chunk;
        }
    }
    set_default_jobs(prior);
}

// ----------------------------------------------------- trace plumbing ----

TEST(MultiCore, PerCoreSpecsDecorrelateSeedsAndAssignRoles) {
    SyntheticSpec spec = sharing_spec(100);
    spec.cores = 3;
    const std::vector<SyntheticSpec> fan = per_core_specs(spec);
    ASSERT_EQ(fan.size(), 3u);
    for (unsigned c = 0; c < 3; ++c) {
        EXPECT_EQ(fan[c].core_id, c);
        for (unsigned d = c + 1; d < 3; ++d)
            EXPECT_NE(fan[c].base.seed, fan[d].base.seed);
    }
    // Core 0 produces (writes) into the shared region; the rest consume.
    SyntheticGenerator producer(fan[0]);
    SyntheticGenerator consumer(fan[1]);
    for (int i = 0; i < 100; ++i) {
        const MemAccess p = producer.next();
        if (p.addr < spec.shared_bytes) {
            EXPECT_EQ(p.kind, AccessKind::Write);
        }
        const MemAccess q = consumer.next();
        if (q.addr < spec.shared_bytes) {
            EXPECT_EQ(q.kind, AccessKind::Read);
        }
    }
}

TEST(MultiCore, OpenCoreTraceSourcesKernelFansOut) {
    const auto sources =
        WorkloadRepository::instance().open_core_trace_sources("matmul", 2);
    ASSERT_EQ(sources.size(), 2u);
    TraceChunk a, b;
    ASSERT_TRUE(sources[0]->next(a));
    ASSERT_TRUE(sources[1]->next(b));
    ASSERT_EQ(a.size(), b.size());
    // Identical streams: worst-case sharing.
    EXPECT_TRUE(std::equal(a.addrs.begin(), a.addrs.end(), b.addrs.begin()));
}

TEST(MultiCore, OpenCoreTraceSourcesParsesATextTraceOnce) {
    SyntheticSource generated(parse_synthetic_spec("uniform,span=4096,n=1000,seed=5"));
    const std::string text = ::testing::TempDir() + "mcache_shared.trace";
    {
        std::ofstream os(text);
        write_trace_text(os, generated);
    }
    const auto sources = WorkloadRepository::instance().open_core_trace_sources(text, 4);
    ASSERT_EQ(sources.size(), 4u);
    // Every core replays the one resident copy of the file, so their first
    // chunks view the same addrs column.
    TraceChunk first;
    ASSERT_TRUE(sources[0]->next(first));
    for (std::size_t c = 1; c < sources.size(); ++c) {
        TraceChunk chunk;
        ASSERT_TRUE(sources[c]->next(chunk));
        EXPECT_EQ(chunk.addrs.data(), first.addrs.data()) << "core " << c;
        EXPECT_EQ(chunk.size(), first.size()) << "core " << c;
    }
}

}  // namespace
}  // namespace memopt
