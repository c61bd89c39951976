// Unit and property tests for the cache models.
#include <gtest/gtest.h>

#include <algorithm>

#include "cache/cache.hpp"
#include "cache_hierarchy.hpp"
#include "support/assert.hpp"
#include "trace/source.hpp"
#include "trace/synthetic.hpp"

namespace memopt {
namespace {

CacheConfig small_cache(unsigned assoc = 1, unsigned line = 16, std::uint64_t size = 256) {
    CacheConfig cfg;
    cfg.size_bytes = size;
    cfg.line_bytes = line;
    cfg.associativity = assoc;
    return cfg;
}

// ----------------------------------------------------------- geometry ----

TEST(Cache, RejectsInvalidGeometry) {
    EXPECT_THROW(CacheModel(small_cache(1, 16, 1000)), Error);   // size not pow2
    EXPECT_THROW(CacheModel(small_cache(1, 10, 256)), Error);    // line not pow2
    EXPECT_THROW(CacheModel(small_cache(0, 16, 256)), Error);    // zero assoc
    EXPECT_THROW(CacheModel(small_cache(32, 16, 256)), Error);   // more ways than lines
    EXPECT_NO_THROW(CacheModel(small_cache(16, 16, 256)));       // fully associative
}

TEST(Cache, SetCount) {
    EXPECT_EQ(CacheModel(small_cache(1, 16, 256)).num_sets(), 16u);
    EXPECT_EQ(CacheModel(small_cache(4, 16, 256)).num_sets(), 4u);
}

TEST(Cache, LineBase) {
    CacheModel c(small_cache());
    EXPECT_EQ(c.line_base(0x123), 0x120u);
    EXPECT_EQ(c.line_base(0x120), 0x120u);
}

// ----------------------------------------------------------- behaviour ----

TEST(Cache, ColdMissThenHit) {
    CacheModel c(small_cache());
    const auto miss = c.access(0x100, AccessKind::Read);
    EXPECT_FALSE(miss.hit);
    ASSERT_TRUE(miss.fill_line.has_value());
    EXPECT_EQ(*miss.fill_line, 0x100u);
    EXPECT_FALSE(miss.writeback_line.has_value());
    const auto hit = c.access(0x104, AccessKind::Read);  // same line
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(c.stats().read_hits, 1u);
    EXPECT_EQ(c.stats().read_misses, 1u);
}

TEST(Cache, DirectMappedConflictEvicts) {
    CacheModel c(small_cache(1, 16, 256));  // 16 sets
    c.access(0x000, AccessKind::Read);
    c.access(0x100, AccessKind::Read);  // same set (0x000 + 256)
    EXPECT_FALSE(c.contains(0x000));
    EXPECT_TRUE(c.contains(0x100));
}

TEST(Cache, DirtyEvictionReportsWritebackAddress) {
    CacheModel c(small_cache(1, 16, 256));
    c.access(0x000, AccessKind::Write);
    const auto r = c.access(0x100, AccessKind::Read);
    ASSERT_TRUE(r.writeback_line.has_value());
    EXPECT_EQ(*r.writeback_line, 0x000u);
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, CleanEvictionHasNoWriteback) {
    CacheModel c(small_cache(1, 16, 256));
    c.access(0x000, AccessKind::Read);
    const auto r = c.access(0x100, AccessKind::Read);
    EXPECT_FALSE(r.writeback_line.has_value());
}

TEST(Cache, LruReplacementOrder) {
    CacheModel c(small_cache(2, 16, 64));  // 2 sets, 2 ways
    // Set 0 lines: 0x00, 0x20, 0x40, ... (line 16B, 2 sets -> stride 32)
    c.access(0x00, AccessKind::Read);
    c.access(0x20, AccessKind::Read);
    c.access(0x00, AccessKind::Read);   // touch 0x00: now 0x20 is LRU
    c.access(0x40, AccessKind::Read);   // evicts 0x20
    EXPECT_TRUE(c.contains(0x00));
    EXPECT_FALSE(c.contains(0x20));
    EXPECT_TRUE(c.contains(0x40));
}

TEST(Cache, FlushWritesAllDirtyLinesOnce) {
    CacheModel c(small_cache(2, 16, 128));
    c.access(0x00, AccessKind::Write);
    c.access(0x10, AccessKind::Write);
    c.access(0x20, AccessKind::Read);
    auto dirty = c.flush();
    std::sort(dirty.begin(), dirty.end());
    EXPECT_EQ(dirty, (std::vector<std::uint64_t>{0x00, 0x10}));
    EXPECT_TRUE(c.flush().empty());  // idempotent
}

TEST(Cache, ResetClearsStateAndStats) {
    CacheModel c(small_cache());
    c.access(0x100, AccessKind::Write);
    c.reset();
    EXPECT_FALSE(c.contains(0x100));
    EXPECT_EQ(c.stats().accesses(), 0u);
}

TEST(Cache, StatsAreConsistent) {
    CacheModel c(small_cache(2, 32, 1024));
    const MemTrace trace = materialize_synthetic(
        {.kind = SyntheticKind::Uniform,
         .base = {.span_bytes = 8192, .num_accesses = 5000, .write_fraction = 0.4, .seed = 3}});
    for (std::size_t i = 0; i < trace.size(); ++i) c.access(trace.addrs()[i], trace.kinds()[i]);
    const CacheStats& s = c.stats();
    EXPECT_EQ(s.accesses(), 5000u);
    EXPECT_EQ(s.fills, s.read_misses + s.write_misses);  // write-allocate
    EXPECT_LE(s.writebacks, s.fills);
    EXPECT_GT(s.miss_rate(), 0.0);
    EXPECT_LT(s.miss_rate(), 1.0);
}

// LRU stack property: a larger fully-associative cache never misses more.
class LruInclusion : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LruInclusion, BiggerFullyAssociativeCacheNeverWorse) {
    const MemTrace trace = materialize_synthetic({
        .kind = SyntheticKind::Hotspot,
        .base = {.span_bytes = 16384, .num_accesses = 8000, .write_fraction = 0.3,
                 .seed = GetParam()},
        .num_hotspots = 4,
        .hotspot_bytes = 512,
        .hot_fraction = 0.8,
    });
    std::uint64_t prev_misses = UINT64_MAX;
    for (std::uint64_t size = 256; size <= 4096; size *= 2) {
        CacheConfig cfg;
        cfg.size_bytes = size;
        cfg.line_bytes = 16;
        cfg.associativity = static_cast<unsigned>(size / 16);  // fully associative
        CacheModel c(cfg);
        for (std::size_t i = 0; i < trace.size(); ++i)
            c.access(trace.addrs()[i], trace.kinds()[i]);
        EXPECT_LE(c.stats().misses(), prev_misses) << "size=" << size;
        prev_misses = c.stats().misses();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LruInclusion, ::testing::Values(1, 2, 3, 4, 5));

// ----------------------------------------------------------- hierarchy ----

TEST(Hierarchy, RejectsInconsistentLevels) {
    EXPECT_THROW(CacheHierarchy(small_cache(1, 32, 256), small_cache(1, 16, 1024)), Error);
    EXPECT_THROW(CacheHierarchy(small_cache(1, 16, 1024), small_cache(1, 16, 256)), Error);
}

TEST(Hierarchy, L1HitsNeverReachL2) {
    CacheHierarchy h(small_cache(1, 16, 256), small_cache(4, 32, 4096));
    h.access(0x100, AccessKind::Read);
    const std::uint64_t l2_after_fill = h.l2().stats().accesses();
    h.access(0x104, AccessKind::Read);  // L1 hit
    EXPECT_EQ(h.l2().stats().accesses(), l2_after_fill);
}

TEST(Hierarchy, ReplaySplitsLineStraddlingAccesses) {
    // Regression: replay(TraceSource&) used to ignore chunk.sizes, so an
    // access straddling an L1 line boundary only touched its first line —
    // undercounting misses relative to the byte-accurate replays.
    CacheHierarchy h(small_cache(2, 16, 512), small_cache(4, 32, 4096));
    MemTrace trace;
    MemAccess a;
    a.addr = 14;  // bytes 14..17 cover lines 0 and 16
    a.size = 4;
    a.kind = AccessKind::Read;
    trace.add(a);
    MaterializedSource source(trace);
    h.replay(source);
    EXPECT_EQ(h.l1().stats().read_misses, 2u);
    EXPECT_TRUE(h.l1().contains(0x00));
    EXPECT_TRUE(h.l1().contains(0x10));
}

TEST(Hierarchy, TrafficConservation) {
    CacheHierarchy h(small_cache(2, 16, 512), small_cache(4, 32, 4096));
    const MemTrace trace = materialize_synthetic(
        {.kind = SyntheticKind::Uniform,
         .base = {.span_bytes = 32768, .num_accesses = 20000, .write_fraction = 0.3, .seed = 9}});
    for (std::size_t i = 0; i < trace.size(); ++i) h.access(trace.addrs()[i], trace.kinds()[i]);
    h.flush();
    // Everything that was fetched from memory was either still resident at
    // flush time or had been written back (clean evictions drop data, so
    // fetches >= writes).
    EXPECT_GE(h.traffic().line_fetches, h.traffic().line_writes);
    EXPECT_GT(h.traffic().line_fetches, 0u);
    // L2 sees only L1 miss traffic.
    EXPECT_EQ(h.l2().stats().accesses(),
              h.l1().stats().fills + h.l1().stats().writebacks);
}

}  // namespace
}  // namespace memopt
