// Unit tests for traces, block profiles, affinity analysis and synthetic
// trace generators.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "core/symbolize.hpp"
#include "support/assert.hpp"
#include "support/bits.hpp"
#include "support/rng.hpp"
#include "trace/affinity.hpp"
#include "trace/profile.hpp"
#include "trace/synthetic.hpp"
#include "sim/kernels.hpp"
#include "trace/io.hpp"
#include "trace/source.hpp"
#include "trace/trace.hpp"

namespace memopt {
namespace {

// ----------------------------------------------------------- MemTrace ----

TEST(MemTrace, CountersTrackAdds) {
    MemTrace t;
    t.add_read(0x100);
    t.add_write(0x200, 1);
    t.add_read(0x104, 2);
    EXPECT_EQ(t.size(), 3u);
    EXPECT_EQ(t.summary().accesses, 3u);
    EXPECT_EQ(t.summary().reads, 2u);
    EXPECT_EQ(t.summary().writes, 1u);
    EXPECT_EQ(t.summary().min_addr, 0x100u);
    EXPECT_EQ(t.summary().max_addr, 0x200u);
}

TEST(MemTrace, SpanIsPow2CoveringMaxByte) {
    MemTrace t;
    t.add_read(1000, 4);  // touches bytes 1000..1003
    EXPECT_EQ(profile_geometry(t.summary(), 1).num_blocks, 1024u);
    t.add_read(1024, 4);
    EXPECT_EQ(profile_geometry(t.summary(), 1).num_blocks, 2048u);
}

TEST(MemTrace, ClearResets) {
    MemTrace t;
    t.add_write(4);
    t.clear();
    EXPECT_TRUE(t.empty());
    EXPECT_TRUE(t.summary() == TraceSummary{});
}

TEST(Pow2Helpers, CeilPow2) {
    EXPECT_EQ(ceil_pow2(0), 1u);
    EXPECT_EQ(ceil_pow2(1), 1u);
    EXPECT_EQ(ceil_pow2(2), 2u);
    EXPECT_EQ(ceil_pow2(3), 4u);
    EXPECT_EQ(ceil_pow2(1024), 1024u);
    EXPECT_EQ(ceil_pow2(1025), 2048u);
}

TEST(Pow2Helpers, IsPow2AndLog2) {
    EXPECT_TRUE(is_pow2(1));
    EXPECT_TRUE(is_pow2(4096));
    EXPECT_FALSE(is_pow2(0));
    EXPECT_FALSE(is_pow2(12));
    EXPECT_EQ(log2_exact(1), 0u);
    EXPECT_EQ(log2_exact(4096), 12u);
}

// ------------------------------------------------------- BlockProfile ----

TEST(BlockProfile, FromTraceCountsPerBlock) {
    MemTrace t;
    t.add_read(0);        // block 0
    t.add_read(255);      // block 0  (byte access at end of block)
    t.add_write(256);     // block 1
    t.add_read(1020);     // block 3
    MaterializedSource src(t);
    const BlockProfile p = BlockProfile::from_source(src, 256);
    EXPECT_EQ(p.num_blocks(), 4u);
    EXPECT_EQ(p.counts(0).reads, 2u);  // accesses at 0 and 255 both start in block 0
    EXPECT_EQ(p.counts(1).writes, 1u);
    EXPECT_EQ(p.counts(3).reads, 1u);
    EXPECT_EQ(p.total_accesses(), 4u);
}

TEST(BlockProfile, RejectsBadGeometry) {
    EXPECT_THROW(BlockProfile(100, 4), Error);  // not pow2
    EXPECT_THROW(BlockProfile(256, 0), Error);
}

// 2^31 blocks is the largest profile; one more address bit throws, and
// the message names the highest address, the span, the block count and
// the block size.
TEST(BlockProfile, GeometryStopsBelow2To32Blocks) {
    TraceSummary sum;
    sum.accesses = 1;
    sum.max_addr = (std::uint64_t{1} << 39) - 1;
    EXPECT_EQ(profile_geometry(sum, 256).num_blocks, std::size_t{1} << 31);
    EXPECT_EQ(profile_geometry(sum, 256).shift, 8u);
    sum.max_addr = std::uint64_t{1} << 39;
    try {
        profile_geometry(sum, 256);
        FAIL() << "expected Error";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("highest address 0x8000000000 needs a span of 2^40 "
                                             "bytes, 2^32 blocks of 256 bytes"),
                  std::string::npos)
            << e.what();
    }
}

// Accesses at the top of the 64-bit space have no power-of-two span in 64
// bits: the profile builder throws before allocating.
TEST(BlockProfile, TopOfRangeAccessThrows) {
    for (const std::uint64_t top : {0xFFFFFFFFFFFFFFFCull, 0x8000000000000100ull}) {
        SCOPED_TRACE(testing::Message() << std::hex << top);
        MemTrace t;
        t.add_read(0x100);
        t.add_write(top);
        MaterializedSource src(t);
        EXPECT_THROW(BlockProfile::from_source(src, 256), Error);
    }
}

TEST(MemTrace, AccessPastTopOfAddressSpaceThrows) {
    // The last byte of a 4-byte access at 0xFFFFFFFFFFFFFFFE would be
    // 2^64 + 1: it must not wrap into a small max_addr.
    MemTrace t;
    t.add_read(0x100);
    try {
        t.add_write(0xFFFFFFFFFFFFFFFEull, 4);
        ADD_FAILURE() << "access past 2^64 - 1 accepted";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("access at 0xfffffffffffffffe of 4 bytes"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(t.size(), 1u);
    EXPECT_EQ(t.summary().accesses, 1u);
    EXPECT_EQ(t.summary().max_addr, 0x103u);
    // An access that ends exactly at 2^64 - 1 is valid.
    t.add_write(0xFFFFFFFFFFFFFFF8ull, 8);
    EXPECT_EQ(t.summary().max_addr, std::numeric_limits<std::uint64_t>::max());
}

TEST(BlockProfile, HotFraction) {
    BlockProfile p(256, 4);
    p.add_counts(0, 90, 0);
    p.add_counts(2, 10, 0);
    EXPECT_DOUBLE_EQ(p.hot_fraction(1), 0.9);
    EXPECT_DOUBLE_EQ(p.hot_fraction(2), 1.0);
    EXPECT_DOUBLE_EQ(p.hot_fraction(99), 1.0);
}

TEST(BlockProfile, BlocksByAccessDescStable) {
    BlockProfile p(256, 4);
    p.add_counts(1, 5, 0);
    p.add_counts(3, 5, 0);
    p.add_counts(2, 9, 0);
    const auto order = p.blocks_by_access_desc();
    EXPECT_EQ(order[0], 2u);
    EXPECT_EQ(order[1], 1u);  // tie broken by original order
    EXPECT_EQ(order[2], 3u);
}

TEST(BlockProfile, SpatialLocalityHighForContiguous) {
    BlockProfile p(256, 16);
    p.add_counts(4, 100, 0);
    p.add_counts(5, 100, 0);
    p.add_counts(6, 100, 0);
    EXPECT_NEAR(p.spatial_locality(), 1.0, 1e-9);
}

TEST(BlockProfile, SpatialLocalityLowForScattered) {
    BlockProfile p(256, 16);
    p.add_counts(0, 100, 0);
    p.add_counts(7, 100, 0);
    p.add_counts(15, 100, 0);
    EXPECT_LT(p.spatial_locality(), 0.5);
}

TEST(BlockProfile, PermutedMovesCounts) {
    BlockProfile p(256, 3);
    p.add_counts(0, 1, 2);
    p.add_counts(2, 5, 0);
    const std::vector<std::size_t> perm{2, 0, 1};
    const BlockProfile q = p.permuted(perm);
    EXPECT_EQ(q.counts(2).reads, 1u);
    EXPECT_EQ(q.counts(2).writes, 2u);
    EXPECT_EQ(q.counts(1).reads, 5u);
    EXPECT_EQ(q.total_accesses(), p.total_accesses());
}

TEST(BlockProfile, PermutedRejectsNonBijection) {
    BlockProfile p(256, 3);
    const std::vector<std::size_t> bad{0, 0, 1};
    EXPECT_THROW(p.permuted(bad), Error);
    const std::vector<std::size_t> out_of_range{0, 1, 3};
    EXPECT_THROW(p.permuted(out_of_range), Error);
}

// ----------------------------------------------------------- affinity ----

TEST(Affinity, TransitionCountsAdjacentBlocks) {
    MemTrace t;
    t.add_read(0);     // block 0
    t.add_read(256);   // block 1 -> edge 0-1
    t.add_read(0);     // block 0 -> edge 0-1 (symmetric)
    t.add_read(0);     // same block, no edge
    MaterializedSource src(t);
    const BlockProfile p = BlockProfile::from_source(src, 256);
    const AffinityMatrix m = windowed_affinity(src, p, 2);  // consecutive transitions
    EXPECT_DOUBLE_EQ(m.at(0, 1), 2.0);
    EXPECT_DOUBLE_EQ(m.at(1, 0), 2.0);
    EXPECT_DOUBLE_EQ(m.total(), 2.0);
}

TEST(Affinity, WindowedSeesNonAdjacentPairs) {
    MemTrace t;
    t.add_read(0);      // block 0
    t.add_read(256);    // block 1
    t.add_read(512);    // block 2
    MaterializedSource src(t);
    const BlockProfile p = BlockProfile::from_source(src, 256);
    const AffinityMatrix m3 = windowed_affinity(src, p, 3);
    EXPECT_DOUBLE_EQ(m3.at(0, 1), 1.0);
    EXPECT_DOUBLE_EQ(m3.at(1, 2), 1.0);
    EXPECT_DOUBLE_EQ(m3.at(0, 2), 1.0);  // within window of 3
    const AffinityMatrix m2 = windowed_affinity(src, p, 2);
    EXPECT_DOUBLE_EQ(m2.at(0, 2), 0.0);  // not adjacent
}

TEST(Affinity, WindowValidation) {
    MemTrace t;
    t.add_read(0);
    MaterializedSource src(t);
    const BlockProfile p = BlockProfile::from_source(src, 256);
    EXPECT_THROW(windowed_affinity(src, p, 1), Error);
}

// ---------------------------------------------------------- synthetic ----

TEST(Synthetic, DeterministicBySeed) {
    SyntheticParams p;
    p.num_accesses = 500;
    const MemTrace a = materialize_synthetic({.kind = SyntheticKind::Uniform, .base = p});
    const MemTrace b = materialize_synthetic({.kind = SyntheticKind::Uniform, .base = p});
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a.at(i).addr, b.at(i).addr);
}

TEST(Synthetic, UniformStaysInSpan) {
    SyntheticParams p;
    p.span_bytes = 4096;
    p.num_accesses = 2000;
    const MemTrace t = materialize_synthetic({.kind = SyntheticKind::Uniform, .base = p});
    EXPECT_LT(t.summary().max_addr, 4096u);
}

TEST(Synthetic, HotspotTraceIsSkewedAndScattered) {
    SyntheticSpec spec;
    spec.kind = SyntheticKind::Hotspot;
    spec.base.span_bytes = 64 * 1024;
    spec.base.num_accesses = 20000;
    spec.num_hotspots = 8;
    spec.hotspot_bytes = 1024;
    spec.hot_fraction = 0.9;
    const MemTrace t = materialize_synthetic(spec);
    MaterializedSource src(t);
    const BlockProfile p = BlockProfile::from_source(src, 256);
    // 8 hotspots of 4 blocks each: ~32 hot blocks should hold ~90%.
    EXPECT_GT(p.hot_fraction(40), 0.85);
    // And they must be scattered, not contiguous.
    EXPECT_LT(p.spatial_locality(), 0.6);
}

TEST(Synthetic, HotspotValidation) {
    SyntheticSpec spec;
    spec.kind = SyntheticKind::Hotspot;
    spec.num_hotspots = 0;
    try {
        materialize_synthetic(spec);
        FAIL() << "expected throw";
    } catch (const Error& e) {
        EXPECT_STREQ(e.what(), "synthetic hotspot: need at least one hotspot");
    }
}

// Range checks must not wrap: four hotspots of 2^62 bytes multiply to 0
// mod 2^64, and cores=2^32+1 narrows to one core.
TEST(Synthetic, SpecRangeChecksDoNotWrap) {
    for (const char* text :
         {"hotspot,span=1048576,n=5,hotspots=4,hotspot-bytes=4611686018427387904",
          "producer-consumer,span=65536,n=5,cores=4294967297"}) {
        SCOPED_TRACE(text);
        EXPECT_THROW(materialize_synthetic(parse_synthetic_spec(text)), Error);
    }
}

TEST(Synthetic, KindNamesRoundTrip) {
    for (const SyntheticKind k : {SyntheticKind::Uniform, SyntheticKind::Hotspot,
                                  SyntheticKind::Stride, SyntheticKind::TwoPhase,
                                  SyntheticKind::ProducerConsumer})
        EXPECT_EQ(parse_synthetic_kind(synthetic_kind_name(k)), k);
    EXPECT_FALSE(parse_synthetic_kind("zipf").has_value());
    EXPECT_THROW(parse_synthetic_spec("zipf,n=5"), Error);
}

TEST(Synthetic, StridedWrapsAround) {
    SyntheticSpec spec;
    spec.kind = SyntheticKind::Stride;
    spec.base.span_bytes = 1024;
    spec.base.num_accesses = 600;
    spec.stride = 4;
    const MemTrace t = materialize_synthetic(spec);
    EXPECT_EQ(t.at(0).addr, 0u);
    EXPECT_EQ(t.at(255).addr, 1020u);
    EXPECT_EQ(t.at(256).addr, 0u);  // wrapped
}

TEST(Synthetic, TwoPhaseUsesDisjointHalves) {
    SyntheticParams p;
    p.span_bytes = 8192;
    p.num_accesses = 1000;
    const MemTrace t = materialize_synthetic({.kind = SyntheticKind::TwoPhase, .base = p});
    for (std::size_t i = 0; i < 500; ++i) EXPECT_LT(t.at(i).addr, 4096u);
    for (std::size_t i = 500; i < 1000; ++i) EXPECT_GE(t.at(i).addr, 4096u);
}

TEST(Synthetic, SmoothWordStreamHasBoundedDeltas) {
    const auto words = smooth_word_stream(1000, 1.0, 100, 9);
    for (std::size_t i = 1; i < words.size(); ++i) {
        const auto delta = static_cast<std::int32_t>(words[i] - words[i - 1]);
        EXPECT_LE(std::abs(delta), 100);
    }
}


// ------------------------------------------------------------ trace IO ----

MemTrace sample_trace() {
    MemTrace t;
    t.add(MemAccess{.addr = 0x1000, .cycle = 5, .value = 0xDEADBEEF, .size = 4,
                    .kind = AccessKind::Write});
    t.add(MemAccess{.addr = 0x1004, .cycle = 9, .value = 0x7F, .size = 1,
                    .kind = AccessKind::Read});
    t.add(MemAccess{.addr = 0xFFFF0, .cycle = 12, .value = 0xABCD, .size = 2,
                    .kind = AccessKind::Read});
    return t;
}

void expect_traces_equal(const MemTrace& a, const MemTrace& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const MemAccess x = a.at(i);
        const MemAccess y = b.at(i);
        EXPECT_EQ(x.addr, y.addr) << i;
        EXPECT_EQ(x.cycle, y.cycle) << i;
        EXPECT_EQ(x.value, y.value) << i;
        EXPECT_EQ(x.size, y.size) << i;
        EXPECT_EQ(x.kind, y.kind) << i;
    }
}

TEST(TraceIo, TextRoundTrip) {
    const MemTrace t = sample_trace();
    std::stringstream ss;
    MaterializedSource src(t);
    write_trace_text(ss, src);
    expect_traces_equal(t, read_trace_text(ss));
}

TEST(TraceIo, TextRoundTripsTheTopOfTheU64Range) {
    // A .mtsc holds any u64 cycle and addresses up to 2^64 - 1; the text
    // reader takes back every address and cycle the writer prints.
    MemTrace t;
    t.add(MemAccess{.addr = std::uint64_t{1} << 63, .cycle = std::uint64_t{1} << 63,
                    .value = 0x12345678, .size = 4, .kind = AccessKind::Write});
    t.add(MemAccess{.addr = 0xFFFFFFFFFFFFFFF8ULL, .cycle = UINT64_MAX, .value = 0xFFFFFFFF,
                    .size = 8, .kind = AccessKind::Read});
    std::stringstream ss;
    MaterializedSource src(t);
    write_trace_text(ss, src);
    expect_traces_equal(t, read_trace_text(ss));
}

TEST(TraceIo, TextRejectsAddressesAndCyclesOutsideU64) {
    const auto expect_rejected = [](const char* text, const char* message) {
        std::stringstream ss(text);
        try {
            read_trace_text(ss);
            FAIL() << "expected Error for " << text;
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find(message), std::string::npos) << e.what();
        }
    };
    expect_rejected("R 0x100 4 18446744073709551616\n", "trace text line 1: bad cycle");
    expect_rejected("R -1\n", "trace text line 1: bad address");
}

TEST(TraceIo, TextAcceptsShortRecordsAndComments) {
    std::stringstream ss("# header\nR 0x100\nW 0x104 2\nR 0x108 4 99  # inline\n");
    const MemTrace t = read_trace_text(ss);
    ASSERT_EQ(t.size(), 3u);
    EXPECT_EQ(t.at(0).size, 4u);
    EXPECT_EQ(t.at(1).size, 2u);
    EXPECT_EQ(t.at(2).cycle, 99u);
}

TEST(TraceIo, TextRejectsMalformedRecords) {
    std::stringstream bad_kind("X 0x100\n");
    EXPECT_THROW(read_trace_text(bad_kind), Error);
    std::stringstream bad_addr("R zzz\n");
    EXPECT_THROW(read_trace_text(bad_addr), Error);
    std::stringstream bad_size("R 0x100 3\n");
    EXPECT_THROW(read_trace_text(bad_size), Error);
    // Fields beyond 64 bits are malformed, never wrapped to a small value.
    std::stringstream wrapped("R 0x10000000000000100 4 18446744073709551617 0x0\n");
    EXPECT_THROW(read_trace_text(wrapped), Error);
}

TEST(TraceIo, TextRejectsValueOutOfRange) {
    // int64 values that don't fit a 32-bit word must be rejected, not
    // silently truncated (truncation would change compression/encoding
    // results of a round-tripped trace).
    std::stringstream too_big("R 0x100 4 5 0x100000000\n");
    EXPECT_THROW(read_trace_text(too_big), Error);
    std::stringstream negative("R 0x100 4 5 -7\n");
    EXPECT_THROW(read_trace_text(negative), Error);
    // The error must carry the offending line number.
    std::stringstream second_line("R 0x100 4 5 1\nW 0x104 4 6 0x1FFFFFFFF\n");
    try {
        read_trace_text(second_line);
        FAIL() << "expected Error";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
        EXPECT_NE(std::string(e.what()).find("value out of 32-bit range"), std::string::npos)
            << e.what();
    }
}

TEST(TraceIo, FileSaveLoadBothFormats) {
    const MemTrace t = sample_trace();
    const std::string text_path = ::testing::TempDir() + "memopt_trace_test.txt";
    {
        std::ofstream os(text_path);
        MaterializedSource source(t);
        write_trace_text(os, source);
    }
    expect_traces_equal(t, load_trace(text_path));
    std::remove(text_path.c_str());
    // The retired flat binary format is refused in both directions (writers
    // check the path before they open it), with a message that points at
    // its replacement.
    const std::string mtrc_path = ::testing::TempDir() + "memopt_trace_test.mtrc";
    EXPECT_THROW(reject_retired_trace_format(mtrc_path), Error);
    EXPECT_FALSE(std::ifstream(mtrc_path).is_open());
    try {
        load_trace(mtrc_path);
        FAIL() << "expected Error";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find(".mtsc"), std::string::npos) << e.what();
    }
}

TEST(TraceIo, LoadMissingFileThrows) {
    EXPECT_THROW(load_trace("/nonexistent/path/trace.txt"), Error);
}


// ----------------------------------------------------------- symbolize ----

TEST(Symbolize, AttributesAccessesToSymbols) {
    const auto prog = assemble(R"(
        halt
.data
hot:    .word 0, 0, 0, 0
cold:   .space 64
)");
    MemTrace trace;
    const std::uint64_t hot = prog.symbol("hot");
    const std::uint64_t cold = prog.symbol("cold");
    trace.add_read(hot);
    trace.add_read(hot + 12);
    trace.add_write(cold + 8);
    trace.add_read(0x30000);  // outside the data image -> stack/anon

    const auto traffic = symbolize_trace(prog, trace);
    ASSERT_EQ(traffic.size(), 3u);
    EXPECT_EQ(traffic[0].name, "hot");
    EXPECT_EQ(traffic[0].reads, 2u);
    EXPECT_EQ(traffic[0].bytes, 16u);
    bool saw_cold = false;
    bool saw_anon = false;
    for (const SymbolTraffic& t : traffic) {
        if (t.name == "cold") {
            saw_cold = true;
            EXPECT_EQ(t.writes, 1u);
        }
        if (t.name == "<stack/anon>") {
            saw_anon = true;
            EXPECT_EQ(t.reads, 1u);
        }
    }
    EXPECT_TRUE(saw_cold);
    EXPECT_TRUE(saw_anon);
}

TEST(Symbolize, SortedByTrafficAndOmitsColdSymbols) {
    const auto prog = assemble(R"(
        halt
.data
a:      .word 0
b:      .word 0
c:      .word 0
)");
    MemTrace trace;
    for (int i = 0; i < 3; ++i) trace.add_read(prog.symbol("b"));
    trace.add_read(prog.symbol("a"));
    const auto traffic = symbolize_trace(prog, trace);
    ASSERT_EQ(traffic.size(), 2u);  // c has no traffic
    EXPECT_EQ(traffic[0].name, "b");
    EXPECT_EQ(traffic[1].name, "a");
}

TEST(Symbolize, AccountsEveryAccessExactlyOnce) {
    const auto prog = assemble(kernel_by_name("histogram").source);
    const RunResult run = Cpu(CpuConfig{}).run(prog);
    const auto traffic = symbolize_trace(prog, run.data_trace);
    std::uint64_t total = 0;
    for (const SymbolTraffic& t : traffic) total += t.total();
    EXPECT_EQ(total, run.data_trace.size());
}

// -------------------------------------------------- SoA column layout ----

// The columnar storage and the materializing at(i) must describe the same
// trace: every row assembled from the column spans equals the MemAccess
// at(i) hands out.
TEST(SoaLayout, ColumnsAgreeWithAccessView) {
    const MemTrace t = materialize_synthetic(
        {.kind = SyntheticKind::Uniform,
         .base = {.span_bytes = 65536, .num_accesses = 2000, .write_fraction = 0.4, .seed = 9}});
    const auto addrs = t.addrs();
    const auto cycles = t.cycles();
    const auto values = t.values();
    const auto sizes = t.sizes();
    const auto kinds = t.kinds();
    ASSERT_EQ(addrs.size(), t.size());
    ASSERT_EQ(cycles.size(), t.size());
    ASSERT_EQ(values.size(), t.size());
    ASSERT_EQ(sizes.size(), t.size());
    ASSERT_EQ(kinds.size(), t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
        const MemAccess a = t.at(i);
        EXPECT_EQ(a.addr, addrs[i]) << i;
        EXPECT_EQ(a.cycle, cycles[i]) << i;
        EXPECT_EQ(a.value, values[i]) << i;
        EXPECT_EQ(a.size, sizes[i]) << i;
        EXPECT_EQ(a.kind, kinds[i]) << i;
    }
}

// Round-trip through both I/O formats: a trace rebuilt row-by-row through
// the AoS add() API serializes and deserializes to the same columns as the
// SoA original — the storage layout is invisible to the formats.
TEST(SoaLayout, AosRebuildRoundTripsThroughIo) {
    const MemTrace soa = materialize_synthetic(
        {.kind = SyntheticKind::Uniform,
         .base = {.span_bytes = 65536, .num_accesses = 2000, .write_fraction = 0.4, .seed = 10}});
    MemTrace aos;
    for (std::size_t i = 0; i < soa.size(); ++i) aos.add(soa.at(i));

    std::stringstream text_soa, text_aos;
    MaterializedSource soa_src(soa);
    MaterializedSource aos_src(aos);
    write_trace_text(text_soa, soa_src);
    write_trace_text(text_aos, aos_src);
    EXPECT_EQ(text_soa.str(), text_aos.str());
    expect_traces_equal(soa, read_trace_text(text_soa));
}

TEST(SoaLayout, FromColumnsMatchesAddAndValidates) {
    // A chunk over raw columns folds into the summary MemTrace keeps as it
    // adds the same accesses, and a chunk with ragged columns is refused.
    MemTrace reference;
    reference.add(MemAccess{0x100, 0, 0, 4, AccessKind::Read});
    reference.add(MemAccess{0x204, 5, 7, 2, AccessKind::Write});
    reference.add(MemAccess{0x108, 11, 0, 8, AccessKind::Read});
    const std::vector<std::uint64_t> addrs{0x100, 0x204, 0x108};
    const std::vector<std::uint64_t> cycles{0, 5, 11};
    const std::vector<std::uint32_t> values{0, 7, 0};
    const std::vector<std::uint8_t> sizes{4, 2, 8};
    const std::vector<AccessKind> kinds{AccessKind::Read, AccessKind::Write, AccessKind::Read};
    TraceSummary built;
    built.add(TraceChunk(0, addrs, cycles, values, sizes, kinds));
    EXPECT_EQ(built.accesses, reference.size());
    EXPECT_EQ(built.max_addr, 0x205u);
    EXPECT_TRUE(built == reference.summary());
    EXPECT_THROW(TraceChunk(0, addrs, std::span(cycles).first(2), values, sizes, kinds), Error);
}

// -------------------------------------------- sharded replay invariance ----

// Sharded replay must be bit-identical at any job count: affinity weights
// are integer-valued, so the merge order cannot change any sum.
TEST(ShardedReplay, ProfileAndAffinityInvariantAcrossJobs) {
    // Long enough to split into several shards (kMinAccessesPerShard = 64Ki).
    const MemTrace t = materialize_synthetic({
        .kind = SyntheticKind::Hotspot,
        .base = {.span_bytes = 256 * 256, .num_accesses = 300000, .write_fraction = 0.3,
                 .seed = 21},
        .num_hotspots = 4,
        .hotspot_bytes = 1024,
        .hot_fraction = 0.9,
    });
    MaterializedSource src(t);
    const BlockProfile p1 = BlockProfile::from_source(src, 256, 1);
    const AffinityMatrix w1 = windowed_affinity(src, p1, 8, 1);
    const AffinityMatrix a1 = windowed_affinity(src, p1, 2, 1);
    for (const std::size_t jobs : {std::size_t{4}, std::size_t{8}}) {
        const BlockProfile pj = BlockProfile::from_source(src, 256, jobs);
        ASSERT_EQ(pj.num_blocks(), p1.num_blocks());
        for (std::size_t b = 0; b < p1.num_blocks(); ++b) {
            EXPECT_EQ(pj.counts(b).reads, p1.counts(b).reads) << b;
            EXPECT_EQ(pj.counts(b).writes, p1.counts(b).writes) << b;
        }
        const AffinityMatrix wj = windowed_affinity(src, pj, 8, jobs);
        const AffinityMatrix aj = windowed_affinity(src, pj, 2, jobs);
        EXPECT_EQ(wj.total(), w1.total());
        EXPECT_EQ(aj.total(), a1.total());
        for (std::size_t a = 0; a < p1.num_blocks(); ++a) {
            for (std::size_t b = a; b < p1.num_blocks(); ++b) {
                ASSERT_EQ(wj.at(a, b), w1.at(a, b)) << a << "," << b;
                ASSERT_EQ(aj.at(a, b), a1.at(a, b)) << a << "," << b;
            }
        }
    }
}

TEST(Affinity, SparseAccumulatorInvariantUnderInsertOrder) {
    // Above kAffinityDenseMaxBlocks the accumulator counts (block, block)
    // pairs in a flat open-addressing table. Where a key lands depends on the
    // keys inserted before it, so finalize() must erase the slot order via
    // the packed-key sort before emitting CSR. Feeding the same pair multiset
    // in forward and reversed order must therefore produce identical matrices.
    const std::size_t n = kAffinityDenseMaxBlocks + 64;
    Rng rng(9);
    std::vector<std::pair<std::size_t, std::size_t>> adds;
    for (int i = 0; i < 4000; ++i) {
        adds.emplace_back(static_cast<std::size_t>(rng.next_below(n)),
                          static_cast<std::size_t>(rng.next_below(n)));
    }
    AffinityAccumulator fwd(n);
    AffinityAccumulator rev(n);
    for (const auto& [a, b] : adds) fwd.add(a, b);
    for (auto it = adds.rbegin(); it != adds.rend(); ++it) rev.add(it->first, it->second);

    const AffinityMatrix ma = fwd.finalize();
    const AffinityMatrix mb = rev.finalize();
    EXPECT_EQ(ma.stored_pairs(), mb.stored_pairs());
    EXPECT_THROW(ma.at(n, 0), Error);
    EXPECT_EQ(ma.total(), mb.total());
    for (const auto& [a, b] : adds) {
        ASSERT_EQ(ma.at(a, b), mb.at(a, b)) << a << "," << b;
    }
    for (std::size_t row = 0; row < n; row += 97) {
        std::vector<std::pair<std::size_t, double>> na, nb;
        ma.for_each_neighbor(row, [&](std::size_t b, double w) { na.emplace_back(b, w); });
        mb.for_each_neighbor(row, [&](std::size_t b, double w) { nb.emplace_back(b, w); });
        ASSERT_EQ(na, nb) << "row " << row;
    }
}

// A table key packs two 32-bit block ids, and the all-ones key marks an
// empty slot, so block ids must stay below 2^32 - 1.
TEST(Affinity, AccumulatorBlockCountLimit) {
    constexpr std::size_t kLimit = std::size_t{1} << 32;
    EXPECT_THROW(AffinityAccumulator{kLimit}, Error);
    EXPECT_EQ(AffinityAccumulator{kLimit - 1}.num_blocks(), kLimit - 1);
}

// The CSR stores co-access counts as uint32_t: a pair counted 2^32 - 1
// times keeps that weight, and one more count makes finalize() throw, in
// the dense triangle and in the tables alike.
TEST(Affinity, AccumulatorWeightLimit) {
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint32_t>::max();
    for (const std::size_t n : {std::size_t{8}, kAffinityDenseMaxBlocks + 8}) {
        SCOPED_TRACE(testing::Message() << n << " blocks");
        AffinityAccumulator at_limit(n);
        at_limit.add(1, 5, kMax);
        at_limit.add(2, 2);
        const AffinityMatrix m = at_limit.finalize();
        EXPECT_EQ(m.at(5, 1), static_cast<double>(kMax));
        EXPECT_EQ(m.max_offdiagonal(), static_cast<double>(kMax));
        EXPECT_EQ(m.total(), static_cast<double>(kMax + 1));

        AffinityAccumulator past(n);
        past.add(1, 5, kMax);
        past.add(5, 1);
        EXPECT_THROW(past.finalize(), Error);
    }
}

// Above the dense threshold an accumulator can hold one key partition of
// several. The partitions split every pair multiset disjointly, they join
// by merge() into the whole count in any task order, and overlapping ones
// do not join. The dense triangle always counts whole.
TEST(Affinity, KeyPartitionsJoinIntoTheWholeCount) {
    const std::size_t n = kAffinityDenseMaxBlocks + 64;
    Rng rng(11);
    std::vector<std::pair<std::size_t, std::size_t>> adds;
    for (int i = 0; i < 6000; ++i) {
        adds.emplace_back(static_cast<std::size_t>(rng.next_below(n)),
                          static_cast<std::size_t>(rng.next_below(n)));
    }
    AffinityAccumulator whole(n);
    for (const auto& [a, b] : adds) whole.add(a, b);
    const AffinityMatrix expected = whole.finalize();

    for (const std::size_t count : {std::size_t{2}, std::size_t{3}, std::size_t{8}}) {
        SCOPED_TRACE(testing::Message() << count << " partitions");
        std::vector<AffinityAccumulator> parts;
        for (std::size_t p = 0; p < count; ++p) {
            parts.emplace_back(n, KeyPartition{p, count});
            for (const auto& [a, b] : adds) parts.back().add(a, b);
        }
        // Join in reverse task order: disjoint tables need no order. A pair
        // in two partitions would appear twice in its rows.
        AffinityAccumulator joined = std::move(parts.back());
        for (std::size_t p = count - 1; p-- > 0;) joined.merge(std::move(parts[p]));
        const AffinityMatrix m = joined.finalize(count);
        EXPECT_EQ(m.stored_pairs(), expected.stored_pairs());
        EXPECT_EQ(m.total(), expected.total());
        for (std::size_t row = 0; row < n; ++row) {
            std::vector<std::pair<std::size_t, double>> got, want;
            m.for_each_neighbor(row, [&](std::size_t b, double w) { got.emplace_back(b, w); });
            expected.for_each_neighbor(row,
                                       [&](std::size_t b, double w) { want.emplace_back(b, w); });
            ASSERT_EQ(got, want) << "row " << row;
        }
    }

    AffinityAccumulator first(n, KeyPartition{0, 2});
    AffinityAccumulator again(n, KeyPartition{0, 2});
    EXPECT_THROW(first.merge(std::move(again)), Error);
    EXPECT_THROW((AffinityAccumulator{n, KeyPartition{2, 2}}), Error);
    EXPECT_THROW((AffinityAccumulator{kAffinityDenseMaxBlocks, KeyPartition{0, 2}}), Error);
}

}  // namespace
}  // namespace memopt
