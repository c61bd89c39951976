// Streaming trace pipeline tests: source equivalence (streamed results are
// bit-identical to materialized ones at any job count), the profile replay
// against a per-access reference count, the .mtsc container round-trip, and
// corruption handling of the mmap reader.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cache/memsys.hpp"
#include "cache_hierarchy.hpp"
#include "compress/diff_codec.hpp"
#include "core/flow.hpp"
#include "core/workload.hpp"
#include "support/assert.hpp"
#include "support/parallel.hpp"
#include "trace/affinity.hpp"
#include "trace/io.hpp"
#include "trace/profile.hpp"
#include "trace/source.hpp"
#include "trace/stream_file.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace.hpp"

namespace memopt {
namespace {

std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + "stream_" + name;
}

/// Replay a source to completion and materialize the delivered columns.
MemTrace drain(TraceSource& source) {
    source.reset();
    MemTrace out;
    TraceChunk chunk;
    std::uint64_t expected_first = 0;
    while (source.next(chunk)) {
        EXPECT_EQ(chunk.first_index, expected_first);
        expected_first += chunk.size();
        for (std::size_t i = 0; i < chunk.size(); ++i) {
            MemAccess a;
            a.addr = chunk.addrs[i];
            a.cycle = chunk.cycles[i];
            a.value = chunk.values[i];
            a.size = chunk.sizes[i];
            a.kind = chunk.kinds[i];
            out.add(a);
        }
    }
    EXPECT_EQ(expected_first, source.size());
    return out;
}

void expect_traces_equal(const MemTrace& a, const MemTrace& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a.addrs()[i], b.addrs()[i]) << "access " << i;
        ASSERT_EQ(a.cycles()[i], b.cycles()[i]) << "access " << i;
        ASSERT_EQ(a.values()[i], b.values()[i]) << "access " << i;
        ASSERT_EQ(a.sizes()[i], b.sizes()[i]) << "access " << i;
        ASSERT_EQ(a.kinds()[i], b.kinds()[i]) << "access " << i;
    }
}

void expect_profiles_equal(const BlockProfile& a, const BlockProfile& b) {
    ASSERT_EQ(a.block_size(), b.block_size());
    ASSERT_EQ(a.num_blocks(), b.num_blocks());
    for (std::size_t i = 0; i < a.num_blocks(); ++i) {
        EXPECT_EQ(a.counts(i).reads, b.counts(i).reads) << "block " << i;
        EXPECT_EQ(a.counts(i).writes, b.counts(i).writes) << "block " << i;
    }
}

void expect_matrices_equal(const AffinityMatrix& a, const AffinityMatrix& b) {
    ASSERT_EQ(a.num_blocks(), b.num_blocks());
    EXPECT_EQ(a.total(), b.total());
    EXPECT_EQ(a.stored_pairs(), b.stored_pairs());
    for (std::size_t i = 0; i < a.num_blocks(); ++i) {
        std::vector<std::pair<std::size_t, double>> ra, rb;
        a.for_each_neighbor(i, [&](std::size_t j, double w) { ra.emplace_back(j, w); });
        b.for_each_neighbor(i, [&](std::size_t j, double w) { rb.emplace_back(j, w); });
        ASSERT_EQ(ra, rb) << "row " << i;
        EXPECT_EQ(a.at(i, i), b.at(i, i)) << "diagonal " << i;
    }
}

void expect_energy_equal(const EnergyBreakdown& a, const EnergyBreakdown& b) {
    ASSERT_EQ(a.components().size(), b.components().size());
    for (std::size_t i = 0; i < a.components().size(); ++i) {
        EXPECT_EQ(a.components()[i].first, b.components()[i].first);
        EXPECT_EQ(a.components()[i].second, b.components()[i].second)
            << "component " << a.components()[i].first;
    }
}

// A value-carrying trace with mixed sizes for the simulators.
MemTrace mixed_trace(std::size_t n) {
    const SyntheticSpec spec =
        parse_synthetic_spec("hotspot,span=16384,n=" + std::to_string(n) +
                             ",seed=11,write=0.4,hotspots=3,hotspot-bytes=512,hot-frac=0.85");
    return materialize_synthetic(spec);
}

// ------------------------------------------------------------- sources ----

TEST(TraceChunkTest, ColumnMismatchThrows) {
    const std::vector<std::uint64_t> two64(2), one64(1);
    const std::vector<std::uint32_t> two32(2);
    const std::vector<std::uint8_t> two8(2);
    const std::vector<AccessKind> twok(2, AccessKind::Read);
    EXPECT_NO_THROW(TraceChunk(0, two64, two64, two32, two8, twok));
    EXPECT_THROW(TraceChunk(0, two64, one64, two32, two8, twok), Error);
    EXPECT_THROW(TraceChunk(0, two64, two64, {}, two8, twok), Error);
}

TEST(MaterializedSourceTest, ChunksAreZeroCopyViews) {
    const MemTrace trace = mixed_trace(1000);
    MaterializedSource source(trace, 256);
    EXPECT_TRUE(source.stable_chunks());
    TraceChunk chunk;
    ASSERT_TRUE(source.next(chunk));
    EXPECT_EQ(chunk.size(), 256u);
    // Spans point straight into the trace's columns — no copy was made.
    EXPECT_EQ(chunk.addrs.data(), trace.addrs().data());
    EXPECT_EQ(chunk.kinds.data(), trace.kinds().data());
    ASSERT_TRUE(source.next(chunk));
    EXPECT_EQ(chunk.addrs.data(), trace.addrs().data() + 256);
    EXPECT_EQ(chunk.first_index, 256u);
}

void expect_summaries_equal(const TraceSummary& a, const TraceSummary& b) {
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.min_addr, b.min_addr);
    EXPECT_EQ(a.max_addr, b.max_addr);
}

/// Forwards next() and stable_chunks() only, like a counting wrapper
/// around a library source: next_batch() is the base class's, and
/// summary() the base class's fold of the delivered chunks, since no
/// summary is seeded.
class ForwardingSource final : public TraceSource {
public:
    explicit ForwardingSource(TraceSource& inner) : inner_(inner) {}
    std::uint64_t size() const override { return inner_.size(); }
    bool stable_chunks() const override { return inner_.stable_chunks(); }
    bool next(TraceChunk& chunk) override { return inner_.next(chunk); }
    void reset() override { inner_.reset(); }

private:
    TraceSource& inner_;
};

// The summary a MaterializedSource seeds from its trace, counted access by
// access as the trace grew, equals the chunk-by-chunk fold of the same
// accesses in every field, whatever the chunk size: the two uses of the
// one counting rule agree. The second trace mixes every access width and
// ends its highest access exactly at 2^64 - 1; its lowest address is not
// its first.
TEST(MaterializedSourceTest, SummarySeededFromTraceCounters) {
    const MemTrace widths = [] {
        MemTrace t;
        t.add_read(0x1000, 1);
        t.add_write(0xFFFFFFFFFFFFFFF8ull, 8);
        t.add_read(0x0FFE, 2);
        t.add_write(0x2000, 4);
        t.add_read(0x40, 8);
        t.add_write(0xFFFFFFFFFFFFFFF0ull, 4);
        return t;
    }();
    const MemTrace mixed = mixed_trace(70000);
    for (const MemTrace* trace : {&mixed, &widths}) {
        for (const std::size_t chunk : {std::size_t{1}, std::size_t{777}, kDefaultTraceChunk}) {
            SCOPED_TRACE(testing::Message() << trace->size() << " accesses, chunks of " << chunk);
            MaterializedSource source(*trace, chunk);
            expect_summaries_equal(source.summary(), trace->summary());
            ForwardingSource folded(source);
            expect_summaries_equal(folded.summary(), trace->summary());
        }
    }
    EXPECT_EQ(widths.summary().min_addr, 0x40u);
    EXPECT_EQ(widths.summary().max_addr, std::numeric_limits<std::uint64_t>::max());
}

TEST(MaterializedSourceTest, ZeroChunkSizeThrows) {
    const MemTrace trace = mixed_trace(10);
    EXPECT_THROW(MaterializedSource(trace, 0), Error);
}

TEST(SyntheticSourceTest, MatchesMaterializedGenerator) {
    const char* specs[] = {
        "uniform,span=8192,n=5000,seed=3,write=0.25",
        "hotspot,span=8192,n=5000,seed=4,hotspots=2,hotspot-bytes=256,hot-frac=0.9",
        "stride,span=8192,n=5000,seed=5,stride=64",
        "two-phase,span=8192,n=5000,seed=6",
    };
    for (const char* text : specs) {
        const SyntheticSpec spec = parse_synthetic_spec(text);
        const MemTrace expected = materialize_synthetic(spec);
        SyntheticSource source(spec, 777);  // chunk size not dividing n
        EXPECT_EQ(source.size(), expected.size());
        expect_traces_equal(drain(source), expected);
        // summary() takes its own pass, then replay restarts cleanly.
        expect_summaries_equal(source.summary(), expected.summary());
        expect_traces_equal(drain(source), expected);
    }
}

TEST(SyntheticSourceTest, ResetMidStreamRestartsExactly) {
    const SyntheticSpec spec = parse_synthetic_spec("uniform,span=4096,n=3000,seed=9");
    const MemTrace expected = materialize_synthetic(spec);
    SyntheticSource source(spec, 100);
    TraceChunk chunk;
    ASSERT_TRUE(source.next(chunk));
    ASSERT_TRUE(source.next(chunk));
    source.reset();
    expect_traces_equal(drain(source), expected);
}

// ------------------------------------------- profile/affinity equality ----

TEST(StreamEquivalenceTest, ProfileMatchesAtAnyJobCount) {
    // Big enough that the parallel replay actually shards (> 2 * 64Ki).
    const SyntheticSpec spec = parse_synthetic_spec("uniform,span=65536,n=200000,seed=2");
    const MemTrace trace = materialize_synthetic(spec);
    MaterializedSource reference(trace);  // default chunking
    const BlockProfile expected = BlockProfile::from_source(reference, 256, 1);
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
        SyntheticSource source(spec, 10000);
        expect_profiles_equal(BlockProfile::from_source(source, 256, jobs), expected);
        MaterializedSource mat(trace, 10000);
        expect_profiles_equal(BlockProfile::from_source(mat, 256, jobs), expected);
    }
}

// ------------------------------------------------- profile reference ----

/// Per-block read and write counts straight from the definition: every
/// access counts once, in block addr >> log2(block_size).
std::map<std::uint64_t, BlockCounts> reference_profile(const MemTrace& trace,
                                                       std::uint64_t block_size) {
    const int shift = std::countr_zero(block_size);
    std::map<std::uint64_t, BlockCounts> counts;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        BlockCounts& c = counts[trace.addrs()[i] >> shift];
        if (trace.kinds()[i] == AccessKind::Read) ++c.reads;
        else ++c.writes;
    }
    return counts;
}

/// `profile` must span every touched block and hold exactly the reference
/// counts, with zero in every other block.
void expect_profile_matches(const BlockProfile& profile,
                            const std::map<std::uint64_t, BlockCounts>& expected) {
    ASSERT_LT(expected.rbegin()->first, profile.num_blocks());
    for (std::size_t b = 0; b < profile.num_blocks(); ++b) {
        const auto it = expected.find(b);
        const BlockCounts want = it == expected.end() ? BlockCounts{} : it->second;
        ASSERT_EQ(profile.counts(b).reads, want.reads) << "block " << b;
        ASSERT_EQ(profile.counts(b).writes, want.writes) << "block " << b;
    }
}

class ProfileReference : public ::testing::TestWithParam<SyntheticKind> {};

// BlockProfile::from_source against the per-access count, from a stable
// in-memory trace, the generator, and the same trace as an uncompressed and
// a compressed .mtsc. 200000 accesses (over 2 * 64Ki) shard into three
// tasks at --jobs 3 and 8; chunks of 3001 end on a short chunk. One-access
// chunks run on a short trace.
TEST_P(ProfileReference, FromSourceMatchesPerAccessCount) {
    constexpr std::uint64_t kBlock = 256;
    struct Replay {
        std::size_t accesses;
        std::vector<std::size_t> chunks;
    };
    const Replay replays[] = {{200000, {3001, 65536}}, {3000, {1}}};
    const std::string name = synthetic_kind_name(GetParam());
    const std::string plain = temp_path("profile_ref_" + name + ".mtsc");
    const std::string packed = temp_path("profile_ref_" + name + "_z.mtsc");
    for (const Replay& replay : replays) {
        SyntheticSpec spec;
        spec.kind = GetParam();
        spec.base = {.span_bytes = 65536,
                     .num_accesses = replay.accesses,
                     .write_fraction = 0.3,
                     .seed = 70 + static_cast<std::uint64_t>(GetParam())};
        spec.num_hotspots = 4;
        const MemTrace trace = materialize_synthetic(spec);
        const auto expected = reference_profile(trace, kBlock);
        for (const std::size_t chunk : replay.chunks) {
            SCOPED_TRACE(testing::Message() << replay.accesses << " accesses, chunk " << chunk);
            MaterializedSource materialized(trace, chunk);
            SyntheticSource generated(spec, chunk);
            write_trace_stream(plain, materialized, {.chunk_accesses = chunk});
            write_trace_stream(packed, materialized, {.chunk_accesses = chunk, .compress = true});
            MmapBinarySource mapped(plain);
            MmapBinarySource compressed(packed);
            const std::pair<const char*, TraceSource*> sources[] = {
                {"materialized", &materialized},
                {"generated", &generated},
                {".mtsc", &mapped},
                {"compressed .mtsc", &compressed}};
            for (const auto& [label, source] : sources) {
                for (const std::size_t jobs : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
                    SCOPED_TRACE(testing::Message() << label << ", jobs " << jobs);
                    expect_profile_matches(BlockProfile::from_source(*source, kBlock, jobs),
                                           expected);
                }
            }
        }
    }
    std::remove(plain.c_str());
    std::remove(packed.c_str());
}

INSTANTIATE_TEST_SUITE_P(Families, ProfileReference,
                         ::testing::Values(SyntheticKind::Uniform, SyntheticKind::Hotspot,
                                           SyntheticKind::Stride, SyntheticKind::TwoPhase,
                                           SyntheticKind::ProducerConsumer),
                         [](const auto& info) {
                             std::string name = synthetic_kind_name(info.param);
                             std::erase(name, '-');
                             return name;
                         });

TEST(StreamEquivalenceTest, AffinityMatchesAtAnyJobCount) {
    const SyntheticSpec spec =
        parse_synthetic_spec("two-phase,span=32768,n=200000,seed=13");
    const MemTrace trace = materialize_synthetic(spec);
    MaterializedSource reference(trace);  // default chunking
    const BlockProfile profile = BlockProfile::from_source(reference, 256, 1);
    const AffinityMatrix t_expected = windowed_affinity(reference, profile, 2, 1);
    const AffinityMatrix w_expected = windowed_affinity(reference, profile, 16, 1);
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
        SyntheticSource source(spec, 10000);
        expect_matrices_equal(windowed_affinity(source, profile, 2, jobs), t_expected);
        expect_matrices_equal(windowed_affinity(source, profile, 16, jobs), w_expected);
    }
}

TEST(StreamEquivalenceTest, SparseAffinityMatchesOnLargeSpans) {
    // > 1024 blocks at 256 B counts pairs in the accumulator's hash table.
    const SyntheticSpec spec = parse_synthetic_spec("uniform,span=1048576,n=150000,seed=21");
    const MemTrace trace = materialize_synthetic(spec);
    MaterializedSource reference(trace);  // default chunking
    const BlockProfile profile = BlockProfile::from_source(reference, 256, 1);
    ASSERT_GT(profile.num_blocks(), kAffinityDenseMaxBlocks);
    const AffinityMatrix expected = windowed_affinity(reference, profile, 8, 1);
    SyntheticSource source(spec, 10000);
    expect_matrices_equal(windowed_affinity(source, profile, 8, 8), expected);
}

// ----------------------------------------------- replay-engine equality ----

TEST(StreamEquivalenceTest, CompressedMemoryReplayMatches) {
    const MemTrace trace = mixed_trace(30000);
    const DiffCodec codec;
    CompressedMemConfig config;
    config.cache.size_bytes = 1024;
    config.cache.line_bytes = 32;
    MaterializedSource reference(trace);  // default chunking
    const CompressedMemReport expected =
        CompressedMemorySim(config, &codec).run(reference, {}, 0);
    MaterializedSource source(trace, 4096);
    const CompressedMemReport streamed =
        CompressedMemorySim(config, &codec).run(source, {}, 0);
    EXPECT_EQ(streamed.writeback_lines, expected.writeback_lines);
    EXPECT_EQ(streamed.fill_lines, expected.fill_lines);
    EXPECT_EQ(streamed.raw_traffic_bytes, expected.raw_traffic_bytes);
    EXPECT_EQ(streamed.actual_traffic_bytes, expected.actual_traffic_bytes);
    expect_energy_equal(streamed.energy, expected.energy);
}

TEST(StreamEquivalenceTest, CacheHierarchyReplayMatches) {
    const MemTrace trace = mixed_trace(30000);
    CacheConfig l1, l2;
    l1.size_bytes = 512;
    l1.line_bytes = 16;
    l2.size_bytes = 4096;
    l2.line_bytes = 32;
    CacheHierarchy expected(l1, l2);
    MaterializedSource reference(trace);  // default chunking
    expected.replay(reference);
    CacheHierarchy streamed(l1, l2);
    MaterializedSource source(trace, 4096);
    streamed.replay(source);
    EXPECT_EQ(streamed.traffic().line_fetches, expected.traffic().line_fetches);
    EXPECT_EQ(streamed.traffic().line_writes, expected.traffic().line_writes);
    EXPECT_EQ(streamed.traffic().word_writes, expected.traffic().word_writes);
    EXPECT_EQ(streamed.l1().stats().read_hits, expected.l1().stats().read_hits);
    EXPECT_EQ(streamed.l2().stats().read_misses, expected.l2().stats().read_misses);
}

TEST(StreamEquivalenceTest, FlowRunAndCompareMatch) {
    const SyntheticSpec spec =
        parse_synthetic_spec("hotspot,span=16384,n=120000,seed=7,hotspots=3,"
                             "hotspot-bytes=512,hot-frac=0.85");
    const MemTrace trace = materialize_synthetic(spec);
    FlowParams fp;
    fp.constraints.max_banks = 4;
    const MemoryOptimizationFlow flow(fp);
    MaterializedSource reference(trace);  // default chunking
    for (const ClusterMethod method :
         {ClusterMethod::None, ClusterMethod::Frequency, ClusterMethod::Affinity}) {
        const FlowResult expected = flow.run(reference, method);
        SyntheticSource source(spec, 10000);
        const FlowResult streamed = flow.run(source, method);
        expect_energy_equal(streamed.energy, expected.energy);
        ASSERT_EQ(streamed.solution.arch.num_banks(), expected.solution.arch.num_banks());
        for (std::size_t b = 0; b < expected.solution.arch.num_banks(); ++b) {
            EXPECT_EQ(streamed.solution.arch.banks()[b].first_block,
                      expected.solution.arch.banks()[b].first_block);
            EXPECT_EQ(streamed.solution.arch.banks()[b].num_blocks,
                      expected.solution.arch.banks()[b].num_blocks);
        }
    }
    const FlowComparison expected = flow.compare(reference, ClusterMethod::Affinity);
    SyntheticSource source(spec, 10000);
    const FlowComparison streamed = flow.compare(source, ClusterMethod::Affinity);
    expect_energy_equal(streamed.monolithic, expected.monolithic);
    expect_energy_equal(streamed.partitioned.energy, expected.partitioned.energy);
    expect_energy_equal(streamed.clustered.energy, expected.clustered.energy);
}

// ------------------------------------------------------ mtsc container ----

class StreamFileTest : public ::testing::Test {
protected:
    void TearDown() override {
        for (const std::string& path : cleanup_) std::remove(path.c_str());
    }

    std::string path(const std::string& name) {
        const std::string p = temp_path(name);
        cleanup_.push_back(p);
        return p;
    }

    std::vector<std::string> cleanup_;
};

TEST_F(StreamFileTest, RoundTripUncompressed) {
    const MemTrace trace = mixed_trace(10000);
    const std::string file = path("plain.mtsc");
    StreamWriteOptions opts;
    opts.chunk_accesses = 1024;
    MaterializedSource input(trace);
    const TraceSummary written = write_trace_stream(file, input, opts);
    EXPECT_EQ(written.accesses, trace.size());
    expect_summaries_equal(written, trace.summary());

    MmapBinarySource source(file);
    EXPECT_FALSE(source.compressed());
    // Chunks point into a window that a later call may unmap.
    EXPECT_FALSE(source.stable_chunks());
    EXPECT_EQ(source.chunk_accesses(), 1024u);
    EXPECT_EQ(source.size(), trace.size());
    // The summary comes straight from the header — no replay needed.
    expect_summaries_equal(source.summary(), trace.summary());
    EXPECT_EQ(source.summary().max_addr, written.max_addr);
    expect_traces_equal(drain(source), trace);
    expect_traces_equal(drain(source), trace);  // second pass after reset
}

TEST_F(StreamFileTest, RoundTripCompressed) {
    const MemTrace trace = mixed_trace(10000);
    const std::string file = path("packed.mtsc");
    StreamWriteOptions opts;
    opts.chunk_accesses = 2048;
    opts.compress = true;
    MaterializedSource input(trace);
    write_trace_stream(file, input, opts);
    MmapBinarySource source(file);
    EXPECT_TRUE(source.compressed());
    EXPECT_FALSE(source.stable_chunks());
    expect_traces_equal(drain(source), trace);
    expect_traces_equal(drain(source), trace);
}

TEST_F(StreamFileTest, CompressionShrinksRegularTraces) {
    // A strided trace has small address deltas — the diff codec should win.
    const MemTrace trace =
        materialize_synthetic(parse_synthetic_spec("stride,span=65536,n=20000,stride=4"));
    const std::string plain = path("a.mtsc"), packed = path("b.mtsc");
    MaterializedSource input(trace);
    write_trace_stream(plain, input);
    StreamWriteOptions opts;
    opts.compress = true;
    write_trace_stream(packed, input, opts);
    std::ifstream pa(plain, std::ios::ate | std::ios::binary);
    std::ifstream pb(packed, std::ios::ate | std::ios::binary);
    EXPECT_LT(pb.tellg(), pa.tellg());
}

TEST_F(StreamFileTest, WriterRechunksArbitrarySourceChunks) {
    const MemTrace trace = mixed_trace(5000);
    const std::string file = path("rechunk.mtsc");
    MaterializedSource source(trace, 333);  // deliberately != container chunk
    StreamWriteOptions opts;
    opts.chunk_accesses = 1000;
    write_trace_stream(file, source, opts);
    MmapBinarySource reader(file);
    EXPECT_EQ(reader.chunk_accesses(), 1000u);
    EXPECT_EQ(reader.block_count(), 5u);
    expect_traces_equal(drain(reader), trace);
}

TEST_F(StreamFileTest, EmptyTraceRoundTrips) {
    const std::string file = path("empty.mtsc");
    const MemTrace empty;
    MaterializedSource input(empty);
    write_trace_stream(file, input);
    MmapBinarySource source(file);
    EXPECT_EQ(source.size(), 0u);
    TraceChunk chunk;
    EXPECT_FALSE(source.next(chunk));
}

TEST_F(StreamFileTest, InvalidWriteOptionsThrow) {
    const MemTrace trace = mixed_trace(10);
    MaterializedSource input(trace);
    StreamWriteOptions opts;
    opts.chunk_accesses = 0;
    EXPECT_THROW(write_trace_stream(path("bad0.mtsc"), input, opts), Error);
    opts.chunk_accesses = kMaxStreamChunkAccesses + 1;
    EXPECT_THROW(write_trace_stream(path("bad1.mtsc"), input, opts), Error);
}

/// Drain `source` through next_batch(): every batch holds at most
/// `max_chunks` chunks continuing the previous one, and its spans are read
/// only after the call returns, so every chunk of a batch must stay
/// readable until the next call.
MemTrace drain_batches(TraceSource& source, std::size_t max_chunks, std::size_t jobs) {
    source.reset();
    MemTrace out;
    std::vector<TraceChunk> batch;
    std::uint64_t expected_first = 0;
    while (source.next_batch(batch, max_chunks, jobs)) {
        EXPECT_LE(batch.size(), max_chunks);
        for (const TraceChunk& chunk : batch) {
            EXPECT_EQ(chunk.first_index, expected_first);
            EXPECT_FALSE(chunk.empty());
            expected_first += chunk.size();
        }
        for (const TraceChunk& chunk : batch)
            for (std::size_t i = 0; i < chunk.size(); ++i)
                out.add(MemAccess{chunk.addrs[i], chunk.cycles[i], chunk.values[i],
                                  chunk.sizes[i], chunk.kinds[i]});
    }
    EXPECT_TRUE(batch.empty());
    EXPECT_EQ(expected_first, source.size());
    return out;
}

TEST_F(StreamFileTest, NextBatchDeliversTheSequenceOfNext) {
    // 10007 accesses: neither 333 nor 1000 divides it.
    const MemTrace trace = mixed_trace(10007);
    const SyntheticSpec spec =
        parse_synthetic_spec("hotspot,span=16384,n=10007,seed=11,write=0.4,hotspots=3,"
                             "hotspot-bytes=512,hot-frac=0.85");
    const std::string plain = path("batch_plain.mtsc"), packed = path("batch_packed.mtsc");
    {
        MaterializedSource input(trace, 333);
        StreamWriteOptions opts;
        opts.chunk_accesses = 1000;
        write_trace_stream(plain, input, opts);
        opts.compress = true;
        write_trace_stream(packed, input, opts);
    }
    MaterializedSource materialized(trace, 333);
    SyntheticSource synthetic(spec, 333);
    MmapBinarySource mapped(plain);
    MmapBinarySource compressed(packed);
    MmapBinarySource wrapped_file(plain);
    ForwardingSource forward_stable(materialized);
    ForwardingSource forward_file(wrapped_file);
    const std::pair<const char*, TraceSource*> sources[] = {
        {"materialized", &materialized},     {"synthetic", &synthetic},
        {"plain .mtsc", &mapped},            {"compressed .mtsc", &compressed},
        {"forwarding, stable", &forward_stable}, {"forwarding, .mtsc", &forward_file}};
    for (const auto& [name, source] : sources) {
        const MemTrace serial = drain(*source);
        expect_traces_equal(serial, trace);
        for (const std::size_t max_chunks : {1, 2, 5}) {
            for (const std::size_t jobs : {1, 4}) {
                SCOPED_TRACE(std::string(name) + ", max_chunks " + std::to_string(max_chunks) +
                             ", jobs " + std::to_string(jobs));
                expect_traces_equal(drain_batches(*source, max_chunks, jobs), serial);
            }
        }
    }
}

TEST_F(StreamFileTest, BatchesCrossWindowBoundaries) {
    // 200003 accesses make a 4.4 MB plain container, more than one 4 MiB
    // window: blocks of 1000 accesses pack many to a window and one
    // straddles its end; blocks of 65536 accesses (1.44 MB) fit two and a
    // part. Every read must map past the first window and stay in bounds.
    const MemTrace trace = mixed_trace(200003);
    for (const std::size_t chunk : {std::size_t{1000}, kDefaultTraceChunk}) {
        const std::string file = path("windows_" + std::to_string(chunk) + ".mtsc");
        MaterializedSource input(trace);
        StreamWriteOptions opts;
        opts.chunk_accesses = chunk;
        write_trace_stream(file, input, opts);
        MmapBinarySource source(file);
        SCOPED_TRACE("chunk " + std::to_string(chunk));
        expect_traces_equal(drain(source), trace);
        expect_traces_equal(drain_batches(source, 3, 4), trace);
    }
}

TEST_F(StreamFileTest, CompressedWriteIsJobsInvariant) {
    // Source chunks of 333 accesses into 1000-access blocks, the last one
    // 7 accesses short of full: every byte must match at any job count.
    const MemTrace trace = mixed_trace(9993);
    const std::string one = path("jobs1.mtsc"), four = path("jobs4.mtsc");
    StreamWriteOptions opts;
    opts.chunk_accesses = 1000;
    opts.compress = true;
    for (const auto& [jobs, file] : {std::pair{std::size_t{1}, one}, std::pair{std::size_t{4}, four}}) {
        set_default_jobs(jobs);
        MaterializedSource input(trace, 333);
        write_trace_stream(file, input, opts);
    }
    set_default_jobs(0);
    std::ifstream a(one, std::ios::binary), b(four, std::ios::binary);
    const std::string bytes_one((std::istreambuf_iterator<char>(a)), std::istreambuf_iterator<char>());
    const std::string bytes_four((std::istreambuf_iterator<char>(b)), std::istreambuf_iterator<char>());
    EXPECT_FALSE(bytes_one.empty());
    EXPECT_EQ(bytes_one, bytes_four);
    MmapBinarySource reader(four);
    EXPECT_EQ(reader.block_count(), 10u);
    expect_traces_equal(drain(reader), trace);
}

/// Delivers two raw accesses in one chunk without a seeded summary: one at
/// 0x100 and one 4-byte access at `top`.
class TopAccessSource final : public TraceSource {
public:
    explicit TopAccessSource(std::uint64_t top) : addrs_{0x100, top} {}
    std::uint64_t size() const override { return 2; }
    void reset() override { done_ = false; }
    bool next(TraceChunk& chunk) override {
        if (done_) {
            chunk = TraceChunk{};
            return false;
        }
        done_ = true;
        chunk = TraceChunk(0, addrs_, cycles_, values_, sizes_, kinds_);
        return true;
    }

private:
    std::vector<std::uint64_t> addrs_;
    std::vector<std::uint64_t> cycles_ = {0, 1};
    std::vector<std::uint32_t> values_ = {0, 0};
    std::vector<std::uint8_t> sizes_ = {4, 4};
    std::vector<AccessKind> kinds_ = {AccessKind::Read, AccessKind::Write};
    bool done_ = false;
};

TEST_F(StreamFileTest, AccessPastTopOfAddressSpaceThrows) {
    const auto expect_message = [](const auto& call, const std::string& what) {
        try {
            call();
            ADD_FAILURE() << "accepted; expected: " << what;
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
        }
    };
    const std::string past = "access at 0xfffffffffffffffe of 4 bytes runs past";
    {
        TopAccessSource source(0xFFFFFFFFFFFFFFFEull);
        expect_message([&] { source.summary(); }, past);
    }
    {
        TopAccessSource source(0xFFFFFFFFFFFFFFFEull);
        expect_message([&] { BlockProfile::from_source(source, 256); }, past);
    }
    {
        TopAccessSource source(0xFFFFFFFFFFFFFFFEull);
        const std::string file = path("past_top.mtsc");
        expect_message([&] { write_trace_stream(file, source); }, past);
        EXPECT_FALSE(std::ifstream(file).good());
        EXPECT_FALSE(std::ifstream(file + ".tmp").good());
    }
    // An access that ends exactly at 2^64 - 1 is valid; the profile then
    // meets its own geometry limit.
    TopAccessSource source(0xFFFFFFFFFFFFFFFCull);
    EXPECT_EQ(source.summary().max_addr, std::numeric_limits<std::uint64_t>::max());
    expect_message([&] { BlockProfile::from_source(source, 256); }, "profile: highest address");
}

// ------------------------------------------------- corruption handling ----

// Byte-patching helpers for the fuzz cases below.
std::vector<std::uint8_t> slurp(const std::string& file) {
    std::ifstream is(file, std::ios::binary);
    return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(is)),
                                     std::istreambuf_iterator<char>());
}

void spit(const std::string& file, const std::vector<std::uint8_t>& bytes) {
    std::ofstream os(file, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
}

void store_le64(std::vector<std::uint8_t>& bytes, std::size_t at, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t load_le64(const std::vector<std::uint8_t>& bytes, std::size_t at) {
    std::uint64_t v = 0;
    for (std::size_t i = 8; i-- > 0;) v = (v << 8) | bytes[at + i];
    return v;
}

/// The .mtsc v2 block checksum written straight from the stream_file.hpp
/// layout comment, one word at a time: the reference the library's
/// striped implementation is checked against, and the seal the fuzz cases
/// below reseal crafted payloads with.
std::uint64_t test_checksum_v2(const std::uint8_t* data, std::size_t n) {
    constexpr std::uint64_t P1 = 0x9E3779B185EBCA87ULL;
    constexpr std::uint64_t P2 = 0xC2B2AE3D27D4EB4FULL;
    constexpr std::uint64_t P3 = 0x165667B19E3779F9ULL;
    std::uint64_t lane[4] = {P1 + P2, P2, 0, 0 - P1};
    const std::size_t padded = (n + 31) / 32 * 32;  // zero-padded last stripe
    for (std::size_t k = 0; k * 8 < padded; ++k) {
        std::uint64_t word = 0;
        for (std::size_t b = 8; b-- > 0;) {
            const std::size_t at = k * 8 + b;
            word = (word << 8) | (at < n ? data[at] : 0u);
        }
        lane[k % 4] = std::rotl(lane[k % 4] + word * P2, 31) * P1;
    }
    std::uint64_t h = std::rotl(lane[0], 1) + std::rotl(lane[1], 7) + std::rotl(lane[2], 12) +
                      std::rotl(lane[3], 18) + n;
    h ^= h >> 33;
    h *= P2;
    h ^= h >> 29;
    h *= P3;
    h ^= h >> 32;
    return h;
}

/// Deterministic test bytes for the checksum vectors.
std::vector<std::uint8_t> pattern_bytes(std::size_t n) {
    std::vector<std::uint8_t> bytes(n);
    for (std::size_t i = 0; i < n; ++i) bytes[i] = static_cast<std::uint8_t>(i * 131 + 17);
    return bytes;
}

TEST(StreamChecksumTest, KnownAnswerVectors) {
    // Freezes the v2 on-disk seal: lengths around the 8-byte word and the
    // 32-byte stripe boundaries, plus a multi-tile length with a tail.
    const std::pair<std::size_t, std::uint64_t> vectors[] = {
        {0, 0x9090306C6E91ED59ULL},    {1, 0x3B12750D5B2226BAULL},
        {7, 0xB261C568D7F4D8A1ULL},    {8, 0xFD706C507D743F3FULL},
        {31, 0xE9647C4D187A33A8ULL},   {32, 0x1D34C5B48653EFF8ULL},
        {33, 0xD9FAB320881D315AULL},   {4101, 0x91BF770421AAD07AULL},
    };
    for (const auto& [n, want] : vectors) {
        const auto bytes = pattern_bytes(n);
        EXPECT_EQ(mtsc_block_checksum(bytes.data(), n), want) << n << " bytes";
        EXPECT_EQ(test_checksum_v2(bytes.data(), n), want) << n << " bytes";
    }
}

TEST(StreamChecksumTest, StripedMatchesWordAtATimeReference) {
    const auto bytes = pattern_bytes(1000);
    for (std::size_t n = 0; n <= bytes.size(); ++n)
        ASSERT_EQ(mtsc_block_checksum(bytes.data(), n), test_checksum_v2(bytes.data(), n)) << n;
}

class StreamFuzzTest : public StreamFileTest {
protected:
    /// Write a small valid container and return its bytes.
    std::vector<std::uint8_t> valid_container(const std::string& name,
                                              std::size_t n = 600,
                                              std::size_t chunk = 256,
                                              bool compress = false) {
        file_ = path(name);
        StreamWriteOptions opts;
        opts.chunk_accesses = chunk;
        opts.compress = compress;
        const MemTrace trace = mixed_trace(n);
        MaterializedSource input(trace);
        write_trace_stream(file_, input, opts);
        return slurp(file_);
    }

    void expect_rejected(const std::vector<std::uint8_t>& bytes) {
        spit(file_, bytes);
        EXPECT_THROW(
            {
                MmapBinarySource source(file_);
                TraceChunk chunk;
                while (source.next(chunk)) {
                }
            },
            Error);
    }

    /// expect_rejected, and the diagnostic must contain `what`.
    void expect_rejected_with(const std::vector<std::uint8_t>& bytes, const std::string& what) {
        spit(file_, bytes);
        try {
            MmapBinarySource source(file_);
            TraceChunk chunk;
            while (source.next(chunk)) {
            }
            ADD_FAILURE() << "corrupt container accepted; expected: " << what;
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
        }
    }

    std::string file_;
};

TEST_F(StreamFuzzTest, MissingFileThrows) {
    EXPECT_THROW(MmapBinarySource("/nonexistent/trace.mtsc"), Error);
}

TEST_F(StreamFuzzTest, BadMagicRejected) {
    auto bytes = valid_container("magic.mtsc");
    bytes[0] ^= 0xFF;
    expect_rejected(bytes);
}

TEST_F(StreamFuzzTest, BadVersionRejected) {
    auto bytes = valid_container("version.mtsc");
    bytes[4] = 99;
    expect_rejected_with(bytes, "version 99");
    // Version 1 (FNV-1a seals) is no longer read; the diagnostic says how
    // to get a readable file.
    bytes[4] = 1;
    expect_rejected_with(bytes, ".mtsc version 1, this reader reads version 2 only; "
                                "regenerate it with `memopt_cli trace`");
}

TEST_F(StreamFuzzTest, TruncatedHeaderRejected) {
    auto bytes = valid_container("header.mtsc");
    bytes.resize(40);
    expect_rejected(bytes);
}

TEST_F(StreamFuzzTest, TruncatedOffsetTableRejected) {
    auto bytes = valid_container("table.mtsc");
    bytes.resize(64 + 4);  // header intact, table cut short
    expect_rejected(bytes);
}

TEST_F(StreamFuzzTest, OversizedBlockCountRejectedWithoutAllocation) {
    auto bytes = valid_container("count.mtsc");
    // A lying block count must fail the bounded offset-table check before
    // it can drive any count-sized allocation.
    bytes[20] = 0xFF;
    bytes[21] = 0xFF;
    bytes[22] = 0xFF;
    bytes[23] = 0x7F;
    expect_rejected(bytes);
}

TEST_F(StreamFuzzTest, ZeroChunkSizeRejected) {
    auto bytes = valid_container("chunk0.mtsc");
    bytes[16] = bytes[17] = bytes[18] = bytes[19] = 0;
    expect_rejected(bytes);
}

TEST_F(StreamFuzzTest, TruncatedBlockPayloadRejected) {
    auto bytes = valid_container("payload.mtsc");
    bytes.resize(bytes.size() - 16);
    expect_rejected(bytes);
}

TEST_F(StreamFuzzTest, FlippedPayloadByteFailsChecksum) {
    auto bytes = valid_container("flip.mtsc");
    bytes[bytes.size() - 3] ^= 0x40;  // inside the last block's payload
    expect_rejected_with(bytes, "block 2: checksum mismatch");
}

/// The message of the first error a drain through next_batch() meets, or
/// "" when it meets none.
std::string batch_drain_error(const std::string& file, std::size_t max_chunks, std::size_t jobs) {
    try {
        MmapBinarySource source(file);
        std::vector<TraceChunk> batch;
        while (source.next_batch(batch, max_chunks, jobs)) {
        }
    } catch (const Error& e) {
        return e.what();
    }
    return "";
}

TEST_F(StreamFuzzTest, BatchReportsItsLowestFaultyBlock) {
    // Eight blocks; the second batch of four holds two faults. Whichever
    // fault comes first in block order is the one reported, at any job
    // count, as a block-by-block read reports it: a later block's bad
    // offset must not pre-empt an earlier block's checksum, nor the
    // reverse.
    const auto pristine = valid_container("order.mtsc", 800, 100);
    const auto table_entry = [](std::uint32_t block) { return 64 + 8 * std::size_t{block}; };
    const auto flip_payload = [&](std::vector<std::uint8_t>& bytes, std::uint32_t block) {
        bytes[load_le64(pristine, table_entry(block)) + 24 + 10] ^= 0x40;
    };
    auto checksum_then_offset = pristine;
    flip_payload(checksum_then_offset, 5);
    store_le64(checksum_then_offset, table_entry(6), 3);
    auto offset_then_checksum = pristine;
    store_le64(offset_then_checksum, table_entry(5), 3);
    flip_payload(offset_then_checksum, 6);
    const std::pair<std::vector<std::uint8_t>, std::string> cases[] = {
        {checksum_then_offset, "stream trace: block 5: checksum mismatch"},
        {offset_then_checksum, "stream trace: block 5: bad offset"}};
    for (const auto& [bytes, want] : cases) {
        spit(file_, bytes);
        expect_rejected_with(bytes, want);  // serial next()
        for (const std::size_t jobs : {1, 4}) {
            SCOPED_TRACE(want + ", jobs " + std::to_string(jobs));
            EXPECT_EQ(batch_drain_error(file_, 4, jobs), want);
        }
    }
}

TEST_F(StreamFuzzTest, OffsetTableEntriesMustChain) {
    // Two blocks of 1000 accesses. An entry for block 1 that points at
    // block 0 passes every check of the block it points at (magic, count,
    // payload size, seal), so only the chain catches it: block 1 must start
    // where block 0 and its padding end.
    for (const bool compress : {false, true}) {
        SCOPED_TRACE(compress ? "compressed" : "plain");
        auto bytes = valid_container(compress ? "chain_z.mtsc" : "chain.mtsc", 2000, 1000,
                                     compress);
        store_le64(bytes, 64 + 8, load_le64(bytes, 64));
        const std::string want = "stream trace: block 1: bad offset";
        expect_rejected_with(bytes, want);  // serial next()
        for (const std::size_t jobs : {1, 4}) EXPECT_EQ(batch_drain_error(file_, 2, jobs), want);
        // The cursor's chain restarts with every pass.
        spit(file_, valid_container(compress ? "chain_z.mtsc" : "chain.mtsc", 2000, 1000,
                                    compress));
        MmapBinarySource source(file_);
        for (int pass = 0; pass < 2; ++pass) {
            source.reset();
            std::uint64_t accesses = 0;
            TraceChunk chunk;
            while (source.next(chunk)) accesses += chunk.size();
            EXPECT_EQ(accesses, 2000u);
        }
    }
}

TEST_F(StreamFuzzTest, EverySingleBitFlipFailsChecksum) {
    // A 3-record block has a 66-byte payload: two whole 32-byte stripes and
    // a 2-byte tail. Every one of its 528 single-bit flips must break the
    // seal on its own, before any record-content check could step in.
    const auto pristine = valid_container("bits.mtsc", 3, 256);
    const std::size_t block_off = 64 + 8;
    const std::size_t payload_off = block_off + 24;
    ASSERT_EQ(pristine.size(), payload_off + 66 + 6);  // 66 bytes + padding
    const std::uint64_t seal = load_le64(pristine, block_off + 16);
    std::vector<std::uint8_t> payload(pristine.begin() + payload_off,
                                      pristine.begin() + payload_off + 66);
    ASSERT_EQ(mtsc_block_checksum(payload.data(), payload.size()), seal);
    for (std::size_t bit = 0; bit < payload.size() * 8; ++bit) {
        payload[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        EXPECT_NE(mtsc_block_checksum(payload.data(), payload.size()), seal) << "bit " << bit;
        payload[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    // End to end, through the reader: one flip in each stripe and in the tail.
    for (const std::size_t bit : {5u, 300u, 525u}) {
        auto bytes = pristine;
        bytes[payload_off + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        expect_rejected_with(bytes, "block 0: checksum mismatch");
    }
}

TEST_F(StreamFuzzTest, OneByteTruncatedPayloadFailsChecksum) {
    const auto image = pattern_bytes(66);
    EXPECT_NE(mtsc_block_checksum(image.data(), 65), mtsc_block_checksum(image.data(), 66));
    // A compressed payload has no fixed size, so a block whose stored length
    // lost one byte passes every structural check and only the seal can
    // catch it.
    auto bytes = valid_container("short.mtsc", 3, 256, /*compress=*/true);
    const std::size_t block_off = 64 + 8;
    store_le64(bytes, block_off + 8, load_le64(bytes, block_off + 8) - 1);
    expect_rejected_with(bytes, "block 0: checksum mismatch");
}

TEST_F(StreamFuzzTest, CorruptSummaryCountsRejected) {
    auto bytes = valid_container("summary.mtsc");
    store_le64(bytes, 48, 12345);  // reads counter no longer sums with writes
    expect_rejected(bytes);
}

TEST_F(StreamFuzzTest, InvalidSizeByteRejectedEvenWithValidChecksum) {
    // Patch a sizes-column byte to an invalid width and re-seal the block's
    // checksum: content validation must still reject the record.
    auto bytes = valid_container("size.mtsc", 100, 256);  // single block
    const std::size_t block_off = 64 + 8;                 // header + 1-entry table
    const std::size_t payload_off = block_off + 24;
    const std::size_t n = 100;
    const std::size_t sizes_off = payload_off + 8 * n + 8 * n + 4 * n;
    bytes[sizes_off + 7] = 3;  // not one of 1/2/4/8
    const std::size_t payload_bytes = bytes.size() - payload_off;
    store_le64(bytes, block_off + 16, test_checksum_v2(bytes.data() + payload_off, payload_bytes));
    expect_rejected_with(bytes, "block 0: record 7 has invalid access size 3");
}

TEST_F(StreamFuzzTest, AddressOutsideSummaryRejectedEvenWithValidChecksum) {
    // Patch an addrs-column entry past the header's max_addr and re-seal
    // the block checksum: the per-block FNV-1a only proves the payload
    // matches its own seal, so content validation must still pin every
    // address inside the header summary before delivery.
    auto bytes = valid_container("addr.mtsc", 100, 256);  // single block
    const std::size_t block_off = 64 + 8;                 // header + 1-entry table
    const std::size_t payload_off = block_off + 24;
    store_le64(bytes, payload_off + 8 * 7, std::uint64_t{1} << 60);  // addrs[7]
    const std::size_t payload_bytes = bytes.size() - payload_off;
    store_le64(bytes, block_off + 16, test_checksum_v2(bytes.data() + payload_off, payload_bytes));
    expect_rejected_with(bytes, "block 0: record 7 address outside the header summary range");
}

TEST_F(StreamFuzzTest, AccessStraddlingSummaryMaxRejectedEvenWithValidChecksum) {
    // An address inside [min_addr, max_addr] whose access runs past
    // max_addr: the in-pass screen cannot see the size next to the address,
    // so it must hand the block to the exact per-record check.
    auto bytes = valid_container("straddle.mtsc", 100, 256);
    const std::size_t block_off = 64 + 8;
    const std::size_t payload_off = block_off + 24;
    const std::size_t n = 100;
    store_le64(bytes, payload_off + 8 * 9, load_le64(bytes, 40) - 1);  // addrs[9] = max_addr - 1
    bytes[payload_off + 20 * n + 9] = 4;                                // sizes[9]
    const std::size_t payload_bytes = bytes.size() - payload_off;
    store_le64(bytes, block_off + 16, test_checksum_v2(bytes.data() + payload_off, payload_bytes));
    expect_rejected_with(bytes, "block 0: record 9 address outside the header summary range");
}

TEST_F(StreamFuzzTest, EverySizeAndKindByteValueJudgedExactly) {
    // Resealed single-record patches over all 256 byte values: exactly
    // sizes 1/2/4/8 and kinds 0/1 are delivered. The patched block has no
    // address within 8 bytes of max_addr, so the in-pass screen judges it
    // alone, without the exact per-record fallback.
    constexpr std::size_t n = 100;
    const auto pristine = valid_container("bytevals.mtsc", 6 * n, n);  // six blocks
    const std::uint64_t max_addr = load_le64(pristine, 40);
    std::size_t payload_off = 0;
    for (std::size_t b = 0; b < 6 && payload_off == 0; ++b) {
        const std::size_t block_payload = load_le64(pristine, 64 + 8 * b) + 24;
        bool far = true;
        for (std::size_t r = 0; r < n; ++r)
            far = far && load_le64(pristine, block_payload + 8 * r) + 8 <= max_addr;
        if (far) payload_off = block_payload;
    }
    ASSERT_NE(payload_off, 0u);
    for (unsigned v = 0; v < 256; ++v) {
        for (const bool size_column : {true, false}) {
            auto bytes = pristine;
            bytes[payload_off + (size_column ? 20 : 21) * n + 3] = static_cast<std::uint8_t>(v);
            store_le64(bytes, payload_off - 8,  // the block's seal
                       test_checksum_v2(bytes.data() + payload_off, 22 * n));
            const bool valid = size_column ? (v == 1 || v == 2 || v == 4 || v == 8) : v <= 1;
            SCOPED_TRACE((size_column ? "size " : "kind ") + std::to_string(v));
            if (valid) {
                spit(file_, bytes);
                MmapBinarySource source(file_);
                EXPECT_NO_THROW(drain(source));
            } else {
                expect_rejected_with(bytes, size_column ? "record 3 has invalid access size"
                                                        : "record 3 has invalid access kind");
            }
        }
    }
}

TEST_F(StreamFuzzTest, ProfileFromPatchedAddressesFailsWithDiagnostic) {
    // BlockProfile::from_source sizes its count arrays from the source
    // summary and indexes them without per-access bounds checks; a payload
    // whose addresses exceed the header summary must surface as a block
    // diagnostic from the source, never as an out-of-bounds write.
    auto bytes = valid_container("addrprof.mtsc", 100, 256);
    const std::size_t block_off = 64 + 8;
    const std::size_t payload_off = block_off + 24;
    store_le64(bytes, payload_off + 8 * 3, std::uint64_t{1} << 44);
    const std::size_t payload_bytes = bytes.size() - payload_off;
    store_le64(bytes, block_off + 16, test_checksum_v2(bytes.data() + payload_off, payload_bytes));
    spit(file_, bytes);
    MmapBinarySource source(file_);
    try {
        BlockProfile::from_source(source, 64, 1);
        ADD_FAILURE() << "patched addresses were profiled";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "block 0: record 3 address outside the header summary range"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(StreamFuzzTest, HugeHeaderCountRejectedAgainstFileSize) {
    // Claim block_count * 2^24 accesses with a matching chunk size: the
    // block-count/offset-table checks all pass, but an uncompressed
    // container cannot hold 22 bytes per claimed access, so the open-time
    // file-size bound must reject it before any count-sized allocation.
    auto bytes = valid_container("hugecount.mtsc", 600, 256);  // 3 blocks
    const std::uint64_t count = std::uint64_t{3} << 24;
    store_le64(bytes, 8, count);
    // chunk_accesses = 2^24 (u32 at 16) and block_count = 3 (u32 at 20).
    store_le64(bytes, 16, (std::uint64_t{3} << 32) | (std::uint64_t{1} << 24));
    store_le64(bytes, 48, count);  // reads
    store_le64(bytes, 56, 0);      // writes
    expect_rejected(bytes);
}

TEST_F(StreamFuzzTest, HugeHeaderCountCompressedFailsFastOnFirstBlock) {
    // A compressed container has no fixed per-access payload size, so the
    // lying count survives the open-time checks; the reader must fail on
    // the first block's access-count mismatch rather than allocate from
    // the header.
    auto bytes = valid_container("hugecountz.mtsc", 600, 256, /*compress=*/true);
    const std::uint64_t count = std::uint64_t{3} << 24;
    store_le64(bytes, 8, count);
    store_le64(bytes, 16, (std::uint64_t{3} << 32) | (std::uint64_t{1} << 24));
    store_le64(bytes, 48, count);
    store_le64(bytes, 56, 0);
    expect_rejected(bytes);
}

TEST_F(StreamFuzzTest, InvalidKindByteRejectedEvenWithValidChecksum) {
    auto bytes = valid_container("kind.mtsc", 100, 256);
    const std::size_t block_off = 64 + 8;
    const std::size_t payload_off = block_off + 24;
    const std::size_t n = 100;
    const std::size_t kinds_off = payload_off + 8 * n + 8 * n + 4 * n + n;
    bytes[kinds_off + 5] = 7;  // AccessKind is 0 or 1
    const std::size_t payload_bytes = bytes.size() - payload_off;
    store_le64(bytes, block_off + 16, test_checksum_v2(bytes.data() + payload_off, payload_bytes));
    expect_rejected_with(bytes, "block 0: record 5 has invalid access kind");
}

// --------------------------------------------------- streaming writers ----

TEST_F(StreamFileTest, StreamingTextAndBinaryWritersMatchMaterialized) {
    const MemTrace trace = mixed_trace(2000);
    MaterializedSource reference(trace);  // default chunking
    MaterializedSource source(trace, 300);
    std::ostringstream text_a, text_b;
    write_trace_text(text_a, reference);
    write_trace_text(text_b, source);
    EXPECT_EQ(text_a.str(), text_b.str());
}

// ------------------------------------------------------ repository specs ----

TEST(WorkloadStreamTest, OpenTraceSourceResolvesSpecs) {
    WorkloadRepository repo;
    const auto synth = repo.open_trace_source("synthetic:uniform,span=4096,n=1234,seed=1");
    EXPECT_EQ(synth->size(), 1234u);
    EXPECT_THROW(repo.open_trace_source("synthetic:nope"), Error);
    EXPECT_THROW(repo.open_trace_source("no-such-kernel"), Error);
    EXPECT_THROW(repo.open_trace_source("/nonexistent/trace.txt"), Error);
}

TEST(WorkloadStreamTest, KernelSourceAliasesCachedArtifact) {
    WorkloadRepository repo;
    const auto source = repo.open_trace_source("matmul");
    const KernelRunPtr artifact = repo.run("matmul");
    EXPECT_EQ(repo.simulation_count(), 1u);  // one simulation serves both
    EXPECT_EQ(source->size(), artifact->result.data_trace.size());
    TraceChunk chunk;
    ASSERT_TRUE(source->next(chunk));
    // Chunks alias the repository's trace columns — no copy was made.
    EXPECT_EQ(chunk.addrs.data(), artifact->result.data_trace.addrs().data());
}

}  // namespace
}  // namespace memopt
