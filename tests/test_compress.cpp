// Unit and property tests for the compression stack: bitstreams, codecs
// (round-trip over adversarial and random data), and the compressed-memory
// simulation invariants.
#include <gtest/gtest.h>

#include "cache/memsys.hpp"
#include "cache/platform.hpp"
#include "compress/bdi_codec.hpp"
#include "compress/dictionary_codec.hpp"
#include "compress/diff_codec.hpp"
#include "compress/zero_run.hpp"
#include "sim/kernels.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"
#include "trace/source.hpp"
#include "trace/synthetic.hpp"

namespace memopt {
namespace {

// ------------------------------------------------------------ bitstream ----

TEST(BitStream, RoundTripBits) {
    BitWriter w;
    w.put_bit(true);
    w.put_bit(false);
    w.put_bits(0b1011, 4);
    w.put_bits(0xDEADBEEF, 32);
    EXPECT_EQ(w.bit_count(), 38u);
    BitReader r(w.bytes());
    EXPECT_TRUE(r.get_bit());
    EXPECT_FALSE(r.get_bit());
    EXPECT_EQ(r.get_bits(4), 0b1011u);
    EXPECT_EQ(r.get_bits(32), 0xDEADBEEFu);
}

TEST(BitStream, ReadPastEndThrows) {
    BitWriter w;
    w.put_bits(0x3, 2);
    BitReader r(w.bytes());
    r.get_bits(2);
    // The writer produced one byte, so 6 padding bits remain, then EOF.
    r.get_bits(6);
    EXPECT_THROW(r.get_bit(), Error);
}

TEST(LineWords, RoundTrip) {
    const std::vector<std::uint8_t> line{1, 2, 3, 4, 5, 6, 7, 8};
    const auto words = line_words(line);
    ASSERT_EQ(words.size(), 2u);
    EXPECT_EQ(words[0], 0x04030201u);
    EXPECT_EQ(words_to_line(words), line);
    EXPECT_THROW(line_words(std::vector<std::uint8_t>{1, 2, 3}), Error);
}

// --------------------------------------------------------------- codecs ----

std::vector<std::uint8_t> make_line(const std::vector<std::uint32_t>& words) {
    return words_to_line(words);
}

struct CodecCase {
    std::string name;
    std::vector<std::uint8_t> line;
};

std::vector<CodecCase> codec_cases() {
    Rng rng(1234);
    std::vector<CodecCase> cases;
    cases.push_back({"all_zero", std::vector<std::uint8_t>(32, 0)});
    cases.push_back({"all_ff", std::vector<std::uint8_t>(32, 0xFF)});
    cases.push_back({"constant_words", make_line(std::vector<std::uint32_t>(8, 0xCAFEBABE))});
    {
        std::vector<std::uint32_t> counter;
        for (std::uint32_t i = 0; i < 8; ++i) counter.push_back(0x10000000 + i * 4);
        cases.push_back({"pointer_sequence", make_line(counter)});
    }
    {
        std::vector<std::uint32_t> rnd;
        for (int i = 0; i < 8; ++i) rnd.push_back(static_cast<std::uint32_t>(rng.next_u64()));
        cases.push_back({"random", make_line(rnd)});
    }
    cases.push_back({"smooth", make_line(smooth_word_stream(8, 1.0, 50, 7))});
    {
        std::vector<std::uint8_t> text;
        for (int i = 0; i < 32; ++i) text.push_back(static_cast<std::uint8_t>(i % 4));
        cases.push_back({"small_alphabet_bytes", text});
    }
    {
        // Adversarial: alternating extremes, defeats both diff modes.
        std::vector<std::uint32_t> alt;
        for (int i = 0; i < 8; ++i) alt.push_back(i % 2 ? 0xFFFFFFFF : 0x0);
        cases.push_back({"alternating_extremes", make_line(alt)});
    }
    cases.push_back({"short_line_16B", make_line(smooth_word_stream(4, 1.0, 10, 8))});
    {
        std::vector<std::uint32_t> rnd;
        for (int i = 0; i < 16; ++i) rnd.push_back(static_cast<std::uint32_t>(rng.next_u64()));
        cases.push_back({"long_line_64B", make_line(rnd)});
    }
    return cases;
}

class CodecRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CodecRoundTrip, DiffCodecLossless) {
    const CodecCase c = codec_cases()[GetParam()];
    const DiffCodec codec;
    const BitWriter coded = codec.encode(c.line);
    EXPECT_EQ(codec.decode(coded.bytes(), c.line.size()), c.line) << c.name;
    // Never expands beyond raw + 2 mode bits.
    EXPECT_LE(coded.bit_count(), c.line.size() * 8 + 2) << c.name;
    EXPECT_EQ(codec.compressed_bits(c.line), coded.bit_count());
}

TEST_P(CodecRoundTrip, ZeroRunCodecLossless) {
    const CodecCase c = codec_cases()[GetParam()];
    const ZeroRunCodec codec;
    const BitWriter coded = codec.encode(c.line);
    EXPECT_EQ(codec.decode(coded.bytes(), c.line.size()), c.line) << c.name;
    EXPECT_LE(coded.bit_count(), c.line.size() * 8 + 1) << c.name;
}

INSTANTIATE_TEST_SUITE_P(Cases, CodecRoundTrip, ::testing::Range<std::size_t>(0, 10),
                         [](const auto& info) { return codec_cases()[info.param].name; });

TEST(DiffCodec, RandomizedRoundTripSweep) {
    const DiffCodec codec;
    Rng rng(99);
    for (int trial = 0; trial < 500; ++trial) {
        const std::size_t words = 4u << rng.next_below(3);  // 16/32/64-byte lines
        std::vector<std::uint32_t> line_words_vec;
        const double smooth = rng.next_double();
        std::uint32_t v = static_cast<std::uint32_t>(rng.next_u64());
        for (std::size_t w = 0; w < words; ++w) {
            if (rng.next_bool(smooth)) {
                v += static_cast<std::uint32_t>(rng.next_in(-300, 300));
            } else {
                v = static_cast<std::uint32_t>(rng.next_u64());
            }
            line_words_vec.push_back(v);
        }
        const auto line = make_line(line_words_vec);
        EXPECT_EQ(codec.decode(codec.encode(line).bytes(), line.size()), line);
    }
}

TEST(DiffCodec, CompressesWhatItShould) {
    const DiffCodec codec;
    // Pointer runs compress to well under half.
    std::vector<std::uint32_t> ptrs;
    for (std::uint32_t i = 0; i < 8; ++i) ptrs.push_back(0x20000000 + i * 16);
    EXPECT_LT(codec.compressed_bits(make_line(ptrs)), 128u);
    // Small-alphabet bytes pick the byte mode: 2+8 header bits plus 31
    // nibble-tagged deltas (6 bits each) = 196 bits, well below raw.
    std::vector<std::uint8_t> text(32);
    for (std::size_t i = 0; i < text.size(); ++i) text[i] = i % 3;
    EXPECT_EQ(codec.compressed_bits(text), 196u);
    // Random data stays essentially raw.
    Rng rng(5);
    std::vector<std::uint32_t> rnd;
    for (int i = 0; i < 8; ++i) rnd.push_back(static_cast<std::uint32_t>(rng.next_u64()));
    EXPECT_GE(codec.compressed_bits(make_line(rnd)), 256u);
}

TEST(ZeroRunCodec, ZeroLinesCollapse) {
    const ZeroRunCodec codec;
    const std::vector<std::uint8_t> zeros(32, 0);
    EXPECT_EQ(codec.compressed_bits(zeros), 9u);  // mode bit + 8 flags
}

TEST(Codecs, RejectMalformedInput) {
    const DiffCodec codec;
    EXPECT_THROW(codec.encode({}), Error);
    EXPECT_THROW(codec.decode({}, 0), Error);
    EXPECT_THROW(codec.decode({}, 6), Error);  // not a multiple of 4
}

// ----------------------------------------------------- extension codecs ----

TEST_P(CodecRoundTrip, BdiCodecLossless) {
    const CodecCase c = codec_cases()[GetParam()];
    const BdiCodec codec;
    const BitWriter coded = codec.encode(c.line);
    EXPECT_EQ(codec.decode(coded.bytes(), c.line.size()), c.line) << c.name;
    EXPECT_LE(coded.bit_count(), c.line.size() * 8 + 3) << c.name;
}

TEST_P(CodecRoundTrip, DictionaryCodecLossless) {
    const CodecCase c = codec_cases()[GetParam()];
    // Train on the line's own words plus noise: worst and best case both
    // remain lossless.
    const auto words = line_words(c.line);
    const DictionaryCodec codec = DictionaryCodec::train(words, 8);
    const BitWriter coded = codec.encode(c.line);
    EXPECT_EQ(codec.decode(coded.bytes(), c.line.size()), c.line) << c.name;
    EXPECT_LE(coded.bit_count(), c.line.size() * 8 + 1) << c.name;
}

TEST(BdiCodec, ModeSelection) {
    const BdiCodec codec;
    EXPECT_EQ(codec.compressed_bits(std::vector<std::uint8_t>(32, 0)), 3u);  // zero line
    const auto repeated = make_line(std::vector<std::uint32_t>(8, 0xCAFEBABE));
    EXPECT_EQ(codec.compressed_bits(repeated), 35u);  // mode + base
    std::vector<std::uint32_t> near_base;
    for (std::uint32_t i = 0; i < 8; ++i) near_base.push_back(0x10000000 + i);
    EXPECT_EQ(codec.compressed_bits(make_line(near_base)), 3u + 32u + 7u * 8u);
}

TEST(BdiCodec, OutlierForcesWideDeltas) {
    // One outlier word defeats BDI but not the per-word-tagged DiffCodec.
    std::vector<std::uint32_t> words;
    for (std::uint32_t i = 0; i < 7; ++i) words.push_back(0x1000 + i);
    words.push_back(0xF0000000);
    const auto line = make_line(words);
    const BdiCodec bdi;
    const DiffCodec diff;
    EXPECT_LT(diff.compressed_bits(line), bdi.compressed_bits(line));
}

TEST(DictionaryCodec, TrainingPicksFrequentValues) {
    std::vector<std::uint32_t> stream;
    for (int i = 0; i < 100; ++i) stream.push_back(0xAAAA);
    for (int i = 0; i < 50; ++i) stream.push_back(0xBBBB);
    stream.push_back(0xCCCC);
    const DictionaryCodec codec = DictionaryCodec::train(stream, 2);
    EXPECT_EQ(codec.dictionary()[0], 0xAAAAu);
    EXPECT_EQ(codec.dictionary()[1], 0xBBBBu);
    EXPECT_EQ(codec.index_bits(), 1u);
}

TEST(DictionaryCodec, TrainsFromTraceWrites) {
    MemTrace trace;
    for (int i = 0; i < 20; ++i)
        trace.add(MemAccess{.addr = 0, .cycle = 0, .value = 0x1234, .size = 4,
                            .kind = AccessKind::Write});
    // Reads must not contribute.
    for (int i = 0; i < 100; ++i)
        trace.add(MemAccess{.addr = 0, .cycle = 0, .value = 0x9999, .size = 4,
                            .kind = AccessKind::Read});
    const DictionaryCodec codec = DictionaryCodec::train(trace.write_values(), 2);
    EXPECT_EQ(codec.dictionary()[0], 0x1234u);
}

TEST(DictionaryCodec, DictionaryHitsCompress) {
    const std::vector<std::uint32_t> dict_words{0x11, 0x22, 0x33, 0x44};
    const DictionaryCodec codec{std::vector<std::uint32_t>(dict_words)};
    const auto line = make_line({0x11, 0x22, 0x11, 0x44, 0x33, 0x11, 0x22, 0x44});
    // All 8 words hit: 1 + 8 * (1 + 2) = 25 bits.
    EXPECT_EQ(codec.compressed_bits(line), 25u);
}

TEST(DictionaryCodec, ValidatesDictionary) {
    EXPECT_THROW(DictionaryCodec(std::vector<std::uint32_t>{}), Error);
    EXPECT_THROW(DictionaryCodec(std::vector<std::uint32_t>{1, 2, 3}), Error);  // not pow2
    EXPECT_THROW(DictionaryCodec(std::vector<std::uint32_t>{1, 1}), Error);     // dup
    EXPECT_THROW(DictionaryCodec::train(std::span<const std::uint32_t>{}, 3), Error);
}

TEST(DictionaryCodec, PadsSmallTrainingSets) {
    const std::vector<std::uint32_t> tiny{0x7};
    const DictionaryCodec codec = DictionaryCodec::train(tiny, 8);
    EXPECT_EQ(codec.dictionary().size(), 8u);
    EXPECT_EQ(codec.dictionary()[0], 0x7u);
}

// --------------------------------------------------------------- memsys ----

MemTrace kernel_trace(const std::string& name, AssembledProgram& prog_out) {
    prog_out = assemble(kernel_by_name(name).source);
    return Cpu(CpuConfig{}).run(prog_out).data_trace;
}

TEST(Memsys, BaselineMovesRawTraffic) {
    AssembledProgram prog;
    const MemTrace trace = kernel_trace("histogram", prog);
    MaterializedSource source(trace);
    CompressedMemorySim sim(vliw_platform().config, nullptr);
    const auto report = sim.run(source, prog.data, prog.data_base);
    EXPECT_EQ(report.raw_traffic_bytes, report.actual_traffic_bytes);
    EXPECT_DOUBLE_EQ(report.traffic_ratio(), 1.0);
    EXPECT_DOUBLE_EQ(report.energy.component("codec"), 0.0);
    EXPECT_GT(report.energy.total(), 0.0);
}

TEST(Memsys, CompressionNeverIncreasesTraffic) {
    const DiffCodec codec;
    for (const char* name : {"histogram", "biquad", "listchase", "qsort"}) {
        AssembledProgram prog;
        const MemTrace trace = kernel_trace(name, prog);
        MaterializedSource source(trace);
        const auto base =
            CompressedMemorySim(vliw_platform().config, nullptr).run(source, prog.data, prog.data_base);
        const auto comp =
            CompressedMemorySim(vliw_platform().config, &codec).run(source, prog.data, prog.data_base);
        EXPECT_LE(comp.actual_traffic_bytes, base.actual_traffic_bytes) << name;
        // Geometry is codec-independent.
        EXPECT_EQ(comp.cache_stats.accesses(), base.cache_stats.accesses()) << name;
        EXPECT_EQ(comp.cache_stats.misses(), base.cache_stats.misses()) << name;
        EXPECT_EQ(comp.writeback_lines, base.writeback_lines) << name;
        EXPECT_EQ(comp.fill_lines, base.fill_lines) << name;
    }
}

TEST(Memsys, CompressibleWorkloadSavesMemoryEnergy) {
    const DiffCodec codec;
    AssembledProgram prog;
    const MemTrace trace = kernel_trace("listchase", prog);  // pointer-rich
    MaterializedSource source(trace);
    const auto base =
        CompressedMemorySim(vliw_platform().config, nullptr).run(source, prog.data, prog.data_base);
    const auto comp =
        CompressedMemorySim(vliw_platform().config, &codec).run(source, prog.data, prog.data_base);
    EXPECT_LT(comp.energy.component("main_memory"), base.energy.component("main_memory"));
    EXPECT_LT(comp.traffic_ratio(), 0.85);
}

TEST(Memsys, SecdedWidensStoredLinesAndChargesEcc) {
    // Check bits ride with every compressed line, and the checker runs on
    // each compressed write-back and refill; an unprotected run has
    // neither.
    const DiffCodec codec;
    AssembledProgram prog;
    const MemTrace trace = kernel_trace("listchase", prog);
    MaterializedSource source(trace);
    CompressedMemConfig secded = vliw_platform().config;
    secded.protection = ProtectionScheme::Secded;
    const auto plain =
        CompressedMemorySim(vliw_platform().config, &codec).run(source, prog.data, prog.data_base);
    const auto guarded = CompressedMemorySim(secded, &codec).run(source, prog.data, prog.data_base);
    EXPECT_GT(guarded.actual_traffic_bytes, plain.actual_traffic_bytes);
    EXPECT_EQ(guarded.raw_traffic_bytes, plain.raw_traffic_bytes);
    EXPECT_GT(guarded.energy.component("ecc"), 0.0);
    EXPECT_EQ(plain.energy.component("ecc"), 0.0);
}

TEST(Memsys, EndToEndRoundTripInvariantHoldsOnAllKernels) {
    // With verify_roundtrip on, every refill of a compressed line decodes
    // the stored blob and compares it byte-for-byte against the shadow —
    // the strongest system-level losslessness check. Runs all codecs over
    // every kernel.
    const DiffCodec diff;
    const BdiCodec bdi;
    CompressedMemConfig cfg = vliw_platform().config;
    cfg.verify_roundtrip = true;
    for (const Kernel& kernel : kernel_suite()) {
        AssembledProgram prog;
        const MemTrace trace = kernel_trace(kernel.name, prog);
        MaterializedSource source(trace);
        for (const LineCodec* codec : {static_cast<const LineCodec*>(&diff),
                                       static_cast<const LineCodec*>(&bdi)}) {
            EXPECT_NO_THROW(
                CompressedMemorySim(cfg, codec).run(source, prog.data, prog.data_base))
                << kernel.name << " with " << codec->name();
        }
    }
}

TEST(Memsys, EmptyTraceRejected) {
    CompressedMemorySim sim(vliw_platform().config, nullptr);
    const MemTrace empty;
    MaterializedSource source(empty);
    EXPECT_THROW(sim.run(source, {}, 0), Error);
}

// A span reaching the top of the 64-bit space has no power-of-two ceiling:
// the simulator throws before allocating its shadow, naming the address.
TEST(Memsys, TopOfAddressSpaceRejected) {
    MemTrace trace;
    trace.add_write(0x0);
    trace.add_write(0xFFFFFFFFFFFFFFFCull);
    MaterializedSource source(trace);
    try {
        CompressedMemorySim(vliw_platform().config, nullptr).run(source, {}, 0);
        FAIL() << "expected Error";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("highest address 0xffffffffffffffff"),
                  std::string::npos)
            << e.what();
    }
}

TEST(DictionaryCodec, TrainingInvariantUnderInsertOrder) {
    // Regression for the unordered value-frequency map in train(): the same
    // multiset of words presented in different stream orders populates the
    // map in different insert orders (and with different rehash points), but
    // the trained dictionary must be identical — ranking is a total order
    // (count desc, then word asc), so hash order must never reach the
    // truncation. The count distribution below puts the cut line inside a
    // large tie region to make any hash-order leak visible.
    std::vector<std::uint32_t> words;
    for (std::uint32_t v = 0; v < 300; ++v) {
        for (std::uint32_t c = 0; c <= v % 7; ++c) words.push_back(0x1000u + v);
    }
    const DictionaryCodec base = DictionaryCodec::train(words, 16);

    std::vector<std::uint32_t> shuffled = words;
    Rng rng(77);
    rng.shuffle(shuffled);
    const std::vector<std::uint32_t> reversed(words.rbegin(), words.rend());
    EXPECT_EQ(DictionaryCodec::train(shuffled, 16).dictionary(), base.dictionary());
    EXPECT_EQ(DictionaryCodec::train(reversed, 16).dictionary(), base.dictionary());
}

TEST(Platforms, HaveDistinctRealisticConfigs) {
    const PlatformModel vliw = vliw_platform();
    const PlatformModel risc = risc_platform();
    EXPECT_NE(vliw.config.cache.size_bytes, risc.config.cache.size_bytes);
    EXPECT_GT(vliw.config.cache.line_bytes, risc.config.cache.line_bytes);
    EXPECT_FALSE(vliw.description.empty());
    EXPECT_FALSE(risc.description.empty());
}

}  // namespace
}  // namespace memopt
