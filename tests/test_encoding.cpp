// Unit and property tests for the instruction-bus transformation stack:
// transform algebra (invertibility, linearity), the greedy gate search, and
// the classic baselines.
#include <gtest/gtest.h>

#include "encoding/baselines.hpp"
#include "encoding/decoder_cost.hpp"
#include "encoding/search.hpp"
#include "encoding/transform.hpp"
#include "energy/bus_model.hpp"
#include "sim/kernels.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace memopt {
namespace {

LinearTransform random_transform(Rng& rng, std::size_t gates) {
    LinearTransform t;
    for (std::size_t g = 0; g < gates; ++g) {
        const auto dst = static_cast<std::uint8_t>(rng.next_below(32));
        auto src = static_cast<std::uint8_t>(rng.next_below(32));
        if (src == dst) src = static_cast<std::uint8_t>((src + 1) % 32);
        t.append(XorGate{dst, src});
    }
    return t;
}

// ------------------------------------------------------------ transform ----

TEST(LinearTransform, IdentityByDefault) {
    const LinearTransform t;
    EXPECT_TRUE(t.is_identity());
    EXPECT_EQ(t.apply(0xDEADBEEF), 0xDEADBEEFu);
}

TEST(LinearTransform, SingleGateSemantics) {
    const LinearTransform t({XorGate{0, 5}});
    EXPECT_EQ(t.apply(1u << 5), (1u << 5) | 1u);
    EXPECT_EQ(t.apply(1u), 1u);  // source bit clear: no change
}

TEST(LinearTransform, RejectsBadGates) {
    EXPECT_THROW(LinearTransform({XorGate{3, 3}}), Error);
    EXPECT_THROW(LinearTransform({XorGate{32, 0}}), Error);
    LinearTransform t;
    EXPECT_THROW(t.append(XorGate{1, 1}), Error);
}

class TransformProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TransformProperties, InvertUndoesApply) {
    Rng rng(GetParam());
    const LinearTransform t = random_transform(rng, 1 + rng.next_below(24));
    for (int trial = 0; trial < 1000; ++trial) {
        const auto w = static_cast<std::uint32_t>(rng.next_u64());
        EXPECT_EQ(t.invert(t.apply(w)), w);
        EXPECT_EQ(t.apply(t.invert(w)), w);
    }
}

TEST_P(TransformProperties, IsLinearOverGf2) {
    Rng rng(GetParam() + 1000);
    const LinearTransform t = random_transform(rng, 1 + rng.next_below(24));
    EXPECT_EQ(t.apply(0u), 0u);
    for (int trial = 0; trial < 1000; ++trial) {
        const auto a = static_cast<std::uint32_t>(rng.next_u64());
        const auto b = static_cast<std::uint32_t>(rng.next_u64());
        EXPECT_EQ(t.apply(a ^ b), t.apply(a) ^ t.apply(b));
    }
}

TEST_P(TransformProperties, IsBijective) {
    // Linear + apply(0)=0 + invertible construction; spot-check injectivity
    // on a small domain.
    Rng rng(GetParam() + 2000);
    const LinearTransform t = random_transform(rng, 8);
    std::vector<std::uint32_t> images;
    for (std::uint32_t w = 0; w < 4096; ++w) images.push_back(t.apply(w));
    std::sort(images.begin(), images.end());
    EXPECT_EQ(std::adjacent_find(images.begin(), images.end()), images.end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransformProperties, ::testing::Values(1, 2, 3, 4, 5));

TEST(LinearTransform, EncodedTransitionsMatchDirectCount) {
    Rng rng(77);
    const LinearTransform t = random_transform(rng, 6);
    std::vector<std::uint32_t> words;
    for (int i = 0; i < 500; ++i) words.push_back(static_cast<std::uint32_t>(rng.next_u64()));
    EXPECT_EQ(encoded_transitions(t, words), count_transitions(t.apply_stream(words)));
}

// --------------------------------------------------------------- search ----

TEST(Search, EmptyStream) {
    const auto r = search_transform({});
    EXPECT_EQ(r.original_transitions, 0u);
    EXPECT_DOUBLE_EQ(r.reduction(), 0.0);
}

TEST(Search, NeverIncreasesTransitions) {
    Rng rng(11);
    std::vector<std::uint32_t> words;
    for (int i = 0; i < 2000; ++i) words.push_back(static_cast<std::uint32_t>(rng.next_u64()));
    const auto r = search_transform(words, {.max_gates = 16});
    EXPECT_LE(r.encoded_transitions, r.original_transitions);
}

TEST(Search, FindsObviousCorrelation) {
    // Bits 0 and 1 always toggle together: one gate removes half the cost.
    std::vector<std::uint32_t> words;
    for (int i = 0; i < 1000; ++i) words.push_back(i % 2 ? 0x3 : 0x0);
    const auto r = search_transform(words, {.max_gates = 4});
    EXPECT_NEAR(r.reduction(), 0.5, 0.01);
}

TEST(Search, GreedyFirstStepIsOptimalSingleGate) {
    const Kernel& k = kernel_by_name("fir");
    CpuConfig cfg;
    cfg.record_data_trace = false;
    cfg.record_fetch_stream = true;
    const RunResult run = run_kernel(k, cfg);
    // Only compare on a prefix to keep the exhaustive reference fast.
    const std::span<const std::uint32_t> stream(run.fetch_stream.data(), 20000);
    const auto greedy = search_transform(stream, {.max_gates = 1});
    const auto brute = best_single_gate(stream);
    EXPECT_EQ(greedy.encoded_transitions, brute.encoded_transitions);
}

TEST(Search, MoreGatesNeverHurt) {
    const Kernel& k = kernel_by_name("qsort");
    CpuConfig cfg;
    cfg.record_data_trace = false;
    cfg.record_fetch_stream = true;
    const RunResult run = run_kernel(k, cfg);
    std::uint64_t prev = UINT64_MAX;
    for (std::size_t gates : {0u, 1u, 2u, 4u, 8u, 16u, 32u}) {
        const auto r = search_transform(run.fetch_stream, {.max_gates = gates});
        EXPECT_LE(r.encoded_transitions, prev);
        EXPECT_LE(r.transform.gate_count(), gates);
        prev = r.encoded_transitions;
    }
}

TEST(Search, TransformIsDecodable) {
    const Kernel& k = kernel_by_name("crc32");
    CpuConfig cfg;
    cfg.record_data_trace = false;
    cfg.record_fetch_stream = true;
    const RunResult run = run_kernel(k, cfg);
    const auto r = search_transform(run.fetch_stream, {.max_gates = 16});
    // The decoder (invert) recovers every original instruction word.
    for (std::size_t i = 0; i < run.fetch_stream.size(); i += 97) {
        const std::uint32_t w = run.fetch_stream[i];
        EXPECT_EQ(r.transform.invert(r.transform.apply(w)), w);
    }
}

TEST(Search, SubstantialReductionOnRealStreams) {
    // The headline property of 1B-3: large transition reductions on real
    // instruction streams with a small gate budget.
    for (const char* name : {"fir", "histogram", "listchase"}) {
        CpuConfig cfg;
        cfg.record_data_trace = false;
        cfg.record_fetch_stream = true;
        const RunResult run = run_kernel(kernel_by_name(name), cfg);
        const auto r = search_transform(run.fetch_stream, {.max_gates = 16});
        EXPECT_GT(r.reduction(), 0.25) << name;
    }
}

// --------------------------------------------------------- decoder cost ----

TEST(DecoderCost, IdentityTransformIsFree) {
    const std::vector<std::uint32_t> words{1, 2, 3, 4};
    EXPECT_EQ(decoder_toggles(LinearTransform{}, words), 0u);
    EXPECT_DOUBLE_EQ(decoder_energy(LinearTransform{}, words), 0.0);
}

TEST(DecoderCost, CalibrationPinnedExactly) {
    // One gate output toggle: its energy, printed with %.17g, pins the
    // per-toggle gate constant.
    const LinearTransform t({XorGate{0, 1}});
    const std::vector<std::uint32_t> words{0x1};
    ASSERT_EQ(decoder_toggles(t, words), 1u);
    EXPECT_EQ(decoder_energy(t, words), 0.012);
}

TEST(DecoderCost, TogglesBoundedByGatesTimesWords) {
    Rng rng(5);
    const LinearTransform t = random_transform(rng, 10);
    std::vector<std::uint32_t> words;
    for (int i = 0; i < 500; ++i) words.push_back(static_cast<std::uint32_t>(rng.next_u64()));
    const std::uint64_t toggles = decoder_toggles(t, words);
    EXPECT_LE(toggles, words.size() * t.gate_count());
    EXPECT_GT(toggles, 0u);
}

TEST(DecoderCost, SingleGateToggleCountIsExact) {
    // One gate bit0 ^= bit1. Decoder output bit0 = encoded bit0 ^ bit1,
    // i.e. the ORIGINAL bit 0. Its toggles equal the toggles of original
    // bit 0 across the stream (including the idle state 0 at the start).
    const LinearTransform t({XorGate{0, 1}});
    const std::vector<std::uint32_t> words{0x1, 0x1, 0x0, 0x1};  // bit0: 1,1,0,1
    std::vector<std::uint32_t> encoded;
    for (std::uint32_t w : words) encoded.push_back(t.apply(w));
    EXPECT_EQ(decoder_toggles(t, encoded), 0u + 3u);
}

TEST(DecoderCost, NetEnergyStaysPositiveOnRealStreams) {
    // The decoder must not eat the bus savings: on every kernel the encoded
    // bus+decoder energy stays below the raw bus energy.
    const BusEnergyModel bus;
    for (const char* name : {"fir", "qsort"}) {
        CpuConfig cfg;
        cfg.record_data_trace = false;
        cfg.record_fetch_stream = true;
        const RunResult run = run_kernel(kernel_by_name(name), cfg);
        const auto r = search_transform(run.fetch_stream, {.max_gates = 16});
        const EnergyBreakdown enc = encoded_energy(r.transform, run.fetch_stream);
        const double raw = bus.transition_energy(r.original_transitions);
        EXPECT_LT(enc.total(), raw) << name;
        EXPECT_GT(enc.component("decoder"), 0.0) << name;
        EXPECT_LT(enc.component("decoder"), 0.05 * raw) << name;  // overhead stays small
    }
}

// ------------------------------------------------------------ baselines ----

TEST(BusInvert, NeverWorseThanHalfPlusInvertLine) {
    Rng rng(13);
    std::vector<std::uint32_t> words;
    for (int i = 0; i < 3000; ++i) words.push_back(static_cast<std::uint32_t>(rng.next_u64()));
    const std::uint64_t raw = count_transitions(words);
    const std::uint64_t bi = bus_invert_transitions(words);
    // Each word costs at most 16 data transitions + 1 invert-line toggle.
    EXPECT_LE(bi, words.size() * 17);
    EXPECT_LE(bi, raw + words.size());
}

TEST(BusInvert, PathologicalAlternationCollapses) {
    // Alternating all-zero / all-one words: raw pays 32 per word, bus-invert
    // pays only the invert line after the first inversion.
    std::vector<std::uint32_t> words;
    for (int i = 0; i < 100; ++i) words.push_back(i % 2 ? 0xFFFFFFFF : 0x0);
    const std::uint64_t raw = count_transitions(words);
    const std::uint64_t bi = bus_invert_transitions(words);
    EXPECT_EQ(raw, 99u * 32u);
    EXPECT_LT(bi, raw / 10);
}

TEST(Search, InvariantUnderDiffOrder) {
    // Regression for the unordered difference histogram in search_transform:
    // two streams whose consecutive-XOR-difference *multisets* are equal but
    // arrive in different orders fill the value-frequency map in different
    // insert orders (different bucket layouts, different rehash points).
    // The histogram is consumed purely as a multiset — exact integer sums
    // and a fixed gate scan order — so the greedy search must select the
    // identical transform and counts from both streams.
    Rng rng(5);
    std::vector<std::uint32_t> diffs;
    for (int i = 0; i < 5000; ++i) {
        diffs.push_back(static_cast<std::uint32_t>(rng.next_below(64)) << (i % 3));
    }
    auto words_from_diffs = [](const std::vector<std::uint32_t>& d) {
        std::vector<std::uint32_t> words;
        words.reserve(d.size());
        std::uint32_t prev = 0;  // the idle bus state
        for (std::uint32_t diff : d) {
            prev ^= diff;
            words.push_back(prev);
        }
        return words;
    };
    const std::vector<std::uint32_t> words_a = words_from_diffs(diffs);
    std::vector<std::uint32_t> permuted = diffs;
    rng.shuffle(permuted);
    const std::vector<std::uint32_t> words_b = words_from_diffs(permuted);

    const TransformSearchParams params{.max_gates = 8};
    const TransformSearchResult a = search_transform(words_a, params);
    const TransformSearchResult b = search_transform(words_b, params);
    EXPECT_EQ(a.original_transitions, b.original_transitions);
    EXPECT_EQ(a.encoded_transitions, b.encoded_transitions);
    ASSERT_EQ(a.transform.gate_count(), b.transform.gate_count());
    for (std::size_t g = 0; g < a.transform.gate_count(); ++g) {
        EXPECT_EQ(a.transform.gates()[g], b.transform.gates()[g]) << "gate " << g;
    }
}

TEST(GrayCode, SequentialCountersBecomeCheap) {
    std::vector<std::uint32_t> counter;
    for (std::uint32_t i = 0; i < 1024; ++i) counter.push_back(i);
    const std::uint64_t raw = count_transitions(counter);
    const std::uint64_t gray = gray_code_transitions(counter);
    EXPECT_EQ(gray, 1023u);  // exactly one transition per increment
    EXPECT_GT(raw, gray);
}

}  // namespace
}  // namespace memopt
