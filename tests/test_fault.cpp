// Fault-injection subsystem: SECDED/parity codes, the deterministic
// injector, and Monte-Carlo campaigns.
#include <gtest/gtest.h>

#include "compress/diff_codec.hpp"
#include "fault/campaign.hpp"
#include "fault/inject.hpp"
#include "fault/protect.hpp"
#include "support/rng.hpp"

namespace memopt {
namespace {

// ---- SECDED code ---------------------------------------------------------

TEST(Secded, CleanWordsCheckClean) {
    Rng rng(7);
    for (int i = 0; i < 200; ++i) {
        std::uint64_t data = rng.next_u64();
        std::uint8_t check = secded_encode(data);
        const std::uint64_t original = data;
        EXPECT_EQ(secded_check(data, check), CheckOutcome::Clean);
        EXPECT_EQ(data, original);
        EXPECT_EQ(check, secded_encode(original));
    }
}

TEST(Secded, CorrectsEverySingleBitFlip) {
    Rng rng(11);
    for (int trial = 0; trial < 8; ++trial) {
        const std::uint64_t original = rng.next_u64();
        // Data-bit flips.
        for (unsigned bit = 0; bit < 64; ++bit) {
            std::uint64_t data = original ^ (1ULL << bit);
            std::uint8_t check = secded_encode(original);
            EXPECT_EQ(secded_check(data, check), CheckOutcome::Corrected) << "bit " << bit;
            EXPECT_EQ(data, original) << "bit " << bit;
        }
        // Check-bit flips (7 Hamming + overall parity).
        for (unsigned bit = 0; bit < 8; ++bit) {
            std::uint64_t data = original;
            std::uint8_t check =
                static_cast<std::uint8_t>(secded_encode(original) ^ (1u << bit));
            EXPECT_EQ(secded_check(data, check), CheckOutcome::Corrected)
                << "check bit " << bit;
            EXPECT_EQ(data, original) << "check bit " << bit;
            EXPECT_EQ(check, secded_encode(original)) << "check bit " << bit;
        }
    }
}

TEST(Secded, DetectsEveryDoubleBitFlip) {
    Rng rng(13);
    const std::uint64_t original = rng.next_u64();
    const std::uint8_t original_check = secded_encode(original);
    // All pairs over the 72 stored bits: positions 0..63 are data bits,
    // 64..71 are check bits.
    auto flip = [&](std::uint64_t& data, std::uint8_t& check, unsigned pos) {
        if (pos < 64) data ^= 1ULL << pos;
        else check = static_cast<std::uint8_t>(check ^ (1u << (pos - 64)));
    };
    for (unsigned a = 0; a < 72; ++a) {
        for (unsigned b = a + 1; b < 72; ++b) {
            std::uint64_t data = original;
            std::uint8_t check = original_check;
            flip(data, check, a);
            flip(data, check, b);
            EXPECT_EQ(secded_check(data, check), CheckOutcome::Detected)
                << "pair (" << a << ", " << b << ")";
        }
    }
}

TEST(Parity, DetectsOddFlipsMissesEven) {
    const std::uint64_t data = 0xDEADBEEFCAFEF00DULL;
    const std::uint8_t p = parity_encode(data);
    EXPECT_EQ(parity_encode(data ^ 1ULL), static_cast<std::uint8_t>(p ^ 1u));
    EXPECT_EQ(parity_encode(data ^ 3ULL), p);  // two flips alias to clean
}

TEST(ProtectionSchemeTest, CheckBitsAndNames) {
    EXPECT_EQ(protection_check_bits(ProtectionScheme::None, 64), 0u);
    EXPECT_EQ(protection_check_bits(ProtectionScheme::Parity, 64), 1u);
    EXPECT_EQ(protection_check_bits(ProtectionScheme::Secded, 64), 8u);
    EXPECT_EQ(protection_check_bits(ProtectionScheme::Secded, 32), 7u);
    EXPECT_STREQ(protection_name(ProtectionScheme::None), "none");
    EXPECT_STREQ(protection_name(ProtectionScheme::Parity), "parity");
    EXPECT_STREQ(protection_name(ProtectionScheme::Secded), "secded");
    for (const ProtectionScheme s :
         {ProtectionScheme::None, ProtectionScheme::Parity, ProtectionScheme::Secded})
        EXPECT_EQ(parse_protection(protection_name(s)), s);
    EXPECT_FALSE(parse_protection("ecc").has_value());
}

TEST(ProtectionEnergy, NoneIsFreeAndStrongerCostsMore) {
    EXPECT_EQ(protection_access_energy(ProtectionScheme::None, 64), 0.0);
    const double parity = protection_access_energy(ProtectionScheme::Parity, 64);
    const double secded = protection_access_energy(ProtectionScheme::Secded, 64);
    EXPECT_GT(parity, 0.0);
    EXPECT_GT(secded, parity);
    // None keeps the SRAM model bit-identical to the unprotected one.
    const SramEnergyModel base(4096, 32);
    const SramEnergyModel none(4096, 32, ProtectionScheme::None);
    EXPECT_EQ(base.read_energy(), none.read_energy());
    EXPECT_EQ(base.write_energy(), none.write_energy());
    const SramEnergyModel prot(4096, 32, ProtectionScheme::Secded);
    EXPECT_GT(prot.read_energy(), base.read_energy());
}

TEST(ProtectionEnergy, CalibrationPinnedExactly) {
    // Exact values printed with %.17g: they pin the ECC XOR-term constant.
    EXPECT_EQ(protection_access_energy(ProtectionScheme::Parity, 32), 0.068000000000000005);
    EXPECT_EQ(protection_access_energy(ProtectionScheme::Secded, 32), 0.47600000000000003);
    EXPECT_EQ(protection_access_energy(ProtectionScheme::Parity, 64), 0.13200000000000001);
    EXPECT_EQ(protection_access_energy(ProtectionScheme::Secded, 64), 1.056);
}

// ---- ProtectedBuffer -----------------------------------------------------

TEST(ProtectedBufferTest, RoundTripsAndScrubsSingleFlips) {
    Rng rng(17);
    std::vector<std::uint8_t> data(20);  // 2.5 words: padding is stored too
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(256));

    ProtectedBuffer buffer(data, ProtectionScheme::Secded);
    EXPECT_EQ(buffer.total_bits(), 3 * 72u);
    EXPECT_EQ(buffer.bytes(), data);

    // One flip per word, anywhere in the stored bit space: all corrected.
    buffer.flip_bit(5);
    buffer.flip_bit(72 + 70);   // a check bit of word 1
    buffer.flip_bit(2 * 72 + 60);  // a padding bit of word 2
    const ProtectedBuffer::ScrubResult scrub = buffer.scrub();
    EXPECT_EQ(scrub.corrected_words, 3u);
    EXPECT_EQ(scrub.detected_words, 0u);
    EXPECT_EQ(buffer.bytes(), data);
}

TEST(ProtectedBufferTest, DoubleFlipInOneWordIsDetected) {
    std::vector<std::uint8_t> data(8, 0xA5);
    ProtectedBuffer buffer(data, ProtectionScheme::Secded);
    buffer.flip_bit(3);
    buffer.flip_bit(40);
    const ProtectedBuffer::ScrubResult scrub = buffer.scrub();
    EXPECT_EQ(scrub.corrected_words, 0u);
    EXPECT_EQ(scrub.detected_words, 1u);
}

TEST(ProtectedBufferTest, UnprotectedScrubObservesNothing) {
    std::vector<std::uint8_t> data(16, 0x3C);
    ProtectedBuffer buffer(data, ProtectionScheme::None);
    EXPECT_EQ(buffer.total_bits(), 128u);
    buffer.flip_bit(0);
    const ProtectedBuffer::ScrubResult scrub = buffer.scrub();
    EXPECT_EQ(scrub.corrected_words, 0u);
    EXPECT_EQ(scrub.detected_words, 0u);
    EXPECT_NE(buffer.bytes(), data);  // the flip silently sticks
}

// ---- deterministic injector ----------------------------------------------

TEST(FaultInjectorTest, SameSeedAndStreamReproduceExactly) {
    const FaultInjector injector(99);
    std::vector<std::uint8_t> a(64, 0);
    std::vector<std::uint8_t> b(64, 0);
    Rng ra = injector.stream_rng(5);
    Rng rb = injector.stream_rng(5);
    const std::size_t fa = FaultInjector::flip_bits(std::span<std::uint8_t>(a), 0.05, ra);
    const std::size_t fb = FaultInjector::flip_bits(std::span<std::uint8_t>(b), 0.05, rb);
    EXPECT_EQ(fa, fb);
    EXPECT_EQ(a, b);
}

TEST(FaultInjectorTest, DifferentStreamsDiffer) {
    const FaultInjector injector(99);
    std::vector<std::uint8_t> a(256, 0);
    std::vector<std::uint8_t> b(256, 0);
    Rng ra = injector.stream_rng(1);
    Rng rb = injector.stream_rng(2);
    FaultInjector::flip_bits(std::span<std::uint8_t>(a), 0.05, ra);
    FaultInjector::flip_bits(std::span<std::uint8_t>(b), 0.05, rb);
    EXPECT_NE(a, b);
}

TEST(FaultInjectorTest, FlipExactFlipsExactlyN) {
    const FaultInjector injector(3);
    std::vector<std::uint8_t> data(8, 0);
    ProtectedBuffer buffer(data, ProtectionScheme::None);
    Rng rng = injector.stream_rng(0);
    FaultInjector::flip_exact(buffer, 5, rng);
    const std::vector<std::uint8_t> out = buffer.bytes();
    int set = 0;
    for (std::uint8_t byte : out) set += __builtin_popcount(byte);
    EXPECT_EQ(set, 5);
    Rng rng2 = injector.stream_rng(1);
    EXPECT_THROW(FaultInjector::flip_exact(buffer, 65, rng2), Error);
}

TEST(SleepyFlipProbability, ScalesWithResidencyAndClamps) {
    EXPECT_EQ(sleepy_flip_probability(1e-4, 0, 1000, 4.0), 1e-4);
    EXPECT_DOUBLE_EQ(sleepy_flip_probability(1e-4, 1000, 1000, 4.0), 5e-4);
    EXPECT_LT(sleepy_flip_probability(1e-4, 500, 1000, 4.0),
              sleepy_flip_probability(1e-4, 900, 1000, 4.0));
    EXPECT_EQ(sleepy_flip_probability(0.4, 1000, 1000, 9.0), 0.5);  // clamp
    EXPECT_EQ(sleepy_flip_probability(1e-4, 10, 0, 4.0), 1e-4);     // no cycles
    EXPECT_THROW(sleepy_flip_probability(-1.0, 0, 1, 1.0), Error);
}

TEST(SleepyLineProbabilities, ScaleEachLineByItsBanksGatedResidency) {
    // Two 256-byte blocks, one per bank. With 32-byte lines from address
    // 128, lines 0-3 sit in bank 0, lines 4-11 in bank 1, and lines 12-13
    // lie past the 512-byte mapped span.
    const auto arch = MemoryArchitecture::from_splits(256, 2, {1});
    const AddressMap map = AddressMap::identity(256, 2);
    std::vector<BankActivity> activity(2);
    activity[0].gated_cycles = 100;
    activity[1].gated_cycles = 700;
    const double base = 1e-4;
    const double factor = 3.0;
    const std::uint64_t total = 1000;
    const std::vector<double> probs =
        sleepy_line_probabilities(arch, map, activity, base, factor, /*image_base=*/128,
                                  /*num_lines=*/14, /*line_bytes=*/32, total);
    ASSERT_EQ(probs.size(), 14u);
    for (std::size_t i = 0; i < 12; ++i) {
        const std::size_t bank = i < 4 ? 0 : 1;
        EXPECT_EQ(probs[i],
                  sleepy_flip_probability(base, activity[bank].gated_cycles, total, factor))
            << "line " << i;
    }
    EXPECT_LT(probs[0], probs[4]);
    EXPECT_EQ(probs[12], base);
    EXPECT_EQ(probs[13], base);

    const std::vector<BankActivity> short_activity(1);
    EXPECT_THROW(sleepy_line_probabilities(arch, map, short_activity, base, factor, 128, 14, 32,
                                           total),
                 Error);
}

// ---- campaigns -----------------------------------------------------------

std::vector<std::vector<std::uint8_t>> test_corpus(std::size_t lines, unsigned line_bytes,
                                                   std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::vector<std::uint8_t>> corpus(lines);
    for (auto& line : corpus) {
        line.resize(line_bytes);
        // Smooth-ish data so the diff codec actually compresses some lines.
        std::uint8_t value = static_cast<std::uint8_t>(rng.next_below(256));
        for (auto& b : line) {
            value = static_cast<std::uint8_t>(value + rng.next_below(5));
            b = value;
        }
    }
    return corpus;
}

TEST(LineCorpus, SlicesAndZeroPads) {
    std::vector<std::uint8_t> image(40, 0xFF);
    const auto corpus = line_corpus(image, 32);
    ASSERT_EQ(corpus.size(), 2u);
    EXPECT_EQ(corpus[0], std::vector<std::uint8_t>(32, 0xFF));
    for (std::size_t i = 0; i < 32; ++i)
        EXPECT_EQ(corpus[1][i], i < 8 ? 0xFF : 0x00);
    EXPECT_THROW(line_corpus({}, 32), Error);
    EXPECT_THROW(line_corpus(image, 30), Error);
}

TEST(FaultCampaign, BitIdenticalAcrossJobCounts) {
    const auto corpus = test_corpus(24, 32, 5);
    const DiffCodec diff;
    FaultCampaignConfig config;
    config.seed = 21;
    config.trials = 16;
    config.bit_flip_rate = 2e-3;
    config.protection = ProtectionScheme::Secded;
    config.codec = &diff;

    config.jobs = 1;
    const FaultCampaignResult serial = run_campaign(config, corpus).result;
    config.jobs = 4;
    const FaultCampaignResult parallel = run_campaign(config, corpus).result;

    EXPECT_EQ(serial.lines_evaluated, parallel.lines_evaluated);
    EXPECT_EQ(serial.faults_injected, parallel.faults_injected);
    EXPECT_EQ(serial.corrected, parallel.corrected);
    EXPECT_EQ(serial.detected, parallel.detected);
    EXPECT_EQ(serial.codec_rejects, parallel.codec_rejects);
    EXPECT_EQ(serial.degraded, parallel.degraded);
    EXPECT_EQ(serial.silent, parallel.silent);
    EXPECT_EQ(serial.clean, parallel.clean);
    // Energy must be bit-identical, not approximately equal.
    EXPECT_EQ(serial.energy.total(), parallel.energy.total());
    EXPECT_EQ(serial.energy.component("sram_access"),
              parallel.energy.component("sram_access"));
    EXPECT_EQ(serial.energy.component("protection"),
              parallel.energy.component("protection"));
    EXPECT_EQ(serial.energy.component("refetch"), parallel.energy.component("refetch"));
    EXPECT_GT(serial.faults_injected, 0u);
}

TEST(FaultCampaign, StrongerProtectionDeliversFewerSilentLines) {
    const auto corpus = test_corpus(32, 32, 9);
    FaultCampaignConfig config;
    config.seed = 77;
    config.trials = 48;
    config.bit_flip_rate = 1e-3;

    config.protection = ProtectionScheme::None;
    const FaultCampaignResult none = run_campaign(config, corpus).result;
    config.protection = ProtectionScheme::Parity;
    const FaultCampaignResult parity = run_campaign(config, corpus).result;
    config.protection = ProtectionScheme::Secded;
    const FaultCampaignResult secded = run_campaign(config, corpus).result;

    EXPECT_GT(none.silent, 0u);
    EXPECT_EQ(none.corrected, 0u);
    EXPECT_GT(secded.corrected, 0u);
    EXPECT_LE(secded.silent, parity.silent);
    EXPECT_LE(parity.silent, none.silent);
    EXPECT_GT(secded.energy.component("protection"),
              parity.energy.component("protection"));
}

TEST(FaultCampaign, ValidatesInputs) {
    const auto corpus = test_corpus(4, 32, 1);
    FaultCampaignConfig config;
    config.trials = 0;
    EXPECT_THROW(run_campaign(config, corpus), Error);
    config.trials = 1;
    EXPECT_THROW(run_campaign(config, {}), Error);
    const std::vector<double> wrong_probs(3, 1e-4);
    EXPECT_THROW(run_campaign(config, corpus, wrong_probs), Error);
}

}  // namespace
}  // namespace memopt
