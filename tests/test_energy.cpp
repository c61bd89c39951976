// Unit tests for the energy models (SRAM, DRAM, bus, coherence) and
// EnergyBreakdown.
#include <gtest/gtest.h>

#include <sstream>

#include "energy/bus_model.hpp"
#include "energy/coherence_model.hpp"
#include "energy/dram_model.hpp"
#include "energy/report.hpp"
#include "energy/sram_model.hpp"
#include "support/assert.hpp"

namespace memopt {
namespace {

// ----------------------------------------------------------------- SRAM ----

TEST(SramModel, EnergyGrowsWithCapacity) {
    double prev = 0.0;
    for (std::uint64_t size = 256; size <= 1 << 20; size *= 2) {
        const SramEnergyModel model(size);
        EXPECT_GT(model.read_energy(), prev);
        prev = model.read_energy();
    }
}

TEST(SramModel, GrowthIsSuperLogarithmic) {
    // Quadrupling the capacity should roughly double the array term
    // (sqrt scaling), i.e. clearly more than an additive decoder bump.
    const SramEnergyModel small(1024);
    const SramEnergyModel big(16 * 1024);
    EXPECT_GT(big.read_energy(), 2.0 * small.read_energy());
}

TEST(SramModel, WriteCostsMoreThanRead) {
    const SramEnergyModel model(4096);
    EXPECT_GT(model.write_energy(), model.read_energy());
    EXPECT_NEAR(model.write_energy() / model.read_energy(), 1.18, 1e-12);  // write factor
}

TEST(SramModel, WiderWordsCostMore) {
    const SramEnergyModel narrow(4096, 16);
    const SramEnergyModel wide(4096, 64);
    EXPECT_GT(wide.read_energy(), narrow.read_energy());
}

TEST(SramModel, LeakageScalesWithSizeAndTime) {
    const SramEnergyModel model(8192);
    EXPECT_DOUBLE_EQ(model.leakage_pw(), 1.5 * 8192);
    const double e1 = model.leakage_energy(1000);
    const double e2 = model.leakage_energy(2000);
    EXPECT_NEAR(e2, 2.0 * e1, 1e-12);
    EXPECT_DOUBLE_EQ(model.leakage_energy(0), 0.0);
}

TEST(SramModel, RejectsBadGeometry) {
    EXPECT_THROW(SramEnergyModel(1000), Error);      // not pow2
    EXPECT_THROW(SramEnergyModel(8), Error);         // too small
    EXPECT_THROW(SramEnergyModel(1024, 24), Error);  // odd width
}

TEST(SramModel, CalibrationAnchors) {
    // Documented anchors of the default technology: ~12 pJ at 1 KiB,
    // ~79 pJ at 64 KiB (0.18um-class embedded SRAM).
    EXPECT_NEAR(SramEnergyModel(1024).read_energy(), 12.0, 2.0);
    EXPECT_NEAR(SramEnergyModel(64 * 1024).read_energy(), 79.0, 8.0);
}

// Exact values of the calibrated models, printed with %.17g: EXPECT_EQ
// catches a drift of any constant that CalibrationAnchors' tolerances
// would absorb.
TEST(SramModel, CalibrationPinnedExactly) {
    const SramEnergyModel small(1024);
    EXPECT_EQ(small.read_energy(), 13.6);
    EXPECT_EQ(small.write_energy(), 16.047999999999998);
    EXPECT_EQ(small.leakage_pw(), 1536.0);
    EXPECT_EQ(small.leakage_energy(1000), 0.01536);  // pins kCycleNs too
    const SramEnergyModel big(64 * 1024);
    EXPECT_EQ(big.read_energy(), 82.299999999999997);
    EXPECT_EQ(big.write_energy(), 97.11399999999999);
    EXPECT_EQ(big.leakage_pw(), 98304.0);
    const SramEnergyModel secded(4096, 32, ProtectionScheme::Secded);
    EXPECT_EQ(secded.read_energy(), 27.899999999999999);
    EXPECT_EQ(secded.write_energy(), 32.921999999999997);
    EXPECT_EQ(secded.leakage_pw(), 7488.0);
}

TEST(BankSelect, CalibrationPinnedExactly) {
    EXPECT_EQ(bank_select_energy(2), 0.52500000000000002);
    EXPECT_EQ(bank_select_energy(4), 1.05);
    EXPECT_EQ(bank_select_energy(8), 1.875);
}

TEST(BankSelect, ZeroForMonolithicAndMonotone) {
    EXPECT_DOUBLE_EQ(bank_select_energy(1), 0.0);
    double prev = 0.0;
    for (std::size_t banks = 2; banks <= 64; banks *= 2) {
        const double e = bank_select_energy(banks);
        EXPECT_GT(e, prev);
        prev = e;
    }
}

// ----------------------------------------------------------------- DRAM ----

TEST(DramModel, BurstEnergyAffineInBytes) {
    const DramEnergyModel model;
    EXPECT_DOUBLE_EQ(model.burst_energy(0), 0.0);
    const double e16 = model.burst_energy(16);
    const double e32 = model.burst_energy(32);
    EXPECT_GT(e16, model.technology().activate_pj);
    EXPECT_NEAR(e32 - e16, 16 * model.technology().per_byte_pj, 1e-9);
}

TEST(DramModel, SmallerBurstsCostLess) {
    const DramEnergyModel model;
    EXPECT_LT(model.burst_energy(8), model.burst_energy(32));
}

// ------------------------------------------------------------------ bus ----

TEST(Bus, Hamming32) {
    EXPECT_EQ(hamming32(0, 0), 0u);
    EXPECT_EQ(hamming32(0xFFFFFFFF, 0), 32u);
    EXPECT_EQ(hamming32(0b1010, 0b0101), 4u);
}

TEST(Bus, CountTransitionsOverStream) {
    const std::vector<std::uint32_t> words{0x1, 0x3, 0x3, 0x0};
    // 0->1: 1, 1->3: 1, 3->3: 0, 3->0: 2
    EXPECT_EQ(count_transitions(words), 4u);
}

TEST(Bus, CalibrationPinnedExactly) {
    EXPECT_EQ(BusEnergyModel{}.transition_energy(1), 0.80000000000000004);
}

// ------------------------------------------------------------ coherence ----

TEST(CoherenceModel, CalibrationPinnedExactly) {
    const CoherenceEnergyModel model;
    EXPECT_EQ(model.message_energy(1), 2.3999999999999999);
    EXPECT_EQ(model.transfer_energy(1), 0.90000000000000002);
    EXPECT_EQ(model.lookup_energy(1), 1.6000000000000001);
}

// ------------------------------------------------------------ breakdown ----

TEST(EnergyBreakdown, AddAccumulatesByName) {
    EnergyBreakdown b;
    b.add("x", 10.0);
    b.add("y", 5.0);
    b.add("x", 2.5);
    EXPECT_DOUBLE_EQ(b.component("x"), 12.5);
    EXPECT_DOUBLE_EQ(b.component("y"), 5.0);
    EXPECT_DOUBLE_EQ(b.component("absent"), 0.0);
    EXPECT_DOUBLE_EQ(b.total(), 17.5);
}

TEST(EnergyBreakdown, PreservesInsertionOrderInPrint) {
    EnergyBreakdown b;
    b.add("zeta", 1.0);
    b.add("alpha", 1.0);
    std::ostringstream oss;
    b.print(oss, "title");
    const std::string s = oss.str();
    EXPECT_LT(s.find("zeta"), s.find("alpha"));
    EXPECT_NE(s.find("total"), std::string::npos);
}

}  // namespace
}  // namespace memopt
