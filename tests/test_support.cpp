// Unit tests for the support module: RNG, statistics, strings, tables.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <set>
#include <sstream>

#include "support/assert.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"

// Counting replacement of the global allocation functions. It is local to
// this test binary and lets ErrorHandling.PassingLiteralRequireDoesNotAllocate
// observe every operator new call (operator new[] forwards here too).
namespace {
std::atomic<std::uint64_t> g_operator_new_calls{0};
}  // namespace

void* operator new(std::size_t bytes) {
    g_operator_new_calls.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
    throw std::bad_alloc();
}
// Not inlined: GCC would otherwise pair the free() with a new-expression at
// the call site and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace memopt {
namespace {

// ---------------------------------------------------------------- Rng ----

TEST(Rng, DeterministicForEqualSeeds) {
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i) equal += a.next_u64() == b.next_u64();
    EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowStaysInRange) {
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, NextBelowCoversRange) {
    Rng rng(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextInInclusiveBounds) {
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
        const std::int64_t v = rng.next_in(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
    }
}

TEST(Rng, NextDoubleInUnitInterval) {
    Rng rng(11);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, NextBoolExtremes) {
    Rng rng(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.next_bool(0.0));
        EXPECT_TRUE(rng.next_bool(1.0));
    }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
    Rng rng(5);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) hits += rng.next_bool(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ZipfLikePrefersLowIndices) {
    Rng rng(23);
    std::uint64_t low = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i) low += rng.next_zipf_like(16, 0.3) < 4;
    EXPECT_GT(low, static_cast<std::uint64_t>(n) / 2);
}

TEST(Rng, ZipfLikeStaysBelowN) {
    Rng rng(29);
    for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.next_zipf_like(5, 0.5), 5u);
}

TEST(Rng, ShuffleIsPermutation) {
    Rng rng(31);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9};
    auto sorted = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

// -------------------------------------------------------------- stats ----

TEST(Stats, MeanKnownValue) {
    const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    EXPECT_DOUBLE_EQ(mean(xs), 5.0);
}

TEST(Stats, EmptyMeanIsZero) { EXPECT_DOUBLE_EQ(mean({}), 0.0); }

TEST(Stats, PercentileEndpointsAndMedian) {
    const std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
    EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 40.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 25.0);
}

TEST(Stats, PercentileRejectsEmptyAndBadP) {
    EXPECT_THROW(percentile({}, 50.0), Error);
    const std::vector<double> xs{1.0};
    EXPECT_THROW(percentile(xs, 101.0), Error);
}

TEST(Stats, AccumulatorMatchesBatch) {
    Rng rng(5);
    std::vector<double> xs;
    Accumulator acc;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.next_double() * 10;
        xs.push_back(x);
        acc.add(x);
    }
    EXPECT_NEAR(acc.mean(), mean(xs), 1e-9);
    EXPECT_EQ(acc.count(), xs.size());
}

TEST(Stats, PercentSavings) {
    EXPECT_DOUBLE_EQ(percent_savings(200.0, 150.0), 25.0);
    EXPECT_DOUBLE_EQ(percent_savings(100.0, 130.0), -30.0);
    EXPECT_THROW(percent_savings(0.0, 1.0), Error);
}

// ------------------------------------------------------------- string ----

TEST(StringUtil, Trim) {
    EXPECT_EQ(trim("  abc  "), "abc");
    EXPECT_EQ(trim("abc"), "abc");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim(""), "");
}

TEST(StringUtil, SplitPreservesEmptyFields) {
    const auto parts = split("a,,b", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "");
    EXPECT_EQ(parts[2], "b");
}

TEST(StringUtil, SplitWsDropsEmpties) {
    const auto parts = split_ws("  a \t b\tc  ");
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "c");
}

TEST(StringUtil, ParseIntDecimalHexSigned) {
    EXPECT_EQ(parse_int("42").value(), 42);
    EXPECT_EQ(parse_int("-17").value(), -17);
    EXPECT_EQ(parse_int("0x1F").value(), 31);
    EXPECT_EQ(parse_int("+5").value(), 5);
    EXPECT_EQ(parse_int(" 7 ").value(), 7);
    EXPECT_EQ(parse_int("9223372036854775807").value(), INT64_MAX);
    EXPECT_EQ(parse_int("-9223372036854775808").value(), INT64_MIN);
    EXPECT_EQ(parse_int("0x7fffffffffffffff").value(), INT64_MAX);
}

TEST(StringUtil, ParseIntRejectsMalformed) {
    EXPECT_FALSE(parse_int("").has_value());
    EXPECT_FALSE(parse_int("12x").has_value());
    EXPECT_FALSE(parse_int("0x").has_value());
    EXPECT_FALSE(parse_int("-").has_value());
    EXPECT_FALSE(parse_int("1.5").has_value());
    // Values outside int64 are rejected, never wrapped.
    EXPECT_FALSE(parse_int("9223372036854775808").has_value());
    EXPECT_FALSE(parse_int("-9223372036854775809").has_value());
    EXPECT_FALSE(parse_int("0x8000000000000000").has_value());
    EXPECT_FALSE(parse_int("18446744073709551618").has_value());  // 2^64 + 2
    EXPECT_FALSE(parse_int("0x10000000000000100").has_value());   // 17 hex digits
}

TEST(StringUtil, FormatBytes) {
    EXPECT_EQ(format_bytes(256), "256 B");
    EXPECT_EQ(format_bytes(4096), "4 KiB");
    EXPECT_EQ(format_bytes(1 << 20), "1 MiB");
    EXPECT_EQ(format_bytes(1500), "1500 B");
}

TEST(StringUtil, FormatEnergy) {
    EXPECT_EQ(format_energy_pj(853.0), "853.0 pJ");
    EXPECT_EQ(format_energy_pj(1270.0), "1.270 nJ");
    EXPECT_EQ(format_energy_pj(3.5e6), "3.500 uJ");
}

// -------------------------------------------------------------- table ----

TEST(Table, AlignsColumns) {
    TablePrinter t({"name", "value"});
    t.add_row({"a", "1"});
    t.add_row({"longer", "22"});
    const std::string s = t.to_string();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("longer"), std::string::npos);
    // All lines share the same width.
    std::istringstream iss(s);
    std::string line;
    std::set<std::size_t> widths;
    while (std::getline(iss, line)) widths.insert(line.size());
    EXPECT_EQ(widths.size(), 1u);
}

TEST(Table, RejectsMismatchedRow) {
    TablePrinter t({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, RejectsEmptyHeader) { EXPECT_THROW(TablePrinter({}), Error); }

// ------------------------------------------------------------- errors ----

TEST(ErrorHandling, RequireThrowsWithMessage) {
    try {
        require(false, "my message");
        FAIL() << "expected throw";
    } catch (const Error& e) {
        EXPECT_STREQ(e.what(), "my message");
    }
}

TEST(ErrorHandling, PassingLiteralRequireDoesNotAllocate) {
    // Hot replay paths (AddressMap::map_addr, bank_of_block) guard every
    // access with a literal require; a passing check must not build its
    // message. The literal is longer than any small-string buffer.
    volatile bool ok = true;  // keeps the condition opaque to the optimizer
    const std::uint64_t before = g_operator_new_calls.load();
    for (int i = 0; i < 10000; ++i)
        require(ok, "a passing require must not build its message on the heap");
    EXPECT_EQ(g_operator_new_calls.load() - before, 0u);
    EXPECT_THROW(require(!ok, "a failing literal require still throws"), Error);
}

}  // namespace
}  // namespace memopt
