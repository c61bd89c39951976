// End-to-end certification of the AR32 toolchain: every bundled kernel is
// re-implemented in plain C++ here (using the same deterministic input
// generators), and the simulator's checksums must match exactly. A pass
// certifies assembler, encoder, decoder and simulator semantics together.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "isa/assembler.hpp"
#include "sim/kernels.hpp"

namespace memopt {
namespace {

std::vector<std::uint8_t> words_to_bytes(const std::vector<std::uint32_t>& words) {
    std::vector<std::uint8_t> bytes;
    bytes.reserve(words.size() * 4);
    for (std::uint32_t w : words) {
        bytes.push_back(static_cast<std::uint8_t>(w));
        bytes.push_back(static_cast<std::uint8_t>(w >> 8));
        bytes.push_back(static_cast<std::uint8_t>(w >> 16));
        bytes.push_back(static_cast<std::uint8_t>(w >> 24));
    }
    return bytes;
}

std::vector<std::uint32_t> kernel_outputs(const std::string& name) {
    return run_kernel(kernel_by_name(name)).output;
}

TEST(Kernels, FirChecksum) {
    const auto in = asm_smooth_words(288, 161, 1048576);
    const auto coef = asm_random_words(32, 162);
    std::uint32_t cks = 0;
    for (std::size_t i = 0; i < 256; ++i) {
        std::uint32_t acc = 0;
        for (std::size_t k = 0; k < 32; ++k) {
            const auto x = static_cast<std::uint32_t>(static_cast<std::int32_t>(in[i + k]) >> 16);
            const auto c = static_cast<std::uint32_t>(static_cast<std::int32_t>(coef[k]) >> 26);
            acc += x * c;
        }
        cks += static_cast<std::uint32_t>(static_cast<std::int32_t>(acc) >> 6);
    }
    EXPECT_EQ(kernel_outputs("fir"), std::vector<std::uint32_t>{cks});
}

TEST(Kernels, BiquadChecksum) {
    const auto in = asm_smooth_words(512, 177, 1048576);
    const std::int32_t c1[5] = {1024, 2048, 1024, 1638, -819};
    const std::int32_t c2[5] = {512, 1024, 512, 1229, -410};
    std::uint32_t s1[4] = {0, 0, 0, 0};  // x1, x2, y1, y2
    std::uint32_t s2[4] = {0, 0, 0, 0};
    auto section = [](const std::int32_t* c, std::uint32_t* s, std::uint32_t x) {
        std::uint32_t acc = static_cast<std::uint32_t>(c[0]) * x;
        acc += static_cast<std::uint32_t>(c[1]) * s[0];
        acc += static_cast<std::uint32_t>(c[2]) * s[1];
        acc += static_cast<std::uint32_t>(c[3]) * s[2];
        acc += static_cast<std::uint32_t>(c[4]) * s[3];
        const auto y = static_cast<std::uint32_t>(static_cast<std::int32_t>(acc) >> 12);
        s[1] = s[0];
        s[0] = x;
        s[3] = s[2];
        s[2] = y;
        return y;
    };
    std::uint32_t cks = 0;
    for (std::size_t i = 0; i < 512; ++i) {
        auto x = static_cast<std::uint32_t>(static_cast<std::int32_t>(in[i]) >> 16);
        x = section(c1, s1, x);
        x = section(c2, s2, x);
        cks += x;
    }
    EXPECT_EQ(kernel_outputs("biquad"), std::vector<std::uint32_t>{cks});
}

TEST(Kernels, MatmulChecksum) {
    const auto a = asm_random_words(256, 201);
    const auto b = asm_random_words(256, 202);
    std::uint32_t cks = 0;
    for (std::size_t i = 0; i < 16; ++i) {
        for (std::size_t j = 0; j < 16; ++j) {
            std::uint32_t acc = 0;
            for (std::size_t k = 0; k < 16; ++k) acc += a[i * 16 + k] * b[k * 16 + j];
            cks += acc;
        }
    }
    EXPECT_EQ(kernel_outputs("matmul"), std::vector<std::uint32_t>{cks});
}

TEST(Kernels, Crc32Checksum) {
    const auto msg = words_to_bytes(asm_smooth_words(1024, 195, 5000));
    std::uint32_t table[256];
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit) c = (c & 1) ? (c >> 1) ^ 0xEDB88320u : c >> 1;
        table[i] = c;
    }
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::uint8_t byte : msg) crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFFu];
    crc = ~crc;
    EXPECT_EQ(kernel_outputs("crc32"), std::vector<std::uint32_t>{crc});
}

TEST(Kernels, QsortChecksum) {
    auto arr = asm_random_words(256, 333);
    std::sort(arr.begin(), arr.end());
    std::uint32_t cks = 0;
    for (std::size_t i = 0; i < arr.size(); ++i)
        cks += arr[i] * static_cast<std::uint32_t>(i + 1);
    EXPECT_EQ(kernel_outputs("qsort"), std::vector<std::uint32_t>{cks});
}

TEST(Kernels, HistogramChecksum) {
    const auto data = words_to_bytes(asm_smooth_words(1024, 741, 100));
    std::uint32_t bins[256] = {};
    for (std::uint8_t byte : data) ++bins[byte];
    std::uint32_t cks = 0;
    for (std::uint32_t i = 0; i < 256; ++i) cks += bins[i] * (i + 1);
    EXPECT_EQ(kernel_outputs("histogram"), std::vector<std::uint32_t>{cks});
}

TEST(Kernels, StrsearchCount) {
    const auto src = words_to_bytes(asm_random_words(512, 911));
    std::vector<std::uint8_t> text(2048);
    for (std::size_t i = 0; i < text.size(); ++i) text[i] = src[i] & 3;
    const std::uint8_t pattern[4] = {1, 2, 3, 0};
    std::uint32_t count = 0;
    for (std::size_t i = 0; i < 2045; ++i) {
        bool match = true;
        for (std::size_t j = 0; j < 4 && match; ++j) match = text[i + j] == pattern[j];
        count += match;
    }
    EXPECT_EQ(kernel_outputs("strsearch"), std::vector<std::uint32_t>{count});
}

TEST(Kernels, RleLengthAndChecksum) {
    const auto raw = words_to_bytes(asm_random_words(1024, 555));
    std::vector<std::uint8_t> src(4096);
    for (std::size_t i = 0; i < src.size(); ++i) src[i] = raw[i] & 1;
    std::vector<std::uint8_t> encoded;
    std::size_t i = 0;
    while (i < src.size()) {
        std::size_t run = 1;
        while (i + run < src.size() && run < 255 && src[i + run] == src[i]) ++run;
        encoded.push_back(static_cast<std::uint8_t>(run));
        encoded.push_back(src[i]);
        i += run;
    }
    std::uint32_t byte_sum = 0;
    for (std::uint8_t byte : encoded) byte_sum += byte;
    const std::vector<std::uint32_t> expected{static_cast<std::uint32_t>(encoded.size()),
                                              byte_sum};
    EXPECT_EQ(kernel_outputs("rle"), expected);
}

TEST(Kernels, Conv3x3Checksum) {
    const auto raw = asm_smooth_words(1024, 808, 50000000);
    std::int32_t img[1024];
    for (std::size_t p = 0; p < 1024; ++p) img[p] = static_cast<std::int32_t>(raw[p]) >> 20;
    const std::int32_t kern[9] = {1, 2, 1, 2, 4, 2, 1, 2, 1};
    std::uint32_t cks = 0;
    for (std::size_t y = 0; y < 30; ++y) {
        for (std::size_t x = 0; x < 30; ++x) {
            std::uint32_t acc = 0;
            for (std::size_t ky = 0; ky < 3; ++ky) {
                for (std::size_t kx = 0; kx < 3; ++kx) {
                    acc += static_cast<std::uint32_t>(img[(y + ky) * 32 + x + kx]) *
                           static_cast<std::uint32_t>(kern[ky * 3 + kx]);
                }
            }
            cks += acc;
        }
    }
    EXPECT_EQ(kernel_outputs("conv3x3"), std::vector<std::uint32_t>{cks});
}

TEST(Kernels, ListchaseClosedForm) {
    // 8192 chase steps over a full-period 1024-node cycle visit every node
    // exactly 8 times: sum = 8 * (0 + 1 + ... + 1023).
    EXPECT_EQ(kernel_outputs("listchase"),
              std::vector<std::uint32_t>{8u * (1023u * 1024u / 2u)});
}

TEST(Kernels, Fft16Checksum) {
    const auto raw = asm_smooth_words(32, 404, 80000000);
    const std::int32_t cos_q12[8] = {4096, 3784, 2896, 1567, 0, -1567, -2896, -3784};
    const std::int32_t sin_q12[8] = {0, 1567, 2896, 3784, 4096, 3784, 2896, 1567};
    const unsigned rev[16] = {0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15};

    std::uint32_t acc[32] = {};
    for (int iter = 0; iter < 32; ++iter) {
        std::uint32_t buf[32];
        for (unsigned i = 0; i < 16; ++i) {
            buf[2 * i] = static_cast<std::uint32_t>(
                static_cast<std::int32_t>(raw[2 * rev[i]]) >> 20);
            buf[2 * i + 1] = static_cast<std::uint32_t>(
                static_cast<std::int32_t>(raw[2 * rev[i] + 1]) >> 20);
        }
        unsigned stride = 8;
        for (unsigned m = 2; m <= 16; m <<= 1) {
            const unsigned half = m / 2;
            for (unsigned k = 0; k < 16; k += m) {
                for (unsigned j = 0; j < half; ++j) {
                    const auto w_re = static_cast<std::uint32_t>(cos_q12[j * stride]);
                    const auto w_im = static_cast<std::uint32_t>(sin_q12[j * stride]);
                    std::uint32_t& a_re = buf[2 * (k + j)];
                    std::uint32_t& a_im = buf[2 * (k + j) + 1];
                    std::uint32_t& b_re = buf[2 * (k + j + half)];
                    std::uint32_t& b_im = buf[2 * (k + j + half) + 1];
                    const std::uint32_t t_re = static_cast<std::uint32_t>(
                        static_cast<std::int32_t>(w_re * b_re + w_im * b_im) >> 12);
                    const std::uint32_t t_im = static_cast<std::uint32_t>(
                        static_cast<std::int32_t>(w_re * b_im - w_im * b_re) >> 12);
                    const std::uint32_t u_re = a_re;
                    const std::uint32_t u_im = a_im;
                    a_re = u_re + t_re;
                    a_im = u_im + t_im;
                    b_re = u_re - t_re;
                    b_im = u_im - t_im;
                }
            }
            stride >>= 1;
        }
        for (unsigned w = 0; w < 32; ++w) acc[w] += buf[w];
    }
    std::uint32_t cks = 0;
    for (unsigned w = 0; w < 32; ++w) cks += acc[w];
    EXPECT_EQ(kernel_outputs("fft16"), std::vector<std::uint32_t>{cks});
}

TEST(Kernels, DitherChecksum) {
    const auto img = words_to_bytes(asm_smooth_words(256, 606, 3000));
    std::uint32_t err_cur[66] = {};
    std::uint32_t err_next[66] = {};
    std::uint32_t cks = 0;
    for (unsigned y = 0; y < 16; ++y) {
        for (unsigned x = 0; x < 64; ++x) {
            const std::uint32_t v = img[y * 64 + x] + err_cur[x + 1];
            const std::uint32_t out =
                static_cast<std::int32_t>(v) >= 128 ? 255u : 0u;  // signed compare as in asm
            const std::uint32_t e = v - out;
            auto scaled = [&](std::uint32_t factor) {
                return static_cast<std::uint32_t>(
                    static_cast<std::int32_t>(e * factor) >> 4);
            };
            err_cur[x + 2] += scaled(7);
            err_next[x] += scaled(3);
            err_next[x + 1] += scaled(5);
            err_next[x + 2] += static_cast<std::uint32_t>(static_cast<std::int32_t>(e) >> 4);
            cks += out;
        }
        for (unsigned i = 0; i < 66; ++i) {
            err_cur[i] = err_next[i];
            err_next[i] = 0;
        }
    }
    EXPECT_EQ(kernel_outputs("dither"), std::vector<std::uint32_t>{cks});
}

// ------------------------------------------------------- suite hygiene ----

TEST(KernelSuite, NamesAreUniqueAndLookupWorks) {
    const auto& suite = kernel_suite();
    EXPECT_EQ(suite.size(), 12u);
    for (const Kernel& k : suite) {
        EXPECT_EQ(kernel_by_name(k.name).source, k.source);
        EXPECT_FALSE(k.description.empty());
    }
    EXPECT_THROW(kernel_by_name("nope"), Error);
}

class KernelRuns : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KernelRuns, ProducesTraceWithinMemoryAndTerminates) {
    const Kernel& k = kernel_suite()[GetParam()];
    CpuConfig cfg;
    cfg.record_fetch_stream = true;
    const RunResult r = run_kernel(k, cfg);
    EXPECT_FALSE(r.output.empty());
    EXPECT_GT(r.instructions, 1000u);
    EXPECT_LT(r.instructions, 1'000'000u);
    EXPECT_FALSE(r.data_trace.empty());
    EXPECT_LT(r.data_trace.summary().max_addr, kCpuMemBytes);
    // Data accesses never touch the code region (Harvard layout).
    EXPECT_GE(r.data_trace.summary().min_addr, 0x10000u);
    EXPECT_EQ(r.fetch_stream.size(), r.instructions);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelRuns, ::testing::Range<std::size_t>(0, 12),
                         [](const auto& info) { return kernel_suite()[info.param].name; });

TEST(KernelRuns, DeterministicAcrossRuns) {
    for (const Kernel& k : kernel_suite()) {
        const RunResult a = run_kernel(k);
        const RunResult b = run_kernel(k);
        EXPECT_EQ(a.output, b.output) << k.name;
        EXPECT_EQ(a.instructions, b.instructions) << k.name;
        EXPECT_EQ(a.data_trace.size(), b.data_trace.size()) << k.name;
    }
}

}  // namespace
}  // namespace memopt
