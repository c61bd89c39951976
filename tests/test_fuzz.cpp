// Differential fuzzing of the AR32 execution core.
//
// Generates random straight-line ALU programs, runs them through the full
// stack (encode -> decode -> simulate), and cross-checks the final register
// file against an independent reference interpreter implemented right here
// from the ISA specification. Any divergence between the two
// implementations of the semantics fails loudly with the offending seed.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "compress/bdi_codec.hpp"
#include "compress/dictionary_codec.hpp"
#include "compress/diff_codec.hpp"
#include "compress/zero_run.hpp"
#include "fault/inject.hpp"
#include "isa/assembler.hpp"
#include "isa/encode.hpp"
#include "lang/codegen.hpp"
#include "sim/cpu.hpp"
#include "support/rng.hpp"
#include "trace/io.hpp"
#include "trace/source.hpp"
#include "trace/stream_file.hpp"
#include "trace/synthetic.hpp"

namespace memopt {
namespace {

/// The ALU subset used by the fuzzer (no memory, no control flow: straight
/// line by construction, so both interpreters see identical sequences).
const std::array<Op, 19> kAluOps = {
    Op::Add,  Op::Sub,  Op::And,  Op::Orr,  Op::Eor,  Op::Lsl,  Op::Lsr,
    Op::Asr,  Op::Mul,  Op::Mov,  Op::Mvn,  Op::Addi, Op::Subi, Op::Andi,
    Op::Orri, Op::Eori, Op::Lsli, Op::Lsri, Op::Asri,
};

Instr random_alu_instr(Rng& rng) {
    Instr i;
    i.op = kAluOps[rng.next_below(kAluOps.size())];
    i.rd = static_cast<std::uint8_t>(rng.next_below(kNumRegs));
    i.rn = static_cast<std::uint8_t>(rng.next_below(kNumRegs));
    i.rm = static_cast<std::uint8_t>(rng.next_below(kNumRegs));
    if (format_of(i.op) == Format::I) {
        const bool zero_extended = imm_fits(i.op, 40000);
        i.imm = zero_extended ? static_cast<std::int32_t>(rng.next_below(65536))
                              : static_cast<std::int32_t>(rng.next_in(-32768, 32767));
    }
    return i;
}

/// Independent reference semantics, written directly from docs/AR32.md.
void reference_step(const Instr& i, std::array<std::uint32_t, kNumRegs>& regs) {
    const std::uint32_t rn = regs[i.rn];
    const std::uint32_t rm = regs[i.rm];
    const auto imm = static_cast<std::uint32_t>(i.imm);
    switch (i.op) {
        case Op::Add: regs[i.rd] = rn + rm; break;
        case Op::Sub: regs[i.rd] = rn - rm; break;
        case Op::And: regs[i.rd] = rn & rm; break;
        case Op::Orr: regs[i.rd] = rn | rm; break;
        case Op::Eor: regs[i.rd] = rn ^ rm; break;
        case Op::Lsl: regs[i.rd] = rn << (rm % 32); break;
        case Op::Lsr: regs[i.rd] = rn >> (rm % 32); break;
        case Op::Asr: {
            const auto shift = static_cast<int>(rm % 32);
            regs[i.rd] = static_cast<std::uint32_t>(static_cast<std::int64_t>(
                             static_cast<std::int32_t>(rn)) >> shift);
            break;
        }
        case Op::Mul:
            regs[i.rd] = static_cast<std::uint32_t>(
                (static_cast<std::uint64_t>(rn) * rm) & 0xFFFFFFFFull);
            break;
        case Op::Mov: regs[i.rd] = rm; break;
        case Op::Mvn: regs[i.rd] = ~rm; break;
        case Op::Addi: regs[i.rd] = rn + imm; break;
        case Op::Subi: regs[i.rd] = rn - imm; break;
        case Op::Andi: regs[i.rd] = rn & imm; break;
        case Op::Orri: regs[i.rd] = rn | imm; break;
        case Op::Eori: regs[i.rd] = rn ^ imm; break;
        case Op::Lsli: regs[i.rd] = rn << (imm % 32); break;
        case Op::Lsri: regs[i.rd] = rn >> (imm % 32); break;
        case Op::Asri: {
            const auto shift = static_cast<int>(imm % 32);
            regs[i.rd] = static_cast<std::uint32_t>(static_cast<std::int64_t>(
                             static_cast<std::int32_t>(rn)) >> shift);
            break;
        }
        default:
            FAIL() << "fuzzer generated a non-ALU op";
    }
}

class AluFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AluFuzz, SimulatorMatchesReferenceInterpreter) {
    Rng rng(GetParam() * 7919 + 13);
    for (int program = 0; program < 40; ++program) {
        const std::size_t length = 10 + rng.next_below(80);
        std::vector<Instr> instrs;
        // Seed a few registers with immediates so the data is not all zero.
        for (unsigned r = 0; r < 6; ++r) {
            instrs.push_back(Instr{.op = Op::Movi,
                                   .rd = static_cast<std::uint8_t>(r),
                                   .imm = static_cast<std::int32_t>(rng.next_in(-32768, 32767))});
            instrs.push_back(Instr{.op = Op::Movhi,
                                   .rd = static_cast<std::uint8_t>(r),
                                   .imm = static_cast<std::int32_t>(rng.next_below(65536))});
        }
        for (std::size_t n = 0; n < length; ++n) instrs.push_back(random_alu_instr(rng));

        // Reference execution.
        std::array<std::uint32_t, kNumRegs> ref_regs{};
        ref_regs[kRegSp] = 256 * 1024;  // matches CpuConfig default
        for (const Instr& i : instrs) {
            if (i.op == Op::Movi) {
                ref_regs[i.rd] = static_cast<std::uint32_t>(i.imm);
            } else if (i.op == Op::Movhi) {
                ref_regs[i.rd] =
                    (ref_regs[i.rd] & 0xFFFFu) | (static_cast<std::uint32_t>(i.imm) << 16);
            } else {
                reference_step(i, ref_regs);
            }
        }

        // Full-stack execution: encode every instruction, dump all registers
        // through `out`, and run on the simulator.
        AssembledProgram prog;
        for (const Instr& i : instrs) prog.code.push_back(encode(i));
        for (unsigned r = 0; r < kNumRegs; ++r)
            prog.code.push_back(encode(Instr{.op = Op::Out, .rm = static_cast<std::uint8_t>(r)}));
        prog.code.push_back(encode(Instr{.op = Op::Halt}));
        prog.data_base = 0x10000;

        const RunResult result = Cpu(CpuConfig{}).run(prog);
        ASSERT_EQ(result.output.size(), kNumRegs) << "seed " << GetParam() << " prog " << program;
        for (unsigned r = 0; r < kNumRegs; ++r) {
            EXPECT_EQ(result.output[r], ref_regs[r])
                << "register r" << r << ", seed " << GetParam() << ", program " << program;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AluFuzz, ::testing::Range<std::uint64_t>(1, 11));

// ---- memory-op fuzzing ------------------------------------------------

/// Straight-line programs mixing ALU ops with word loads/stores confined to
/// a small scratch window of data memory; the reference interpreter keeps
/// its own copy of the window.
class MemFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MemFuzz, LoadsAndStoresMatchReferenceModel) {
    constexpr std::uint32_t kBase = 0x10000;   // data_base
    constexpr std::uint32_t kWords = 16;       // scratch window
    Rng rng(GetParam() * 104729 + 7);

    for (int program = 0; program < 25; ++program) {
        std::vector<Instr> instrs;
        // r15 anchors the scratch window; r0..r5 get random seeds.
        instrs.push_back(Instr{.op = Op::Movi, .rd = 15, .imm = 0});
        instrs.push_back(Instr{.op = Op::Movhi, .rd = 15, .imm = 1});  // r15 = 0x10000
        for (unsigned r = 0; r < 6; ++r) {
            instrs.push_back(Instr{.op = Op::Movi,
                                   .rd = static_cast<std::uint8_t>(r),
                                   .imm = static_cast<std::int32_t>(rng.next_in(-32768, 32767))});
        }
        const std::size_t length = 20 + rng.next_below(60);
        for (std::size_t n = 0; n < length; ++n) {
            const unsigned pick = static_cast<unsigned>(rng.next_below(3));
            if (pick == 0) {
                // Word store to a random slot.
                instrs.push_back(Instr{
                    .op = Op::Stw,
                    .rd = static_cast<std::uint8_t>(rng.next_below(6)),
                    .rn = 15,
                    .imm = static_cast<std::int32_t>(rng.next_below(kWords) * 4)});
            } else if (pick == 1) {
                instrs.push_back(Instr{
                    .op = Op::Ldw,
                    .rd = static_cast<std::uint8_t>(rng.next_below(6)),
                    .rn = 15,
                    .imm = static_cast<std::int32_t>(rng.next_below(kWords) * 4)});
            } else {
                Instr alu = random_alu_instr(rng);
                // Keep r15 (the window anchor) intact.
                if (alu.rd == 15) alu.rd = 0;
                instrs.push_back(alu);
            }
        }

        // Reference execution with its own memory window.
        std::array<std::uint32_t, kNumRegs> ref_regs{};
        ref_regs[kRegSp] = 256 * 1024;
        std::array<std::uint32_t, kWords> ref_mem{};
        for (const Instr& i : instrs) {
            if (i.op == Op::Movi) {
                ref_regs[i.rd] = static_cast<std::uint32_t>(i.imm);
            } else if (i.op == Op::Movhi) {
                ref_regs[i.rd] =
                    (ref_regs[i.rd] & 0xFFFFu) | (static_cast<std::uint32_t>(i.imm) << 16);
            } else if (i.op == Op::Stw) {
                const std::uint32_t addr = ref_regs[i.rn] + static_cast<std::uint32_t>(i.imm);
                ASSERT_EQ(addr % 4, 0u);
                ref_mem[(addr - kBase) / 4] = ref_regs[i.rd];
            } else if (i.op == Op::Ldw) {
                const std::uint32_t addr = ref_regs[i.rn] + static_cast<std::uint32_t>(i.imm);
                ref_regs[i.rd] = ref_mem[(addr - kBase) / 4];
            } else {
                reference_step(i, ref_regs);
            }
        }

        AssembledProgram prog;
        for (const Instr& i : instrs) prog.code.push_back(encode(i));
        for (unsigned r = 0; r < kNumRegs; ++r)
            prog.code.push_back(encode(Instr{.op = Op::Out, .rm = static_cast<std::uint8_t>(r)}));
        prog.code.push_back(encode(Instr{.op = Op::Halt}));
        prog.data_base = kBase;

        const RunResult result = Cpu(CpuConfig{}).run(prog);
        ASSERT_EQ(result.output.size(), kNumRegs);
        for (unsigned r = 0; r < kNumRegs; ++r) {
            EXPECT_EQ(result.output[r], ref_regs[r])
                << "register r" << r << ", seed " << GetParam() << ", program " << program;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemFuzz, ::testing::Range<std::uint64_t>(1, 9));


// ---- front-end robustness fuzzing ---------------------------------------

/// Random token soup fed to the assembler and to arclang: both must either
/// succeed or throw memopt::Error — never crash, hang, or trip an internal
/// assertion.
class FrontEndFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FrontEndFuzz, AssemblerNeverCrashesOnGarbage) {
    static const char* kAsmTokens[] = {
        "add",  "ldw",  "movi", "halt", "b",    "bl",    "li",   "push", ".data",
        ".word", ".rand", ".space", "r1",  "r15",  "sp",   "lr",   "label:", "label",
        "#5",   "-1",   "0x10", "[",    "]",    ",",     "\n",   ";comment\n", "65536",
    };
    Rng rng(GetParam() * 31337 + 5);
    for (int trial = 0; trial < 300; ++trial) {
        std::string source;
        const std::size_t tokens = rng.next_below(40);
        for (std::size_t t = 0; t < tokens; ++t) {
            source += kAsmTokens[rng.next_below(std::size(kAsmTokens))];
            source += ' ';
        }
        try {
            assemble(source);
        } catch (const Error&) {
            // rejected cleanly: fine
        }
    }
    SUCCEED();
}

TEST_P(FrontEndFuzz, ArclangNeverCrashesOnGarbage) {
    static const char* kLangTokens[] = {
        "var", "array", "if", "else", "while", "out", "rand", "smooth",
        "x",   "y",     "a",  "(",    ")",     "[",   "]",    "{",
        "}",   "=",     "+",  "*",    "<<",    "==",  "<",    ";",
        "1",   "0xFF",  ",",  "~",    "-",     ">>>",
    };
    Rng rng(GetParam() * 7001 + 3);
    for (int trial = 0; trial < 300; ++trial) {
        std::string source;
        const std::size_t tokens = rng.next_below(30);
        for (std::size_t t = 0; t < tokens; ++t) {
            source += kLangTokens[rng.next_below(std::size(kLangTokens))];
            source += ' ';
        }
        try {
            lang::compile_to_asm(source);
        } catch (const Error&) {
            // rejected cleanly: fine
        }
    }
    SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrontEndFuzz, ::testing::Range<std::uint64_t>(1, 6));


// ---- trace-reader robustness fuzzing ------------------------------------

/// Corrupted traces fed to both readers: serialize a valid trace, flip
/// random bytes / truncate at random offsets, and require that parsing
/// either succeeds or throws memopt::Error — never crashes, hangs, or
/// attempts an unbounded allocation.
class TraceIoFuzz : public ::testing::TestWithParam<std::uint64_t> {};

/// What one drain of a (possibly corrupt) container yields: the accesses
/// it delivered and, when it failed, the error's message (else "").
struct DrainOutcome {
    ChunkBuffer accesses;
    std::string error;

    bool operator==(const DrainOutcome&) const = default;
};

/// Drain `path` through next(), or through next_batch() in batches of
/// `max_chunks` at `jobs` when `max_chunks` > 0.
DrainOutcome drain_container(const std::string& path, std::size_t max_chunks, std::size_t jobs) {
    DrainOutcome out;
    try {
        MmapBinarySource reader(path);
        if (max_chunks == 0) {
            TraceChunk chunk;
            while (reader.next(chunk)) out.accesses.append(chunk);
        } else {
            std::vector<TraceChunk> batch;
            while (reader.next_batch(batch, max_chunks, jobs))
                for (const TraceChunk& chunk : batch) out.accesses.append(chunk);
        }
    } catch (const Error& e) {
        out.error = e.what();
    }
    return out;
}

// The binary reader is the mmap ".mtsc" container reader: header, offset
// table, block headers and payloads all take random hits, on plain and
// compressed containers alike. Each mutant is drained twice, block by
// block through next() and in batches of three verified on four threads;
// the batch drain must deliver the same accesses, or fail with the same
// message.
TEST_P(TraceIoFuzz, BinaryReaderSurvivesCorruption) {
    Rng rng(GetParam() * 52711 + 11);
    SyntheticParams sp;
    sp.span_bytes = 4096;
    sp.num_accesses = 64;
    sp.seed = GetParam();
    const MemTrace trace = materialize_synthetic({.kind = SyntheticKind::Uniform, .base = sp});
    MaterializedSource source(trace);
    const std::string path =
        ::testing::TempDir() + "trace_fuzz_" + std::to_string(GetParam()) + ".mtsc";
    StreamWriteOptions opts;
    opts.chunk_accesses = 16;  // four blocks, so the offset table is live
    opts.compress = GetParam() % 2 == 0;
    write_trace_stream(path, source, opts);
    std::string pristine;
    {
        std::ifstream is(path, std::ios::binary);
        pristine.assign(std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>());
    }
    ASSERT_FALSE(pristine.empty());

    for (int trial = 0; trial < 200; ++trial) {
        std::string bytes = pristine;
        const std::size_t flips = 1 + rng.next_below(8);
        for (std::size_t f = 0; f < flips; ++f)
            bytes[rng.next_below(bytes.size())] ^=
                static_cast<char>(1 + rng.next_below(255));
        if (rng.next_below(4) == 0) bytes.resize(rng.next_below(bytes.size() + 1));
        std::ofstream(path, std::ios::binary | std::ios::trunc)
            .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        // Either outcome is fine for one drain (rejected cleanly, or
        // accepted); the two drains must agree. A failed batch delivers
        // none of its chunks, so only complete drains compare accesses.
        const DrainOutcome serial = drain_container(path, 0, 1);
        const DrainOutcome batched = drain_container(path, 3, 4);
        EXPECT_EQ(batched.error, serial.error) << "trial " << trial;
        if (serial.error.empty()) {
            EXPECT_TRUE(batched == serial) << "trial " << trial;
        }
    }
    std::remove(path.c_str());
}

TEST_P(TraceIoFuzz, TextReaderSurvivesCorruption) {
    Rng rng(GetParam() * 68111 + 29);
    std::stringstream ss;
    SyntheticParams sp;
    sp.span_bytes = 4096;
    sp.num_accesses = 32;
    sp.seed = GetParam();
    const MemTrace trace = materialize_synthetic({.kind = SyntheticKind::Uniform, .base = sp});
    MaterializedSource source(trace);
    write_trace_text(ss, source);
    const std::string pristine = ss.str();

    for (int trial = 0; trial < 200; ++trial) {
        std::string text = pristine;
        const std::size_t flips = 1 + rng.next_below(6);
        for (std::size_t f = 0; f < flips; ++f)
            text[rng.next_below(text.size())] =
                static_cast<char>(0x20 + rng.next_below(0x5F));
        std::stringstream corrupted(text);
        try {
            read_trace_text(corrupted);
        } catch (const Error&) {
            // rejected cleanly: fine
        }
    }
    SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceIoFuzz, ::testing::Range<std::uint64_t>(1, 6));


// ---- codec corruption fuzzing -------------------------------------------

/// Corrupted compressed blobs fed to every line codec: encode a valid line,
/// flip random bits / truncate / extend the blob, and require decode() to
/// either return exactly line_bytes bytes or throw memopt::Error — never
/// crash, hang, or allocate past the line bound. This is the contract the
/// degraded-line classification of fault/campaign relies on.
class CodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

std::vector<std::uint8_t> random_line(Rng& rng, std::size_t line_bytes) {
    std::vector<std::uint8_t> line(line_bytes, 0);
    switch (rng.next_below(4)) {
        case 0:  // all zero: the zero-run sweet spot
            break;
        case 1: {  // smooth words: the diff/BDI sweet spot
            std::uint32_t value = static_cast<std::uint32_t>(rng.next_u64());
            for (std::size_t i = 0; i + 3 < line_bytes; i += 4) {
                value += static_cast<std::uint32_t>(rng.next_below(17)) - 8;
                for (unsigned b = 0; b < 4; ++b)
                    line[i + b] = static_cast<std::uint8_t>(value >> (8 * b));
            }
            break;
        }
        case 2: {  // few distinct values: the dictionary sweet spot
            const std::uint8_t a = static_cast<std::uint8_t>(rng.next_below(256));
            const std::uint8_t b = static_cast<std::uint8_t>(rng.next_below(256));
            for (auto& byte : line) byte = rng.next_bool(0.5) ? a : b;
            break;
        }
        default:  // incompressible noise: forces the raw fallback
            for (auto& byte : line) byte = static_cast<std::uint8_t>(rng.next_below(256));
    }
    return line;
}

TEST_P(CodecFuzz, DecodersSurviveCorruptedBlobs) {
    constexpr std::size_t kLineBytes = 32;
    Rng rng(GetParam() * 40093 + 17);
    SyntheticParams sp;
    sp.span_bytes = 4096;
    sp.num_accesses = 2000;
    sp.seed = GetParam();
    const DiffCodec diff;
    const ZeroRunCodec zero_run;
    const BdiCodec bdi;
    const MemTrace trace = materialize_synthetic({.kind = SyntheticKind::Uniform, .base = sp});
    const DictionaryCodec dict = DictionaryCodec::train(trace.write_values(), 16);
    const std::array<const LineCodec*, 4> codecs = {&diff, &zero_run, &bdi, &dict};

    for (int trial = 0; trial < 150; ++trial) {
        const std::vector<std::uint8_t> line = random_line(rng, kLineBytes);
        for (const LineCodec* codec : codecs) {
            std::vector<std::uint8_t> blob = codec->encode(line).bytes();
            // Corrupt: random bit flips, then maybe truncate or extend.
            if (!blob.empty())
                FaultInjector::flip_bits(std::span<std::uint8_t>(blob), 0.03, rng);
            if (rng.next_below(4) == 0) blob.resize(rng.next_below(blob.size() + 1));
            else if (rng.next_below(4) == 0)
                blob.resize(blob.size() + 1 + rng.next_below(8),
                            static_cast<std::uint8_t>(rng.next_below(256)));
            try {
                const std::vector<std::uint8_t> decoded = codec->decode(blob, kLineBytes);
                EXPECT_EQ(decoded.size(), kLineBytes) << codec->name();
            } catch (const Error&) {
                // rejected cleanly: fine
            }
        }
    }
    SUCCEED();
}

TEST_P(CodecFuzz, DecodersSurvivePureGarbage) {
    constexpr std::size_t kLineBytes = 32;
    Rng rng(GetParam() * 86453 + 41);
    SyntheticParams sp;
    sp.span_bytes = 4096;
    sp.num_accesses = 2000;
    sp.seed = GetParam();
    const DiffCodec diff;
    const ZeroRunCodec zero_run;
    const BdiCodec bdi;
    const MemTrace trace = materialize_synthetic({.kind = SyntheticKind::Uniform, .base = sp});
    const DictionaryCodec dict = DictionaryCodec::train(trace.write_values(), 16);
    const std::array<const LineCodec*, 4> codecs = {&diff, &zero_run, &bdi, &dict};

    for (int trial = 0; trial < 200; ++trial) {
        std::vector<std::uint8_t> garbage(rng.next_below(64));
        for (auto& byte : garbage) byte = static_cast<std::uint8_t>(rng.next_below(256));
        for (const LineCodec* codec : codecs) {
            try {
                const std::vector<std::uint8_t> decoded =
                    codec->decode(garbage, kLineBytes);
                EXPECT_EQ(decoded.size(), kLineBytes) << codec->name();
            } catch (const Error&) {
                // rejected cleanly: fine
            }
        }
    }
    // The caller-supplied size is clamped too: an absurd line_bytes must be
    // rejected before any allocation is sized from it.
    EXPECT_THROW(diff.decode({}, std::size_t{1} << 40), Error);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz, ::testing::Range<std::uint64_t>(1, 6));

}  // namespace
}  // namespace memopt
