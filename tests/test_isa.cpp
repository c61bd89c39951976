// Unit and property tests for the AR32 ISA: encode/decode round-trips,
// immediate ranges, the disassembler, and the two-pass assembler.
#include <gtest/gtest.h>

#include "isa/assembler.hpp"
#include "isa/disasm.hpp"
#include "sim/kernels.hpp"
#include "isa/encode.hpp"
#include "isa/isa.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace memopt {
namespace {

// -------------------------------------------------------- encode/decode ----

Instr random_instr_for(Op op, Rng& rng) {
    Instr i;
    i.op = op;
    switch (format_of(op)) {
        case Format::R:
            i.rd = static_cast<std::uint8_t>(rng.next_below(kNumRegs));
            i.rn = static_cast<std::uint8_t>(rng.next_below(kNumRegs));
            i.rm = static_cast<std::uint8_t>(rng.next_below(kNumRegs));
            // Zero the fields the instruction does not read or write, so
            // the assembly text carries the full semantic content.
            if (op == Op::Mov || op == Op::Mvn) i.rn = 0;
            if (op == Op::Cmp) i.rd = 0;
            if (op == Op::Jr || op == Op::Out) {
                i.rd = 0;
                i.rn = 0;
            }
            break;
        case Format::I: {
            i.rd = static_cast<std::uint8_t>(rng.next_below(kNumRegs));
            i.rn = static_cast<std::uint8_t>(rng.next_below(kNumRegs));
            if (op == Op::Movi || op == Op::Movhi) i.rn = 0;  // rn unused
            if (op == Op::Cmpi) i.rd = 0;                     // rd unused
            const bool is_unsigned = imm_fits(op, 40000);
            i.imm = is_unsigned ? static_cast<std::int32_t>(rng.next_below(65536))
                                : static_cast<std::int32_t>(rng.next_in(-32768, 32767));
            break;
        }
        case Format::Branch:
            i.cond = static_cast<Cond>(rng.next_below(static_cast<unsigned>(Cond::Count_)));
            i.imm = static_cast<std::int32_t>(rng.next_in(kBranchOffsetMin, kBranchOffsetMax));
            break;
        case Format::Call:
            i.imm = static_cast<std::int32_t>(rng.next_in(kCallOffsetMin, kCallOffsetMax));
            break;
        case Format::None:
            break;
    }
    return i;
}

/// Normalize: decode only reproduces the fields its format carries.
Instr canonical(const Instr& i) {
    Instr c;
    c.op = i.op;
    switch (format_of(i.op)) {
        case Format::R:
            c.rd = i.rd;
            c.rn = i.rn;
            c.rm = i.rm;
            break;
        case Format::I:
            c.rd = i.rd;
            c.rn = i.rn;
            c.imm = i.imm;
            break;
        case Format::Branch:
            c.cond = i.cond;
            c.imm = i.imm;
            break;
        case Format::Call:
            c.imm = i.imm;
            break;
        case Format::None:
            break;
    }
    return c;
}

class EncodeRoundTrip : public ::testing::TestWithParam<unsigned> {};

TEST_P(EncodeRoundTrip, DecodeInvertsEncode) {
    const Op op = static_cast<Op>(GetParam());
    Rng rng(GetParam() * 1234567 + 1);
    for (int trial = 0; trial < 200; ++trial) {
        const Instr instr = random_instr_for(op, rng);
        const Instr expected = canonical(instr);
        const Instr decoded = decode(encode(instr));
        EXPECT_EQ(decoded, expected) << "op=" << mnemonic(op) << " trial=" << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(AllOpcodes, EncodeRoundTrip,
                         ::testing::Range(0u, static_cast<unsigned>(Op::Count_)),
                         [](const auto& info) {
                             return std::string(mnemonic(static_cast<Op>(info.param)));
                         });

TEST(Encode, RejectsOutOfRangeImmediates) {
    EXPECT_THROW(encode(Instr{.op = Op::Addi, .imm = 40000}), Error);
    EXPECT_THROW(encode(Instr{.op = Op::Andi, .imm = -1}), Error);
    EXPECT_THROW(encode(Instr{.op = Op::Andi, .imm = 70000}), Error);
    EXPECT_THROW(encode(Instr{.op = Op::B, .imm = kBranchOffsetMax + 1}), Error);
    EXPECT_THROW(encode(Instr{.op = Op::Bl, .imm = kCallOffsetMin - 1}), Error);
}

TEST(Encode, AcceptsBoundaryImmediates) {
    EXPECT_NO_THROW(encode(Instr{.op = Op::Addi, .imm = kImm16Min}));
    EXPECT_NO_THROW(encode(Instr{.op = Op::Addi, .imm = kImm16Max}));
    EXPECT_NO_THROW(encode(Instr{.op = Op::Andi, .imm = kUimm16Max}));
    EXPECT_NO_THROW(encode(Instr{.op = Op::B, .imm = kBranchOffsetMin}));
}

TEST(Decode, RejectsInvalidOpcodeField) {
    const std::uint32_t bad = static_cast<std::uint32_t>(Op::Count_) << 26;
    EXPECT_THROW(decode(bad), Error);
}

// ----------------------------------------------------------- registers ----

TEST(Registers, ParseNamesAndAliases) {
    EXPECT_EQ(parse_reg("r0").value(), 0u);
    EXPECT_EQ(parse_reg("R15").value(), 15u);
    EXPECT_EQ(parse_reg("sp").value(), kRegSp);
    EXPECT_EQ(parse_reg("LR").value(), kRegLr);
    EXPECT_FALSE(parse_reg("r16").has_value());
    EXPECT_FALSE(parse_reg("x1").has_value());
    EXPECT_FALSE(parse_reg("r").has_value());
}

TEST(Registers, DisplayNames) {
    EXPECT_EQ(reg_name(0), "r0");
    EXPECT_EQ(reg_name(kRegSp), "sp");
    EXPECT_EQ(reg_name(kRegLr), "lr");
}

// ------------------------------------------------------------- disasm ----

TEST(Disasm, KnownRenderings) {
    EXPECT_EQ(disassemble(Instr{.op = Op::Add, .rd = 1, .rn = 2, .rm = 3}), "add r1, r2, r3");
    EXPECT_EQ(disassemble(Instr{.op = Op::Ldw, .rd = 4, .rn = 13, .imm = -8}),
              "ldw r4, [sp, #-8]");
    EXPECT_EQ(disassemble(Instr{.op = Op::B, .cond = Cond::Eq, .imm = 3}), "beq +3");
    EXPECT_EQ(disassemble(Instr{.op = Op::Halt}), "halt");
}

TEST(Disasm, EveryOpcodeRenders) {
    Rng rng(99);
    for (unsigned o = 0; o < static_cast<unsigned>(Op::Count_); ++o) {
        const Instr i = random_instr_for(static_cast<Op>(o), rng);
        EXPECT_FALSE(disassemble(i).empty());
        EXPECT_EQ(disassemble_word(encode(i)), disassemble(canonical(i)));
    }
}

// ---------------------------------------------------------- assembler ----

TEST(Assembler, MinimalProgram) {
    const auto prog = assemble("movi r1, 5\n out r1\n halt\n");
    ASSERT_EQ(prog.code.size(), 3u);
    EXPECT_EQ(decode(prog.code[0]).op, Op::Movi);
    EXPECT_EQ(decode(prog.code[0]).imm, 5);
    EXPECT_EQ(decode(prog.code[2]).op, Op::Halt);
}

TEST(Assembler, LabelsAndBranches) {
    const auto prog = assemble(R"(
        movi r1, 0
loop:   addi r1, r1, 1
        cmpi r1, 3
        blt  loop
        halt
)");
    const Instr branch = decode(prog.code[3]);
    EXPECT_EQ(branch.op, Op::B);
    EXPECT_EQ(branch.cond, Cond::Lt);
    // Branch at word 3 targeting word 1: offset = 1 - 4 = -3.
    EXPECT_EQ(branch.imm, -3);
}

TEST(Assembler, EveryBranchMnemonic) {
    const std::pair<const char*, Cond> branches[] = {
        {"b", Cond::Al},   {"bal", Cond::Al}, {"beq", Cond::Eq}, {"bne", Cond::Ne},
        {"blt", Cond::Lt}, {"bge", Cond::Ge}, {"bgt", Cond::Gt}, {"ble", Cond::Le},
        {"blo", Cond::Lo}, {"bhs", Cond::Hs}};
    for (const auto& [name, cond] : branches) {
        const Instr branch = decode(assemble(std::string(name) + " next\nnext: halt\n").code[0]);
        EXPECT_EQ(branch.op, Op::B) << name;
        EXPECT_EQ(format_of(branch.op), Format::Branch) << name;
        EXPECT_EQ(branch.cond, cond) << name;
        EXPECT_EQ(branch.imm, 0) << name;
    }
    const Instr call = decode(assemble("bl next\nnext: halt\n").code[0]);
    EXPECT_EQ(call.op, Op::Bl);
    EXPECT_EQ(format_of(call.op), Format::Call);
    EXPECT_EQ(call.imm, 0);
    EXPECT_THROW(assemble("bhi next\nnext: halt\n"), Error);
}

TEST(Assembler, DataSectionAndSymbols) {
    const auto prog = assemble(R"(
        li r1, table
        halt
.data
pad:    .space 16
table:  .word 1, 2, 3
)");
    EXPECT_EQ(prog.symbol("pad"), prog.data_base);
    EXPECT_EQ(prog.symbol("table"), prog.data_base + 16);
    ASSERT_EQ(prog.data.size(), 16u + 12u);
    EXPECT_EQ(prog.data[16], 1u);
    EXPECT_EQ(prog.data[20], 2u);
    EXPECT_THROW(prog.symbol("missing"), Error);
}

TEST(Assembler, LiExpandsToMoviMovhi) {
    const auto prog = assemble("li r2, 0x12345678\n halt\n");
    ASSERT_EQ(prog.code.size(), 3u);
    const Instr lo = decode(prog.code[0]);
    const Instr hi = decode(prog.code[1]);
    EXPECT_EQ(lo.op, Op::Movi);
    EXPECT_EQ(hi.op, Op::Movhi);
    EXPECT_EQ(static_cast<std::uint16_t>(lo.imm), 0x5678u);
    EXPECT_EQ(hi.imm, 0x1234);
}

TEST(Assembler, PushPopExpand) {
    const auto prog = assemble("push r3\n pop r4\n halt\n");
    ASSERT_EQ(prog.code.size(), 5u);
    EXPECT_EQ(decode(prog.code[0]).op, Op::Subi);
    EXPECT_EQ(decode(prog.code[1]).op, Op::Stw);
    EXPECT_EQ(decode(prog.code[2]).op, Op::Ldw);
    EXPECT_EQ(decode(prog.code[3]).op, Op::Addi);
}

TEST(Assembler, MemoryOperandForms) {
    const auto prog = assemble(R"(
        ldw r1, [r2]
        ldw r1, [r2, #8]
        ldw r1, [r2, r3]
        stb r1, [r2, -1]
        halt
)");
    EXPECT_EQ(decode(prog.code[0]).imm, 0);
    EXPECT_EQ(decode(prog.code[1]).imm, 8);
    EXPECT_EQ(decode(prog.code[2]).op, Op::Ldwx);
    EXPECT_EQ(decode(prog.code[3]).imm, -1);
}

TEST(Assembler, RandDirectiveMatchesHelper) {
    const auto prog = assemble(".data\nbuf: .rand 4, 77\n.code\nhalt\n");
    const auto words = asm_random_words(4, 77);
    ASSERT_EQ(prog.data.size(), 16u);
    for (std::size_t w = 0; w < 4; ++w) {
        std::uint32_t v = 0;
        for (int b = 3; b >= 0; --b) v = (v << 8) | prog.data[w * 4 + static_cast<std::size_t>(b)];
        EXPECT_EQ(v, words[w]);
    }
}

TEST(Assembler, RandSmoothDirectiveMatchesHelper) {
    const auto prog = assemble(".data\nbuf: .randsmooth 8, 5, 100\n.code\nhalt\n");
    const auto words = asm_smooth_words(8, 5, 100);
    ASSERT_EQ(prog.data.size(), 32u);
    for (std::size_t w = 0; w < 8; ++w) {
        std::uint32_t v = 0;
        for (int b = 3; b >= 0; --b) v = (v << 8) | prog.data[w * 4 + static_cast<std::size_t>(b)];
        EXPECT_EQ(v, words[w]);
    }
}

TEST(Assembler, SmoothWordsHaveBoundedSteps) {
    const auto words = asm_smooth_words(500, 9, 50);
    for (std::size_t i = 1; i < words.size(); ++i) {
        const auto delta = static_cast<std::int32_t>(words[i] - words[i - 1]);
        EXPECT_LE(std::abs(delta), 50);
    }
}

TEST(Assembler, AlignPadsToBoundary) {
    const auto prog = assemble(".data\n.byte 1\n.align 8\nv: .word 9\n.code\nhalt\n");
    EXPECT_EQ(prog.symbol("v"), prog.data_base + 8);
}

TEST(Assembler, HalfAndByteDirectives) {
    const auto prog = assemble(".data\nv: .half 0x1234, -1\nb: .byte 255, -128\n.code\nhalt\n");
    EXPECT_EQ(prog.data[0], 0x34u);
    EXPECT_EQ(prog.data[1], 0x12u);
    EXPECT_EQ(prog.data[2], 0xFFu);
    EXPECT_EQ(prog.data[3], 0xFFu);
    EXPECT_EQ(prog.data[4], 255u);
    EXPECT_EQ(prog.data[5], 0x80u);
}

TEST(Assembler, SymbolArithmetic) {
    const auto prog = assemble(R"(
        li r1, buf+8
        halt
.data
buf:    .space 32
)");
    const Instr lo = decode(prog.code[0]);
    EXPECT_EQ(static_cast<std::uint16_t>(lo.imm),
              static_cast<std::uint16_t>(prog.data_base + 8));
}

TEST(Assembler, ErrorsCarryLineNumbers) {
    try {
        assemble("nop\nbogus r1\n");
        FAIL() << "expected parse error";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    }
}

TEST(Assembler, RejectsDuplicateLabel) {
    EXPECT_THROW(assemble("a: nop\na: halt\n"), Error);
}

TEST(Assembler, RejectsInstructionInDataSection) {
    EXPECT_THROW(assemble(".data\nadd r1, r2, r3\n"), Error);
}

TEST(Assembler, RejectsUndefinedSymbol) {
    EXPECT_THROW(assemble("b nowhere\n"), Error);
}

TEST(Assembler, RejectsOutOfRangeMemoryOffset) {
    EXPECT_THROW(assemble("ldw r1, [r2, #40000]\nhalt\n"), Error);
}

TEST(Assembler, RejectsBadRegister) {
    EXPECT_THROW(assemble("add r1, r2, r99\n"), Error);
}

TEST(Assembler, CommentsAndBlankLinesIgnored)
{
    const auto prog = assemble("; leading comment\n\n  nop ; trailing\nhalt\n");
    EXPECT_EQ(prog.code.size(), 2u);
}

// Disassembler output for R/I instructions re-assembles to the same word.
TEST(Assembler, DisasmRoundTrip) {
    Rng rng(1001);
    for (unsigned o = 0; o < static_cast<unsigned>(Op::Count_); ++o) {
        const Op op = static_cast<Op>(o);
        const Format f = format_of(op);
        if (f == Format::Branch || f == Format::Call) continue;  // numeric targets
        const Instr instr = canonical(random_instr_for(op, rng));
        const std::string text = disassemble(instr) + "\n";
        const auto prog = assemble(text);
        ASSERT_EQ(prog.code.size(), 1u) << text;
        EXPECT_EQ(prog.code[0], encode(instr)) << text;
    }
}


// ----------------------------------------------------- program listing ----

TEST(Disasm, ProgramListingAnnotatesLabelsAndTargets) {
    const auto prog = assemble(R"(
start:  movi r1, 0
loop:   addi r1, r1, 1
        cmpi r1, 3
        blt  loop
        bl   fn
        halt
fn:     ret
.data
buf:    .word 1, 2
)");
    const std::string listing = disassemble_program(prog);
    EXPECT_NE(listing.find("start:"), std::string::npos);
    EXPECT_NE(listing.find("loop:"), std::string::npos);
    EXPECT_NE(listing.find("blt loop"), std::string::npos);   // resolved target
    EXPECT_NE(listing.find("bl fn"), std::string::npos);
    EXPECT_NE(listing.find("data symbols:"), std::string::npos);
    EXPECT_NE(listing.find("buf"), std::string::npos);
}

TEST(Disasm, ProgramListingCoversEveryKernel) {
    for (const Kernel& k : kernel_suite()) {
        const std::string listing = disassemble_program(assemble(k.source));
        EXPECT_NE(listing.find("halt"), std::string::npos) << k.name;
        EXPECT_EQ(listing.find("<invalid>"), std::string::npos) << k.name;
    }
}

}  // namespace
}  // namespace memopt
