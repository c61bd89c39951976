#include "isa/encode.hpp"

#include "support/assert.hpp"
#include "support/string_util.hpp"

namespace memopt {

namespace {

std::uint32_t field(std::uint32_t value, unsigned shift) { return value << shift; }

std::int32_t sext(std::uint32_t value, unsigned bits) {
    const std::uint32_t mask = (bits >= 32) ? ~0u : ((1u << bits) - 1);
    value &= mask;
    const std::uint32_t sign = 1u << (bits - 1);
    return static_cast<std::int32_t>((value ^ sign) - sign);
}

}  // namespace

bool imm_fits(Op op, std::int32_t imm) {
    if (op_info(op).zero_extended) return imm >= 0 && imm <= kUimm16Max;
    return imm >= kImm16Min && imm <= kImm16Max;
}

std::uint32_t encode(const Instr& instr) {
    require(static_cast<unsigned>(instr.op) < static_cast<unsigned>(Op::Count_),
            "encode: invalid opcode");
    require(instr.rd < kNumRegs && instr.rn < kNumRegs && instr.rm < kNumRegs,
            "encode: register out of range");
    std::uint32_t w = field(static_cast<std::uint32_t>(instr.op), 26);
    switch (format_of(instr.op)) {
        case Format::R:
            w |= field(instr.rd, 22) | field(instr.rn, 18) | field(instr.rm, 14);
            break;
        case Format::I: {
            require(imm_fits(instr.op, instr.imm),
                    format("encode: immediate %d out of range for %.*s", instr.imm,
                           static_cast<int>(mnemonic(instr.op).size()), mnemonic(instr.op).data()));
            const auto imm16 = static_cast<std::uint32_t>(instr.imm) & 0xFFFFu;
            w |= field(instr.rd, 22) | field(instr.rn, 18) | imm16;
            break;
        }
        case Format::Branch: {
            require(static_cast<unsigned>(instr.cond) < static_cast<unsigned>(Cond::Count_),
                    "encode: invalid condition");
            require(instr.imm >= kBranchOffsetMin && instr.imm <= kBranchOffsetMax,
                    "encode: branch offset out of range");
            const auto off = static_cast<std::uint32_t>(instr.imm) & 0x3FFFFFu;
            w |= field(static_cast<std::uint32_t>(instr.cond), 22) | off;
            break;
        }
        case Format::Call: {
            require(instr.imm >= kCallOffsetMin && instr.imm <= kCallOffsetMax,
                    "encode: call offset out of range");
            w |= static_cast<std::uint32_t>(instr.imm) & 0x3FFFFFFu;
            break;
        }
        case Format::None:
            break;
    }
    return w;
}

Instr decode(std::uint32_t word) {
    const std::uint32_t opfield = word >> 26;
    require(opfield < static_cast<std::uint32_t>(Op::Count_), "decode: invalid opcode field");
    Instr instr;
    instr.op = static_cast<Op>(opfield);
    const OpInfo& info = op_info(instr.op);
    switch (info.format) {
        case Format::R:
            instr.rd = static_cast<std::uint8_t>((word >> 22) & 0xF);
            instr.rn = static_cast<std::uint8_t>((word >> 18) & 0xF);
            instr.rm = static_cast<std::uint8_t>((word >> 14) & 0xF);
            break;
        case Format::I:
            instr.rd = static_cast<std::uint8_t>((word >> 22) & 0xF);
            instr.rn = static_cast<std::uint8_t>((word >> 18) & 0xF);
            instr.imm = info.zero_extended ? static_cast<std::int32_t>(word & 0xFFFFu)
                                           : sext(word, 16);
            break;
        case Format::Branch: {
            const std::uint32_t condfield = (word >> 22) & 0xF;
            require(condfield < static_cast<std::uint32_t>(Cond::Count_),
                    "decode: invalid condition field");
            instr.cond = static_cast<Cond>(condfield);
            instr.imm = sext(word, 22);
            break;
        }
        case Format::Call:
            instr.imm = sext(word, 26);
            break;
        case Format::None:
            break;
    }
    return instr;
}

}  // namespace memopt
