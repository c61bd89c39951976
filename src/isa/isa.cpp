#include "isa/isa.hpp"

#include "support/assert.hpp"
#include "support/string_util.hpp"

namespace memopt {

Format format_of(Op op) {
    switch (op) {
        case Op::Add:
        case Op::Sub:
        case Op::And:
        case Op::Orr:
        case Op::Eor:
        case Op::Lsl:
        case Op::Lsr:
        case Op::Asr:
        case Op::Mul:
        case Op::Mov:
        case Op::Mvn:
        case Op::Cmp:
        case Op::Ldwx:
        case Op::Ldbx:
        case Op::Stwx:
        case Op::Stbx:
        case Op::Jr:
        case Op::Out:
            return Format::R;
        case Op::Addi:
        case Op::Subi:
        case Op::Andi:
        case Op::Orri:
        case Op::Eori:
        case Op::Lsli:
        case Op::Lsri:
        case Op::Asri:
        case Op::Movi:
        case Op::Movhi:
        case Op::Cmpi:
        case Op::Ldw:
        case Op::Ldh:
        case Op::Ldb:
        case Op::Stw:
        case Op::Sth:
        case Op::Stb:
            return Format::I;
        case Op::B:
            return Format::Branch;
        case Op::Bl:
            return Format::Call;
        case Op::Halt:
        case Op::Nop:
            return Format::None;
        case Op::Count_:
            break;
    }
    MEMOPT_ASSERT_MSG(false, "format_of: invalid opcode");
    return Format::None;
}

std::string_view mnemonic(Op op) {
    switch (op) {
        case Op::Add: return "add";
        case Op::Sub: return "sub";
        case Op::And: return "and";
        case Op::Orr: return "orr";
        case Op::Eor: return "eor";
        case Op::Lsl: return "lsl";
        case Op::Lsr: return "lsr";
        case Op::Asr: return "asr";
        case Op::Mul: return "mul";
        case Op::Mov: return "mov";
        case Op::Mvn: return "mvn";
        case Op::Cmp: return "cmp";
        case Op::Ldwx: return "ldwx";
        case Op::Ldbx: return "ldbx";
        case Op::Stwx: return "stwx";
        case Op::Stbx: return "stbx";
        case Op::Jr: return "jr";
        case Op::Addi: return "addi";
        case Op::Subi: return "subi";
        case Op::Andi: return "andi";
        case Op::Orri: return "orri";
        case Op::Eori: return "eori";
        case Op::Lsli: return "lsli";
        case Op::Lsri: return "lsri";
        case Op::Asri: return "asri";
        case Op::Movi: return "movi";
        case Op::Movhi: return "movhi";
        case Op::Cmpi: return "cmpi";
        case Op::Ldw: return "ldw";
        case Op::Ldh: return "ldh";
        case Op::Ldb: return "ldb";
        case Op::Stw: return "stw";
        case Op::Sth: return "sth";
        case Op::Stb: return "stb";
        case Op::B: return "b";
        case Op::Bl: return "bl";
        case Op::Out: return "out";
        case Op::Halt: return "halt";
        case Op::Nop: return "nop";
        case Op::Count_: break;
    }
    MEMOPT_ASSERT_MSG(false, "mnemonic: invalid opcode");
    return "?";
}

std::string_view cond_name(Cond c) {
    switch (c) {
        case Cond::Eq: return "eq";
        case Cond::Ne: return "ne";
        case Cond::Lt: return "lt";
        case Cond::Ge: return "ge";
        case Cond::Gt: return "gt";
        case Cond::Le: return "le";
        case Cond::Lo: return "lo";
        case Cond::Hs: return "hs";
        case Cond::Al: return "";
        case Cond::Count_: break;
    }
    MEMOPT_ASSERT_MSG(false, "cond_name: invalid condition");
    return "?";
}

std::optional<unsigned> parse_reg(std::string_view name) {
    const std::string lower = to_lower(name);
    if (lower == "sp") return kRegSp;
    if (lower == "lr") return kRegLr;
    if (lower.size() >= 2 && lower[0] == 'r') {
        const auto num = parse_int(lower.substr(1));
        if (num && *num >= 0 && *num < static_cast<std::int64_t>(kNumRegs))
            return static_cast<unsigned>(*num);
    }
    return std::nullopt;
}

std::string reg_name(unsigned r) {
    MEMOPT_ASSERT(r < kNumRegs);
    if (r == kRegSp) return "sp";
    if (r == kRegLr) return "lr";
    return format("r%u", r);
}

}  // namespace memopt
