#include "isa/isa.hpp"

#include <iterator>

#include "support/assert.hpp"
#include "support/string_util.hpp"

namespace memopt {

namespace {

// The opcode table: one row per Op, in enumerator order.
constexpr OpInfo kOps[] = {
    {"add", Format::R, Operands::RdRnRm, false},
    {"sub", Format::R, Operands::RdRnRm, false},
    {"and", Format::R, Operands::RdRnRm, false},
    {"orr", Format::R, Operands::RdRnRm, false},
    {"eor", Format::R, Operands::RdRnRm, false},
    {"lsl", Format::R, Operands::RdRnRm, false},
    {"lsr", Format::R, Operands::RdRnRm, false},
    {"asr", Format::R, Operands::RdRnRm, false},
    {"mul", Format::R, Operands::RdRnRm, false},
    {"mov", Format::R, Operands::RdRm, false},
    {"mvn", Format::R, Operands::RdRm, false},
    {"cmp", Format::R, Operands::RnRm, false},
    {"ldwx", Format::R, Operands::RdMemReg, false},
    {"ldbx", Format::R, Operands::RdMemReg, false},
    {"stwx", Format::R, Operands::RdMemReg, false},
    {"stbx", Format::R, Operands::RdMemReg, false},
    {"jr", Format::R, Operands::Rm, false},
    {"addi", Format::I, Operands::RdRnImm, false},
    {"subi", Format::I, Operands::RdRnImm, false},
    {"andi", Format::I, Operands::RdRnImm, true},
    {"orri", Format::I, Operands::RdRnImm, true},
    {"eori", Format::I, Operands::RdRnImm, true},
    {"lsli", Format::I, Operands::RdRnImm, true},
    {"lsri", Format::I, Operands::RdRnImm, true},
    {"asri", Format::I, Operands::RdRnImm, true},
    {"movi", Format::I, Operands::RdImm, false},
    {"movhi", Format::I, Operands::RdImm, true},
    {"cmpi", Format::I, Operands::RnImm, false},
    {"ldw", Format::I, Operands::RdMemImm, false},
    {"ldh", Format::I, Operands::RdMemImm, false},
    {"ldb", Format::I, Operands::RdMemImm, false},
    {"stw", Format::I, Operands::RdMemImm, false},
    {"sth", Format::I, Operands::RdMemImm, false},
    {"stb", Format::I, Operands::RdMemImm, false},
    {"b", Format::Branch, Operands::Target, false},
    {"bl", Format::Call, Operands::Target, false},
    {"out", Format::R, Operands::Rm, false},
    {"halt", Format::None, Operands::None, false},
    {"nop", Format::None, Operands::None, false},
};
static_assert(std::size(kOps) == static_cast<std::size_t>(Op::Count_), "one row per Op");

constexpr std::string_view kCondNames[] = {"eq", "ne", "lt", "ge", "gt", "le", "lo", "hs", ""};
static_assert(std::size(kCondNames) == static_cast<std::size_t>(Cond::Count_),
              "one name per Cond");

}  // namespace

const OpInfo& op_info(Op op) { return enum_entry(kOps, op); }

std::optional<Op> parse_mnemonic(std::string_view name) {
    return parse_enum<Op>(kOps, name, &OpInfo::mnemonic);
}

std::string_view cond_name(Cond c) { return enum_entry(kCondNames, c); }

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
