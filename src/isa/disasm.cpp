#include "isa/disasm.hpp"

#include <map>

#include "isa/encode.hpp"
#include "support/string_util.hpp"

namespace memopt {

std::string disassemble(const Instr& i) {
    if (i.op >= Op::Count_) return "<invalid>";
    const OpInfo& info = op_info(i.op);
    const std::string m(info.mnemonic);
    switch (info.operands) {
        case Operands::RdRnRm:
            return format("%s %s, %s, %s", m.c_str(), reg_name(i.rd).c_str(),
                          reg_name(i.rn).c_str(), reg_name(i.rm).c_str());
        case Operands::RdRm:
            return format("%s %s, %s", m.c_str(), reg_name(i.rd).c_str(), reg_name(i.rm).c_str());
        case Operands::RnRm:
            return format("%s %s, %s", m.c_str(), reg_name(i.rn).c_str(), reg_name(i.rm).c_str());
        case Operands::Rm:
            return format("%s %s", m.c_str(), reg_name(i.rm).c_str());
        case Operands::RdRnImm:
            return format("%s %s, %s, #%d", m.c_str(), reg_name(i.rd).c_str(),
                          reg_name(i.rn).c_str(), i.imm);
        case Operands::RdImm:
            return format("%s %s, #%d", m.c_str(), reg_name(i.rd).c_str(), i.imm);
        case Operands::RnImm:
            return format("%s %s, #%d", m.c_str(), reg_name(i.rn).c_str(), i.imm);
        case Operands::RdMemReg:
            return format("%s %s, [%s, %s]", m.c_str(), reg_name(i.rd).c_str(),
                          reg_name(i.rn).c_str(), reg_name(i.rm).c_str());
        case Operands::RdMemImm:
            return format("%s %s, [%s, #%d]", m.c_str(), reg_name(i.rd).c_str(),
                          reg_name(i.rn).c_str(), i.imm);
        case Operands::Target: {
            // Only the conditional branch carries a condition suffix.
            const std::string suffix(info.format == Format::Branch ? cond_name(i.cond) : "");
            return format("%s%s %+d", m.c_str(), suffix.c_str(), i.imm);
        }
        case Operands::None:
            return m;
    }
    return "<invalid>";
}

std::string disassemble_word(std::uint32_t word) { return disassemble(decode(word)); }

std::string disassemble_program(const AssembledProgram& program) {
    // Reverse the symbol table for annotation. Code symbols are < data_base.
    std::map<std::uint64_t, std::string> code_labels;
    std::map<std::uint64_t, std::string> data_labels;
    for (const auto& [name, addr] : program.symbols) {
        if (addr < program.data_base && addr < program.code.size() * 4) {
            code_labels.emplace(addr, name);
        } else {
            data_labels.emplace(addr, name);
        }
    }

    std::string out;
    for (std::size_t index = 0; index < program.code.size(); ++index) {
        const std::uint64_t addr = index * 4;
        if (const auto it = code_labels.find(addr); it != code_labels.end())
            out += it->second + ":\n";
        const std::uint32_t word = program.code[index];
        const Instr instr = decode(word);
        std::string text = disassemble(instr);
        // Resolve branch/call targets back to labels when one exists.
        if (instr.op == Op::B || instr.op == Op::Bl) {
            const std::uint64_t target =
                addr + 4 + (static_cast<std::int64_t>(instr.imm) * 4);
            if (const auto it = code_labels.find(target); it != code_labels.end()) {
                const std::size_t space = text.rfind(' ');
                text = text.substr(0, space + 1) + it->second;
            }
        }
        out += format("  %06llx: %08x  %s\n", static_cast<unsigned long long>(addr), word,
                      text.c_str());
    }
    if (!data_labels.empty()) {
        out += "\ndata symbols:\n";
        for (const auto& [addr, name] : data_labels)
            out += format("  %06llx: %s\n", static_cast<unsigned long long>(addr), name.c_str());
    }
    return out;
}

}  // namespace memopt
