// AR32: a 32-bit fixed-width load/store RISC instruction set.
//
// AR32 is the "ARM7-class simulator baseline" substrate of this repository:
// a compact RISC ISA with 16 registers, condition flags set by explicit
// compares, 16-bit immediates, and word-relative branches. It is expressive
// enough to implement the bundled embedded kernels while keeping the
// encoder, decoder and simulator small enough to verify exhaustively.
//
// Binary encoding (little-endian 32-bit words):
//   [31:26] opcode
//   R-type : rd[25:22] rn[21:18] rm[17:14]
//   I-type : rd[25:22] rn[21:18] imm16[15:0]
//   B      : cond[25:22] offset22[21:0]   (signed word offset from pc+4)
//   BL     : offset26[25:0]               (signed word offset from pc+4)
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace memopt {

/// AR32 opcodes. The enumerator value is the 6-bit opcode field.
enum class Op : std::uint8_t {
    // R-type arithmetic/logic: rd = rn <op> rm
    Add = 0,
    Sub,
    And,
    Orr,
    Eor,
    Lsl,
    Lsr,
    Asr,
    Mul,
    Mov,   // rd = rm
    Mvn,   // rd = ~rm
    Cmp,   // flags from rn - rm
    // R-type memory: rd <-> mem[rn + rm]
    Ldwx,
    Ldbx,
    Stwx,
    Stbx,
    // Indirect jump: pc = rm
    Jr,
    // I-type arithmetic/logic: rd = rn <op> imm
    Addi,  // imm sign-extended
    Subi,  // imm sign-extended
    Andi,  // imm zero-extended
    Orri,  // imm zero-extended
    Eori,  // imm zero-extended
    Lsli,  // shift amount = imm & 31
    Lsri,
    Asri,
    Movi,   // rd = sext(imm16)
    Movhi,  // rd = (rd & 0xFFFF) | imm16 << 16
    Cmpi,   // flags from rn - sext(imm16)
    // I-type memory: rd <-> mem[rn + sext(imm16)]
    Ldw,
    Ldh,  // zero-extending halfword load
    Ldb,  // zero-extending byte load
    Stw,
    Sth,
    Stb,
    // Control
    B,   // conditional branch (cond field)
    Bl,  // call: lr = pc + 4; pc += offset
    // Miscellaneous
    Out,   // append value of rm to the simulator output channel
    Halt,  // stop the simulator
    Nop,

    Count_,  // number of opcodes (not a real instruction)
};

/// Branch condition codes (evaluated against the N/Z/C/V flags set by
/// Cmp/Cmpi; signed comparisons use N^V, unsigned use C).
enum class Cond : std::uint8_t {
    Eq = 0,  // Z
    Ne,      // !Z
    Lt,      // signed <
    Ge,      // signed >=
    Gt,      // signed >
    Le,      // signed <=
    Lo,      // unsigned <
    Hs,      // unsigned >=
    Al,      // always

    Count_,
};

/// Number of general-purpose registers. r13 = sp, r14 = lr by convention;
/// the program counter is architectural state outside the register file.
inline constexpr unsigned kNumRegs = 16;
inline constexpr unsigned kRegSp = 13;
inline constexpr unsigned kRegLr = 14;

/// A decoded AR32 instruction.
struct Instr {
    Op op = Op::Nop;
    std::uint8_t rd = 0;
    std::uint8_t rn = 0;
    std::uint8_t rm = 0;
    Cond cond = Cond::Al;  // branches only
    std::int32_t imm = 0;  // I-type immediate, or branch word offset

    bool operator==(const Instr&) const = default;
};

/// Instruction format classes used by the encoder/decoder and assembler.
enum class Format : std::uint8_t { R, I, Branch, Call, None };

/// Assembly operand shape of an opcode: what follows the mnemonic.
enum class Operands : std::uint8_t {
    RdRnRm,    // rd, rn, rm
    RdRm,      // rd, rm
    RnRm,      // rn, rm
    Rm,        // rm
    RdRnImm,   // rd, rn, #imm
    RdImm,     // rd, #imm
    RnImm,     // rn, #imm
    RdMemReg,  // rd, [rn, rm]
    RdMemImm,  // rd, [rn, #imm]
    Target,    // branch or call target: a label, or a word offset when disassembled
    None,
};

/// One row of the opcode table (src/isa/isa.cpp), the single definition of
/// an opcode's mnemonic, binary format, operand syntax and immediate
/// extension that the encoder, decoder, assembler and disassembler read.
struct OpInfo {
    std::string_view mnemonic;  ///< lower-case ("add", "ldw", ...)
    Format format;
    Operands operands;
    bool zero_extended;  ///< I-type immediate is zero- rather than sign-extended
};

/// Table row of an opcode; `op` must be below Op::Count_.
const OpInfo& op_info(Op op);

/// Format of an opcode.
inline Format format_of(Op op) { return op_info(op).format; }

/// Lower-case mnemonic ("add", "ldw", ...).
inline std::string_view mnemonic(Op op) { return op_info(op).mnemonic; }

/// The opcode a mnemonic names, or nullopt ("beq" and the other condition
/// suffixes of "b" are assembler syntax, not mnemonics).
std::optional<Op> parse_mnemonic(std::string_view name);

/// Condition suffix ("eq", "ne", ..., "" for Al).
std::string_view cond_name(Cond c);

/// Parse a register name: "r0".."r15", "sp", "lr". Returns nullopt if invalid.
std::optional<unsigned> parse_reg(std::string_view name);

/// Register display name ("r4", "sp", "lr").
std::string reg_name(unsigned r);

}  // namespace memopt
