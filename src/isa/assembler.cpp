#include "isa/assembler.hpp"

#include <algorithm>
#include <cctype>

#include "isa/encode.hpp"
#include "support/assert.hpp"
#include "support/bits.hpp"
#include "support/rng.hpp"
#include "support/string_util.hpp"

namespace memopt {

namespace {

/// A tokenized source line: optional label plus an optional statement.
struct Line {
    int number = 0;              // 1-based source line
    std::string label;           // without ':'
    std::string op;              // lower-cased mnemonic or directive
    std::vector<std::string> operands;  // comma-separated, trimmed
};

[[noreturn]] void fail(int line, const std::string& msg) {
    throw Error(format("asm line %d: %s", line, msg.c_str()));
}

bool is_ident_start(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '.';
}

bool valid_label(std::string_view s) {
    if (s.empty() || !is_ident_start(s.front()) || s.front() == '.') return false;
    return std::all_of(s.begin(), s.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
    });
}

std::vector<Line> tokenize(std::string_view source) {
    std::vector<Line> lines;
    int number = 0;
    for (std::string_view raw : split(source, '\n')) {
        ++number;
        // Strip comments.
        if (const auto pos = raw.find(';'); pos != std::string_view::npos)
            raw = raw.substr(0, pos);
        std::string_view text = trim(raw);
        if (text.empty()) continue;

        Line line;
        line.number = number;

        // Optional leading label.
        if (const auto colon = text.find(':'); colon != std::string_view::npos) {
            const std::string_view candidate = trim(text.substr(0, colon));
            if (valid_label(candidate)) {
                line.label = std::string(candidate);
                text = trim(text.substr(colon + 1));
            }
        }

        if (!text.empty()) {
            // Mnemonic is the first whitespace-delimited token.
            std::size_t i = 0;
            while (i < text.size() && !std::isspace(static_cast<unsigned char>(text[i]))) ++i;
            line.op = to_lower(text.substr(0, i));
            const std::string_view rest = trim(text.substr(i));
            if (!rest.empty()) {
                for (std::string_view part : split(rest, ','))
                    line.operands.emplace_back(trim(part));
            }
        }
        lines.push_back(std::move(line));
    }
    return lines;
}

enum class Section { Code, Data };

/// Word size (in 4-byte units) a statement contributes to the code section.
std::size_t code_words_of(const Line& line) {
    if (line.op == "li" || line.op == "la" || line.op == "push" || line.op == "pop") return 2;
    return 1;
}

/// Condition of a branch mnemonic: "b" plus a condition suffix ("beq",
/// ...), or the "bal" alias of "b".
std::optional<Cond> branch_cond(std::string_view op) {
    if (op == "bal") return Cond::Al;
    const std::string_view b = mnemonic(Op::B);
    if (!op.starts_with(b)) return std::nullopt;
    for (unsigned c = 0; c < static_cast<unsigned>(Cond::Count_); ++c)
        if (cond_name(static_cast<Cond>(c)) == op.substr(b.size())) return static_cast<Cond>(c);
    return std::nullopt;
}

constexpr std::uint64_t kDataBase = 0x10000;  // byte address of the data section

class Assembler {
public:
    explicit Assembler(std::string_view source) {
        lines_ = tokenize(source);
        pass1();
        pass2();
    }

    AssembledProgram take() && { return std::move(program_); }

private:
    // ---- pass 1: lay out sections and record symbols -----------------------

    void pass1() {
        Section section = Section::Code;
        std::uint64_t code_bytes = 0;
        std::uint64_t data_bytes = 0;
        for (const Line& line : lines_) {
            std::uint64_t& offset = section == Section::Code ? code_bytes : data_bytes;
            if (!line.label.empty()) {
                const std::uint64_t addr =
                    section == Section::Code ? offset : kDataBase + offset;
                if (!program_.symbols.emplace(line.label, addr).second)
                    fail(line.number, "duplicate label '" + line.label + "'");
            }
            if (line.op.empty()) continue;
            if (line.op == ".code") {
                section = Section::Code;
            } else if (line.op == ".data") {
                section = Section::Data;
            } else if (line.op[0] == '.') {
                const std::uint64_t size = directive_size(line, offset);
                offset += size;
                if (section == Section::Code && offset % 4 != 0)
                    fail(line.number, "data directive leaves code section misaligned");
            } else {
                if (section == Section::Data)
                    fail(line.number, "instruction in .data section");
                offset += 4 * code_words_of(line);
            }
        }
    }

    std::uint64_t directive_size(const Line& line, std::uint64_t offset) const {
        if (line.op == ".word") return 4 * require_count(line);
        if (line.op == ".half") return 2 * require_count(line);
        if (line.op == ".byte") return 1 * require_count(line);
        if (line.op == ".space") return parse_u64(line, 0);
        if (line.op == ".align") {
            const std::uint64_t n = parse_u64(line, 0);
            if (!is_pow2(n)) fail(line.number, ".align requires a power of two");
            return (n - offset % n) % n;
        }
        if (line.op == ".rand") {
            if (line.operands.size() != 2) fail(line.number, ".rand requires COUNT, SEED");
            return 4 * parse_u64(line, 0);
        }
        if (line.op == ".randsmooth") {
            if (line.operands.size() != 3)
                fail(line.number, ".randsmooth requires COUNT, SEED, MAXDELTA");
            return 4 * parse_u64(line, 0);
        }
        fail(line.number, "unknown directive '" + line.op + "'");
    }

    std::uint64_t require_count(const Line& line) const {
        if (line.operands.empty()) fail(line.number, line.op + " requires at least one value");
        return line.operands.size();
    }

    std::uint64_t parse_u64(const Line& line, std::size_t idx) const {
        if (idx >= line.operands.size()) fail(line.number, "missing operand");
        const auto v = parse_int(line.operands[idx]);
        if (!v || *v < 0) fail(line.number, "expected a non-negative integer operand");
        return static_cast<std::uint64_t>(*v);
    }

    // ---- pass 2: emit ------------------------------------------------------

    void pass2() {
        Section section = Section::Code;
        for (const Line& line : lines_) {
            if (line.op.empty()) continue;
            if (line.op == ".code") {
                section = Section::Code;
            } else if (line.op == ".data") {
                section = Section::Data;
            } else if (line.op[0] == '.') {
                emit_directive(line, section);
            } else {
                emit_instruction(line);
            }
        }
        program_.data_base = kDataBase;
        require(program_.code.size() * 4 <= kDataBase,
                "assemble: code section overlaps the data base");
    }

    void emit_byte(Section section, std::uint8_t byte) {
        if (section == Section::Code) {
            code_partial_.push_back(byte);
            if (code_partial_.size() == 4) {
                std::uint32_t w = 0;
                for (int i = 3; i >= 0; --i) w = (w << 8) | code_partial_[static_cast<std::size_t>(i)];
                program_.code.push_back(w);
                code_partial_.clear();
            }
        } else {
            program_.data.push_back(byte);
        }
    }

    void emit_value(Section section, std::uint64_t value, unsigned bytes) {
        for (unsigned i = 0; i < bytes; ++i) emit_byte(section, static_cast<std::uint8_t>(value >> (8 * i)));
    }

    std::uint64_t current_offset(Section section) const {
        return section == Section::Code ? program_.code.size() * 4 + code_partial_.size()
                                        : program_.data.size();
    }

    void emit_directive(const Line& line, Section section) {
        if (line.op == ".word") {
            for (const std::string& operand : line.operands)
                emit_value(section, static_cast<std::uint64_t>(value_of(line, operand)), 4);
        } else if (line.op == ".half") {
            for (const std::string& operand : line.operands) {
                const std::int64_t v = value_of(line, operand);
                if (v < -32768 || v > 65535) fail(line.number, ".half value out of range");
                emit_value(section, static_cast<std::uint64_t>(v), 2);
            }
        } else if (line.op == ".byte") {
            for (const std::string& operand : line.operands) {
                const std::int64_t v = value_of(line, operand);
                if (v < -128 || v > 255) fail(line.number, ".byte value out of range");
                emit_value(section, static_cast<std::uint64_t>(v), 1);
            }
        } else if (line.op == ".space") {
            const std::uint64_t n = parse_u64(line, 0);
            for (std::uint64_t i = 0; i < n; ++i) emit_byte(section, 0);
        } else if (line.op == ".align") {
            const std::uint64_t n = parse_u64(line, 0);
            while (current_offset(section) % n != 0) emit_byte(section, 0);
        } else if (line.op == ".rand") {
            const std::uint64_t count = parse_u64(line, 0);
            const std::uint64_t seed = parse_u64(line, 1);
            for (std::uint32_t w : asm_random_words(count, seed)) emit_value(section, w, 4);
        } else if (line.op == ".randsmooth") {
            const std::uint64_t count = parse_u64(line, 0);
            const std::uint64_t seed = parse_u64(line, 1);
            const std::uint64_t max_delta = parse_u64(line, 2);
            for (std::uint32_t w :
                 asm_smooth_words(count, seed, static_cast<std::uint32_t>(max_delta)))
                emit_value(section, w, 4);
        } else {
            fail(line.number, "unknown directive '" + line.op + "'");
        }
    }

    // Value of an operand that may be an integer or label[+/-offset].
    std::int64_t value_of(const Line& line, std::string_view token) const {
        token = trim(token);
        if (!token.empty() && token.front() == '#') token.remove_prefix(1);
        if (const auto v = parse_int(token)) return *v;
        // label, label+N, label-N
        std::size_t split_pos = std::string_view::npos;
        for (std::size_t i = 1; i < token.size(); ++i) {
            if (token[i] == '+' || token[i] == '-') {
                split_pos = i;
                break;
            }
        }
        const std::string_view name = trim(token.substr(0, split_pos));
        const auto it = program_.symbols.find(std::string(name));
        if (it == program_.symbols.end())
            fail(line.number, format("undefined symbol '%.*s'", static_cast<int>(name.size()),
                                     name.data()));
        std::int64_t value = static_cast<std::int64_t>(it->second);
        if (split_pos != std::string_view::npos) {
            const auto off = parse_int(trim(token.substr(split_pos)));
            if (!off) fail(line.number, "malformed symbol offset");
            value += *off;
        }
        return value;
    }

    std::uint8_t reg_of(const Line& line, std::size_t idx) const {
        if (idx >= line.operands.size()) fail(line.number, "missing register operand");
        const auto r = parse_reg(line.operands[idx]);
        if (!r) fail(line.number, "invalid register '" + line.operands[idx] + "'");
        return static_cast<std::uint8_t>(*r);
    }

    std::int32_t imm_of(const Line& line, std::size_t idx) const {
        if (idx >= line.operands.size()) fail(line.number, "missing immediate operand");
        const std::int64_t v = value_of(line, line.operands[idx]);
        if (v < INT32_MIN || v > INT32_MAX) fail(line.number, "immediate does not fit in 32 bits");
        return static_cast<std::int32_t>(v);
    }

    // Parse "[rn]" / "[rn, #imm]" / "[rn, rm]" memory operands spread over
    // the already comma-split operand list starting at `idx`.
    struct MemOperand {
        unsigned rn = 0;
        bool reg_offset = false;
        unsigned rm = 0;
        std::int32_t imm = 0;
    };

    MemOperand mem_of(const Line& line, std::size_t idx) const {
        if (idx >= line.operands.size()) fail(line.number, "missing memory operand");
        // Re-join the remaining operands: the tokenizer split on ','.
        std::string joined = line.operands[idx];
        for (std::size_t i = idx + 1; i < line.operands.size(); ++i)
            joined += "," + line.operands[i];
        std::string_view s = trim(joined);
        if (s.size() < 3 || s.front() != '[' || s.back() != ']')
            fail(line.number, "malformed memory operand '" + joined + "'");
        s = s.substr(1, s.size() - 2);
        const auto parts = split(s, ',');
        if (parts.empty() || parts.size() > 2) fail(line.number, "malformed memory operand");
        MemOperand m;
        const auto rn = parse_reg(trim(parts[0]));
        if (!rn) fail(line.number, "invalid base register in memory operand");
        m.rn = *rn;
        if (parts.size() == 2) {
            const std::string_view second = trim(parts[1]);
            if (const auto rm = parse_reg(second)) {
                m.reg_offset = true;
                m.rm = *rm;
            } else {
                const std::int64_t v = value_of(line, second);
                if (v < kImm16Min || v > kImm16Max)
                    fail(line.number, "memory offset out of range");
                m.imm = static_cast<std::int32_t>(v);
            }
        }
        return m;
    }

    void push_instr(const Line& line, const Instr& instr) {
        if (!code_partial_.empty()) fail(line.number, "instruction at misaligned code offset");
        try {
            program_.code.push_back(encode(instr));
        } catch (const Error& e) {
            fail(line.number, e.what());
        }
    }

    std::int32_t branch_offset(const Line& line, std::size_t operand_idx) const {
        const std::int64_t target = value_of(line, line.operands.size() > operand_idx
                                                       ? line.operands[operand_idx]
                                                       : (fail(line.number, "missing branch target"),
                                                          std::string{}));
        const std::int64_t pc = static_cast<std::int64_t>(program_.code.size()) * 4;
        if (target % 4 != 0) fail(line.number, "branch target is not word aligned");
        return static_cast<std::int32_t>((target - (pc + 4)) / 4);
    }

    void emit_instruction(const Line& line) {
        const std::string& op = line.op;

        // Pseudo-instructions first.
        if (op == "li" || op == "la") {
            if (line.operands.size() != 2) fail(line.number, op + " requires rd, value");
            const std::uint8_t rd = reg_of(line, 0);
            const std::int64_t v64 = value_of(line, line.operands[1]);
            const auto value = static_cast<std::uint32_t>(static_cast<std::int64_t>(v64));
            const auto low = static_cast<std::int32_t>(static_cast<std::int16_t>(value & 0xFFFF));
            const auto high = static_cast<std::int32_t>(value >> 16);
            push_instr(line, Instr{.op = Op::Movi, .rd = rd, .imm = low});
            push_instr(line, Instr{.op = Op::Movhi, .rd = rd, .imm = high});
            return;
        }
        if (op == "ret") {
            push_instr(line, Instr{.op = Op::Jr, .rm = kRegLr});
            return;
        }
        if (op == "push") {
            const std::uint8_t rd = reg_of(line, 0);
            push_instr(line, Instr{.op = Op::Subi, .rd = kRegSp, .rn = kRegSp, .imm = 4});
            push_instr(line, Instr{.op = Op::Stw, .rd = rd, .rn = kRegSp, .imm = 0});
            return;
        }
        if (op == "pop") {
            const std::uint8_t rd = reg_of(line, 0);
            push_instr(line, Instr{.op = Op::Ldw, .rd = rd, .rn = kRegSp, .imm = 0});
            push_instr(line, Instr{.op = Op::Addi, .rd = kRegSp, .rn = kRegSp, .imm = 4});
            return;
        }

        // Conditional branches; "bl" is an ordinary table row.
        if (const auto cond = branch_cond(op)) {
            push_instr(line, Instr{.op = Op::B, .cond = *cond, .imm = branch_offset(line, 0)});
            return;
        }

        const auto opcode = parse_mnemonic(op);
        if (!opcode) fail(line.number, "unknown mnemonic '" + op + "'");
        const Operands shape = op_info(*opcode).operands;
        Instr instr{.op = *opcode};
        switch (shape) {
            case Operands::RdRnRm:
                instr.rd = reg_of(line, 0);
                instr.rn = reg_of(line, 1);
                instr.rm = reg_of(line, 2);
                break;
            case Operands::RdRm:
                instr.rd = reg_of(line, 0);
                instr.rm = reg_of(line, 1);
                break;
            case Operands::RnRm:
                instr.rn = reg_of(line, 0);
                instr.rm = reg_of(line, 1);
                break;
            case Operands::Rm:
                instr.rm = reg_of(line, 0);
                break;
            case Operands::RdRnImm:
                instr.rd = reg_of(line, 0);
                instr.rn = reg_of(line, 1);
                instr.imm = imm_of(line, 2);
                break;
            case Operands::RdImm:
                instr.rd = reg_of(line, 0);
                instr.imm = imm_of(line, 1);
                break;
            case Operands::RnImm:
                instr.rn = reg_of(line, 0);
                instr.imm = imm_of(line, 1);
                break;
            case Operands::RdMemReg:
            case Operands::RdMemImm: {
                instr.rd = reg_of(line, 0);
                const MemOperand m = mem_of(line, 1);
                instr.rn = static_cast<std::uint8_t>(m.rn);
                if (m.reg_offset) {
                    // Promote an immediate-form mnemonic to its register
                    // form ("ldw" -> "ldwx").
                    if (shape == Operands::RdMemImm) {
                        const auto x_form = parse_mnemonic(op + "x");
                        if (!x_form || op_info(*x_form).operands != Operands::RdMemReg)
                            fail(line.number, "register offset unsupported for this mnemonic");
                        instr.op = *x_form;
                    }
                    instr.rm = static_cast<std::uint8_t>(m.rm);
                } else {
                    if (shape == Operands::RdMemReg)
                        fail(line.number, "x-form load/store requires a register offset");
                    instr.imm = m.imm;
                }
                break;
            }
            case Operands::Target:
                instr.imm = branch_offset(line, 0);
                break;
            case Operands::None:
                break;
        }
        push_instr(line, instr);
    }

    std::vector<Line> lines_;
    AssembledProgram program_;
    std::vector<std::uint8_t> code_partial_;  // sub-word bytes pending in .code
};

}  // namespace

std::uint64_t AssembledProgram::symbol(const std::string& name) const {
    const auto it = symbols.find(name);
    require(it != symbols.end(), "undefined symbol '" + name + "'");
    return it->second;
}

AssembledProgram assemble(std::string_view source) {
    return Assembler(source).take();
}

std::vector<std::uint32_t> asm_random_words(std::size_t count, std::uint64_t seed) {
    std::vector<std::uint32_t> words;
    words.reserve(count);
    std::uint64_t state = seed;
    for (std::size_t i = 0; i < count; ++i)
        words.push_back(static_cast<std::uint32_t>(splitmix64(state)));
    return words;
}

std::vector<std::uint32_t> asm_smooth_words(std::size_t count, std::uint64_t seed,
                                            std::uint32_t max_delta) {
    std::vector<std::uint32_t> words;
    words.reserve(count);
    std::uint64_t state = seed;
    std::uint32_t value = static_cast<std::uint32_t>(splitmix64(state));
    const std::uint64_t steps = 2ULL * max_delta + 1;
    for (std::size_t i = 0; i < count; ++i) {
        words.push_back(value);
        const auto step =
            static_cast<std::int64_t>(splitmix64(state) % steps) - max_delta;
        value = static_cast<std::uint32_t>(static_cast<std::int64_t>(value) + step);
    }
    return words;
}

}  // namespace memopt
