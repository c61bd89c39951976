#include "sim/cpu.hpp"

#include "isa/encode.hpp"
#include "sim/memory.hpp"
#include "support/string_util.hpp"

namespace memopt {

namespace {

struct Flags {
    bool n = false, z = false, c = false, v = false;
};

Flags compare(std::uint32_t a, std::uint32_t b) {
    const std::uint32_t diff = a - b;
    Flags f;
    f.z = diff == 0;
    f.n = (diff >> 31) != 0;
    f.c = a >= b;  // no borrow
    const bool sa = (a >> 31) != 0;
    const bool sb = (b >> 31) != 0;
    const bool sd = (diff >> 31) != 0;
    f.v = (sa != sb) && (sd != sa);
    return f;
}

bool cond_holds(Cond cond, const Flags& f) {
    switch (cond) {
        case Cond::Eq: return f.z;
        case Cond::Ne: return !f.z;
        case Cond::Lt: return f.n != f.v;
        case Cond::Ge: return f.n == f.v;
        case Cond::Gt: return !f.z && (f.n == f.v);
        case Cond::Le: return f.z || (f.n != f.v);
        case Cond::Lo: return !f.c;
        case Cond::Hs: return f.c;
        case Cond::Al: return true;
        case Cond::Count_: break;
    }
    MEMOPT_ASSERT_MSG(false, "cond_holds: invalid condition");
    return false;
}

}  // namespace

Cpu::Cpu(const CpuConfig& config) : config_(config) {}

RunResult Cpu::run(const AssembledProgram& program) {
    require(!program.code.empty(), "Cpu::run: empty program");
    require(program.data_base + program.data.size() <= kCpuMemBytes,
            "Cpu::run: data image does not fit in memory");

    Memory mem(kCpuMemBytes);
    mem.write_block(program.data_base, program.data);

    std::array<std::uint32_t, kNumRegs> regs{};
    regs[kRegSp] = static_cast<std::uint32_t>(kCpuMemBytes);
    std::uint32_t pc = 0;
    Flags flags;
    RunResult result;

    // Decode the code image once; execution then indexes this vector.
    std::vector<Instr> decoded;
    decoded.reserve(program.code.size());
    for (std::uint32_t w : program.code) decoded.push_back(decode(w));

    auto trace_access = [&](std::uint64_t addr, std::uint8_t size, AccessKind kind,
                            std::uint32_t value) {
        if (config_.record_data_trace)
            result.data_trace.add(MemAccess{addr, result.cycles, value, size, kind});
    };

    for (;;) {
        if (result.instructions >= config_.max_instructions)
            throw Error("Cpu::run: instruction budget exhausted (runaway program?)");
        if (pc % 4 != 0 || pc / 4 >= decoded.size())
            throw Error(format("Cpu::run: pc out of range: 0x%x", pc));

        const std::size_t index = pc / 4;
        const Instr& instr = decoded[index];
        if (config_.record_fetch_stream) result.fetch_stream.push_back(program.code[index]);
        ++result.instructions;
        ++result.cycles;

        std::uint32_t next_pc = pc + 4;
        const std::uint32_t rn = regs[instr.rn];
        const std::uint32_t rm = regs[instr.rm];
        const auto imm = static_cast<std::uint32_t>(instr.imm);

        switch (instr.op) {
            case Op::Add: regs[instr.rd] = rn + rm; break;
            case Op::Sub: regs[instr.rd] = rn - rm; break;
            case Op::And: regs[instr.rd] = rn & rm; break;
            case Op::Orr: regs[instr.rd] = rn | rm; break;
            case Op::Eor: regs[instr.rd] = rn ^ rm; break;
            case Op::Lsl: regs[instr.rd] = rn << (rm & 31); break;
            case Op::Lsr: regs[instr.rd] = rn >> (rm & 31); break;
            case Op::Asr:
                regs[instr.rd] =
                    static_cast<std::uint32_t>(static_cast<std::int32_t>(rn) >> (rm & 31));
                break;
            case Op::Mul:
                regs[instr.rd] = rn * rm;
                result.cycles += 2;
                break;
            case Op::Mov: regs[instr.rd] = rm; break;
            case Op::Mvn: regs[instr.rd] = ~rm; break;
            case Op::Cmp: flags = compare(rn, rm); break;

            case Op::Addi: regs[instr.rd] = rn + imm; break;
            case Op::Subi: regs[instr.rd] = rn - imm; break;
            case Op::Andi: regs[instr.rd] = rn & imm; break;
            case Op::Orri: regs[instr.rd] = rn | imm; break;
            case Op::Eori: regs[instr.rd] = rn ^ imm; break;
            case Op::Lsli: regs[instr.rd] = rn << (imm & 31); break;
            case Op::Lsri: regs[instr.rd] = rn >> (imm & 31); break;
            case Op::Asri:
                regs[instr.rd] =
                    static_cast<std::uint32_t>(static_cast<std::int32_t>(rn) >> (imm & 31));
                break;
            case Op::Movi: regs[instr.rd] = imm; break;
            case Op::Movhi:
                regs[instr.rd] = (regs[instr.rd] & 0xFFFFu) | (imm << 16);
                break;
            case Op::Cmpi: flags = compare(rn, imm); break;

            case Op::Ldw: {
                const std::uint64_t addr = rn + imm;
                regs[instr.rd] = mem.load32(addr);
                trace_access(addr, 4, AccessKind::Read, regs[instr.rd]);
                ++result.cycles;
                break;
            }
            case Op::Ldh: {
                const std::uint64_t addr = rn + imm;
                regs[instr.rd] = mem.load16(addr);
                trace_access(addr, 2, AccessKind::Read, regs[instr.rd]);
                ++result.cycles;
                break;
            }
            case Op::Ldb: {
                const std::uint64_t addr = rn + imm;
                regs[instr.rd] = mem.load8(addr);
                trace_access(addr, 1, AccessKind::Read, regs[instr.rd]);
                ++result.cycles;
                break;
            }
            case Op::Stw: {
                const std::uint64_t addr = rn + imm;
                mem.store32(addr, regs[instr.rd]);
                trace_access(addr, 4, AccessKind::Write, regs[instr.rd]);
                ++result.cycles;
                break;
            }
            case Op::Sth: {
                const std::uint64_t addr = rn + imm;
                mem.store16(addr, static_cast<std::uint16_t>(regs[instr.rd]));
                trace_access(addr, 2, AccessKind::Write, regs[instr.rd] & 0xFFFFu);
                ++result.cycles;
                break;
            }
            case Op::Stb: {
                const std::uint64_t addr = rn + imm;
                mem.store8(addr, static_cast<std::uint8_t>(regs[instr.rd]));
                trace_access(addr, 1, AccessKind::Write, regs[instr.rd] & 0xFFu);
                ++result.cycles;
                break;
            }
            case Op::Ldwx: {
                const std::uint64_t addr = rn + rm;
                regs[instr.rd] = mem.load32(addr);
                trace_access(addr, 4, AccessKind::Read, regs[instr.rd]);
                ++result.cycles;
                break;
            }
            case Op::Ldbx: {
                const std::uint64_t addr = rn + rm;
                regs[instr.rd] = mem.load8(addr);
                trace_access(addr, 1, AccessKind::Read, regs[instr.rd]);
                ++result.cycles;
                break;
            }
            case Op::Stwx: {
                const std::uint64_t addr = rn + rm;
                mem.store32(addr, regs[instr.rd]);
                trace_access(addr, 4, AccessKind::Write, regs[instr.rd]);
                ++result.cycles;
                break;
            }
            case Op::Stbx: {
                const std::uint64_t addr = rn + rm;
                mem.store8(addr, static_cast<std::uint8_t>(regs[instr.rd]));
                trace_access(addr, 1, AccessKind::Write, regs[instr.rd] & 0xFFu);
                ++result.cycles;
                break;
            }

            case Op::Jr:
                next_pc = rm & ~3u;
                result.cycles += 2;
                break;
            case Op::B:
                if (cond_holds(instr.cond, flags)) {
                    next_pc = pc + 4 + (static_cast<std::uint32_t>(instr.imm) << 2);
                    result.cycles += 2;
                }
                break;
            case Op::Bl:
                regs[kRegLr] = pc + 4;
                next_pc = pc + 4 + (static_cast<std::uint32_t>(instr.imm) << 2);
                result.cycles += 2;
                break;

            case Op::Out:
                result.output.push_back(rm);
                break;
            case Op::Halt:
                return result;
            case Op::Nop:
                break;
            case Op::Count_:
                MEMOPT_ASSERT_MSG(false, "executed invalid opcode");
        }
        pc = next_pc;
    }
}

RunResult run_source(std::string_view source, const CpuConfig& config) {
    return Cpu(config).run(assemble(source));
}

}  // namespace memopt
