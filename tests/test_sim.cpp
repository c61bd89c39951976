// Unit tests for the AR32 simulator: instruction semantics, flags and
// branches, memory access, tracing, and the runaway guard.
#include <gtest/gtest.h>

#include "sim/cpu.hpp"
#include "sim/memory.hpp"
#include "support/assert.hpp"

namespace memopt {
namespace {

std::vector<std::uint32_t> run_outputs(const std::string& source) {
    return run_source(source).output;
}

std::uint32_t run_single_output(const std::string& source) {
    const auto outputs = run_outputs(source);
    EXPECT_EQ(outputs.size(), 1u);
    return outputs.empty() ? 0u : outputs[0];
}

// -------------------------------------------------------------- memory ----

TEST(Memory, LittleEndianWordAccess) {
    Memory mem(4096);
    mem.store32(0, 0x11223344);
    EXPECT_EQ(mem.load8(0), 0x44u);
    EXPECT_EQ(mem.load8(3), 0x11u);
    EXPECT_EQ(mem.load16(0), 0x3344u);
    EXPECT_EQ(mem.load16(2), 0x1122u);
    EXPECT_EQ(mem.load32(0), 0x11223344u);
}

TEST(Memory, RejectsMisalignedAndOutOfRange) {
    Memory mem(4096);
    EXPECT_THROW(mem.load32(2), Error);
    EXPECT_THROW(mem.load16(1), Error);
    EXPECT_THROW(mem.load32(4096), Error);
    EXPECT_THROW(mem.store8(4096, 1), Error);
}

TEST(Memory, RejectsBadSize) {
    EXPECT_THROW(Memory(1000), Error);
    EXPECT_THROW(Memory(2048), Error);
}

// ---------------------------------------------------------- arithmetic ----

TEST(CpuExec, BasicArithmetic) {
    EXPECT_EQ(run_single_output("movi r1, 20\nmovi r2, 22\nadd r3, r1, r2\nout r3\nhalt\n"), 42u);
    EXPECT_EQ(run_single_output("movi r1, 20\nmovi r2, 22\nsub r3, r1, r2\nout r3\nhalt\n"),
              static_cast<std::uint32_t>(-2));
    EXPECT_EQ(run_single_output("movi r1, 6\nmovi r2, 7\nmul r3, r1, r2\nout r3\nhalt\n"), 42u);
}

TEST(CpuExec, ArithmeticWrapsModulo32) {
    EXPECT_EQ(run_single_output("li r1, 0xFFFFFFFF\naddi r2, r1, 1\nout r2\nhalt\n"), 0u);
    EXPECT_EQ(run_single_output("li r1, 0x80000000\nli r2, 0x80000000\nmul r3, r1, r2\n"
                                "out r3\nhalt\n"),
              0u);
}

TEST(CpuExec, LogicOps) {
    EXPECT_EQ(run_single_output("movi r1, 0xF0\nmovi r2, 0x3C\nand r3, r1, r2\nout r3\nhalt\n"),
              0x30u);
    EXPECT_EQ(run_single_output("movi r1, 0xF0\nmovi r2, 0x3C\norr r3, r1, r2\nout r3\nhalt\n"),
              0xFCu);
    EXPECT_EQ(run_single_output("movi r1, 0xF0\nmovi r2, 0x3C\neor r3, r1, r2\nout r3\nhalt\n"),
              0xCCu);
    EXPECT_EQ(run_single_output("movi r1, 5\nmvn r2, r1\nout r2\nhalt\n"), ~5u);
}

TEST(CpuExec, Shifts) {
    EXPECT_EQ(run_single_output("movi r1, 1\nlsli r2, r1, 31\nout r2\nhalt\n"), 0x80000000u);
    EXPECT_EQ(run_single_output("li r1, 0x80000000\nlsri r2, r1, 31\nout r2\nhalt\n"), 1u);
    EXPECT_EQ(run_single_output("li r1, 0x80000000\nasri r2, r1, 31\nout r2\nhalt\n"),
              0xFFFFFFFFu);
    // Register shifts use the low 5 bits of the amount.
    EXPECT_EQ(run_single_output("movi r1, 1\nmovi r2, 33\nlsl r3, r1, r2\nout r3\nhalt\n"), 2u);
}

TEST(CpuExec, MoviSignExtendsAndMovhiMerges) {
    EXPECT_EQ(run_single_output("movi r1, -1\nout r1\nhalt\n"), 0xFFFFFFFFu);
    EXPECT_EQ(run_single_output("movi r1, -1\nmovhi r1, 0x1234\nout r1\nhalt\n"), 0x1234FFFFu);
    EXPECT_EQ(run_single_output("li r1, 0xDEADBEEF\nout r1\nhalt\n"), 0xDEADBEEFu);
}

TEST(CpuExec, ImmediateVariantsMatchRegisterVariants) {
    EXPECT_EQ(run_single_output("movi r1, 100\nsubi r2, r1, 58\nout r2\nhalt\n"), 42u);
    EXPECT_EQ(run_single_output("movi r1, 0xFF\nandi r2, r1, 0x0F\nout r2\nhalt\n"), 0x0Fu);
    EXPECT_EQ(run_single_output("movi r1, 0xF0\norri r2, r1, 0x0F\nout r2\nhalt\n"), 0xFFu);
    EXPECT_EQ(run_single_output("movi r1, 0xFF\neori r2, r1, 0xF0\nout r2\nhalt\n"), 0x0Fu);
}

// ------------------------------------------------------ flags/branches ----

TEST(CpuExec, SignedBranches) {
    // -1 < 1 signed.
    EXPECT_EQ(run_single_output(R"(
        movi r1, -1
        movi r2, 1
        cmp  r1, r2
        blt  yes
        movi r3, 0
        b    done
yes:    movi r3, 1
done:   out  r3
        halt
)"),
              1u);
}

TEST(CpuExec, UnsignedBranches) {
    // 0xFFFFFFFF is large unsigned, so NOT below 1.
    EXPECT_EQ(run_single_output(R"(
        movi r1, -1
        movi r2, 1
        cmp  r1, r2
        blo  yes
        movi r3, 0
        b    done
yes:    movi r3, 1
done:   out  r3
        halt
)"),
              0u);
}

TEST(CpuExec, OverflowAwareSignedCompare) {
    // INT_MIN < 1 must hold despite overflow in the subtraction.
    EXPECT_EQ(run_single_output(R"(
        li   r1, 0x80000000
        movi r2, 1
        cmp  r1, r2
        blt  yes
        movi r3, 0
        b    done
yes:    movi r3, 1
done:   out  r3
        halt
)"),
              1u);
}

TEST(CpuExec, EqualityAndGtLe) {
    const char* tmpl = R"(
        movi r1, %d
        movi r2, %d
        cmp  r1, r2
        %s   yes
        movi r3, 0
        b    done
yes:    movi r3, 1
done:   out  r3
        halt
)";
    auto check = [&](int a, int b, const char* branch, std::uint32_t expect) {
        char buf[512];
        std::snprintf(buf, sizeof buf, tmpl, a, b, branch);
        EXPECT_EQ(run_single_output(buf), expect) << a << " " << branch << " " << b;
    };
    check(5, 5, "beq", 1);
    check(5, 6, "beq", 0);
    check(5, 6, "bne", 1);
    check(7, 6, "bgt", 1);
    check(6, 6, "bgt", 0);
    check(6, 6, "ble", 1);
    check(6, 6, "bge", 1);
    check(5, 6, "bhs", 0);
    check(6, 5, "bhs", 1);
}

TEST(CpuExec, CallAndReturn) {
    EXPECT_EQ(run_single_output(R"(
        movi r1, 1
        bl   fn
        addi r1, r1, 100
        out  r1
        halt
fn:     addi r1, r1, 10
        ret
)"),
              111u);
}

TEST(CpuExec, IndirectJump) {
    EXPECT_EQ(run_single_output(R"(
        li   r2, target
        jr   r2
        movi r1, 0
        out  r1
        halt
target: movi r1, 7
        out  r1
        halt
)"),
              7u);
}

// -------------------------------------------------------------- memory ----

TEST(CpuExec, LoadStoreWidths) {
    EXPECT_EQ(run_single_output(R"(
        li   r1, buf
        li   r2, 0xAABBCCDD
        stw  r2, [r1]
        ldb  r3, [r1, 1]
        out  r3
        halt
.data
buf:    .space 16
)"),
              0xCCu);
    EXPECT_EQ(run_single_output(R"(
        li   r1, buf
        li   r2, 0xAABBCCDD
        stw  r2, [r1]
        ldh  r3, [r1, 2]
        out  r3
        halt
.data
buf:    .space 16
)"),
              0xAABBu);
}

TEST(CpuExec, ByteStoreTruncates) {
    EXPECT_EQ(run_single_output(R"(
        li   r1, buf
        li   r2, 0x1FF
        stb  r2, [r1]
        ldw  r3, [r1]
        out  r3
        halt
.data
buf:    .word 0
)"),
              0xFFu);
}

TEST(CpuExec, IndexedAddressing) {
    EXPECT_EQ(run_single_output(R"(
        li   r1, arr
        movi r2, 8
        ldwx r3, [r1, r2]
        out  r3
        halt
.data
arr:    .word 10, 20, 30
)"),
              30u);
}

TEST(CpuExec, DataImageLoadedAtBase) {
    EXPECT_EQ(run_single_output(R"(
        li   r1, v
        ldw  r2, [r1]
        out  r2
        halt
.data
v:      .word 0xCAFE
)"),
              0xCAFEu);
}

TEST(CpuExec, StackPushPop) {
    EXPECT_EQ(run_single_output(R"(
        movi r1, 11
        movi r2, 22
        push r1
        push r2
        pop  r3
        pop  r4
        mul  r5, r3, r4
        out  r5
        halt
)"),
              242u);
}

TEST(CpuExec, MisalignedAccessFaults) {
    EXPECT_THROW(run_source("movi r1, 2\nldw r2, [r1]\nhalt\n"), Error);
}

TEST(CpuExec, OutOfRangeAccessFaults) {
    // 1 MiB lies beyond the 256 KiB data memory.
    static_assert(kCpuMemBytes < 0x100000);
    EXPECT_THROW(run_source("li r1, 0x100000\nldw r2, [r1]\nhalt\n"), Error);
}

// ------------------------------------------------------------- tracing ----

TEST(CpuExec, DataTraceRecordsValuesAndKinds) {
    const RunResult r = run_source(R"(
        li   r1, buf
        movi r2, 77
        stw  r2, [r1]
        ldw  r3, [r1]
        halt
.data
buf:    .word 0
)");
    ASSERT_EQ(r.data_trace.size(), 2u);
    const MemAccess store = r.data_trace.at(0);
    const MemAccess load = r.data_trace.at(1);
    EXPECT_EQ(store.kind, AccessKind::Write);
    EXPECT_EQ(store.value, 77u);
    EXPECT_EQ(load.kind, AccessKind::Read);
    EXPECT_EQ(load.value, 77u);
    EXPECT_EQ(store.addr, load.addr);
}

TEST(CpuExec, FetchStreamMatchesExecutedWords) {
    CpuConfig cfg;
    cfg.record_fetch_stream = true;
    const RunResult r = run_source("movi r1, 0\nmovi r1, 1\nhalt\n", cfg);
    EXPECT_EQ(r.fetch_stream.size(), r.instructions);
    EXPECT_EQ(r.instructions, 3u);
}

TEST(CpuExec, TraceDisabledWhenConfigured) {
    CpuConfig cfg;
    cfg.record_data_trace = false;
    const RunResult r = run_source(R"(
        li  r1, buf
        ldw r2, [r1]
        halt
.data
buf:    .word 1
)", cfg);
    EXPECT_TRUE(r.data_trace.empty());
}

// ----------------------------------------------------------- liveness ----

TEST(CpuExec, RunawayGuardFires) {
    CpuConfig cfg;
    cfg.max_instructions = 1000;
    EXPECT_THROW(run_source("loop: b loop\nhalt\n", cfg), Error);
}

TEST(CpuExec, PcOutOfRangeFaults) {
    // Fall off the end of the code (no halt).
    EXPECT_THROW(run_source("nop\n"), Error);
}

TEST(CpuExec, CycleModelChargesExtras) {
    const RunResult plain = run_source("nop\nnop\nhalt\n");
    EXPECT_EQ(plain.cycles, 3u);
    const RunResult mul = run_source("mul r1, r2, r3\nhalt\n");
    EXPECT_EQ(mul.cycles, 2u + 2u);  // mul(+2) + halt
}

}  // namespace
}  // namespace memopt
