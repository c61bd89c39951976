// Tests for arclang: lexer, parser, semantic checks, and — most importantly
// — compiled-program semantics verified by executing the generated AR32
// code on the simulator against values computed here in C++.
#include <gtest/gtest.h>

#include "isa/assembler.hpp"
#include "lang/codegen.hpp"
#include "lang/lexer.hpp"
#include "lang/parser.hpp"
#include "sim/cpu.hpp"
#include "support/assert.hpp"

namespace memopt {
namespace {

using lang::compile;
using lang::compile_to_asm;
using lang::tokenize;

std::vector<std::uint32_t> run_lang(const std::string& source) {
    return Cpu(CpuConfig{}).run(compile(source)).output;
}

std::uint32_t run_lang_single(const std::string& source) {
    const auto outputs = run_lang(source);
    EXPECT_EQ(outputs.size(), 1u);
    return outputs.empty() ? 0u : outputs[0];
}

// ---------------------------------------------------------------- lexer ----

TEST(LangLexer, TokenizesOperatorsLongestFirst) {
    const auto tokens = tokenize("a >>> 1 >> 2 >= b");
    ASSERT_EQ(tokens.size(), 8u);  // a >>> 1 >> 2 >= b END
    EXPECT_EQ(tokens[1].text, ">>>");
    EXPECT_EQ(tokens[3].text, ">>");
    EXPECT_EQ(tokens[5].text, ">=");
}

TEST(LangLexer, TracksLinesAndSkipsComments) {
    const auto tokens = tokenize("x\n// comment line\ny");
    ASSERT_EQ(tokens.size(), 3u);
    EXPECT_EQ(tokens[0].line, 1);
    EXPECT_EQ(tokens[1].line, 3);
}

TEST(LangLexer, HexNumbers) {
    const auto tokens = tokenize("0xFF 42");
    EXPECT_EQ(tokens[0].number, 255);
    EXPECT_EQ(tokens[1].number, 42);
}

TEST(LangLexer, RejectsBadCharacters) {
    EXPECT_THROW(tokenize("a $ b"), Error);
    try {
        tokenize("ok\nbad @");
        FAIL();
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    }
}

// --------------------------------------------------------------- parser ----

TEST(LangParser, SyntaxErrorsCarryLines) {
    try {
        lang::parse("var x = 1;\nvar y = ;\n");
        FAIL();
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    }
    EXPECT_THROW(lang::parse("if (x) { out(1); "), Error);       // unterminated block
    EXPECT_THROW(lang::parse("array a[0];"), Error);             // bad length
    EXPECT_THROW(lang::parse("array a[4] = foo(1);"), Error);    // bad initializer
    EXPECT_THROW(lang::parse("while x < 1 { }"), Error);         // missing parens
}

// ------------------------------------------------------ semantic checks ----

TEST(LangSemantics, RejectsUndeclaredAndRedeclared) {
    EXPECT_THROW(compile_to_asm("out(x);"), Error);
    EXPECT_THROW(compile_to_asm("x = 1;"), Error);
    EXPECT_THROW(compile_to_asm("var x = 1; var x = 2;"), Error);
    EXPECT_THROW(compile_to_asm("array a[4]; array a[4];"), Error);
    EXPECT_THROW(compile_to_asm("array a[4]; var a = 1;"), Error);
}

TEST(LangSemantics, RejectsScalarArrayConfusion) {
    EXPECT_THROW(compile_to_asm("var x = 1; out(x[0]);"), Error);
    EXPECT_THROW(compile_to_asm("array a[4]; out(a);"), Error);
    EXPECT_THROW(compile_to_asm("var x = 1; x[0] = 2;"), Error);
}

TEST(LangSemantics, RejectsTooDeepExpressions) {
    // Nest on the RIGHT side so every level needs one more live register;
    // nine levels exceed the 8-register evaluation stack.
    std::string right = "1";
    for (int i = 0; i < 9; ++i) right = "1 + (" + right + ")";
    EXPECT_THROW(compile_to_asm("out(" + right + ");"), Error);
    // Left-nesting reuses registers and stays shallow: must compile.
    std::string left = "1";
    for (int i = 0; i < 9; ++i) left = "(" + left + " + 1)";
    EXPECT_NO_THROW(compile_to_asm("out(" + left + ");"));
}

// ------------------------------------------------------------ semantics ----

TEST(LangExec, ArithmeticAndPrecedence) {
    EXPECT_EQ(run_lang_single("out(2 + 3 * 4);"), 14u);
    EXPECT_EQ(run_lang_single("out((2 + 3) * 4);"), 20u);
    EXPECT_EQ(run_lang_single("out(1 + 2 << 2);"), 12u);     // shifts bind loosest
    EXPECT_EQ(run_lang_single("out(-5 + 3);"), static_cast<std::uint32_t>(-2));
    EXPECT_EQ(run_lang_single("out(~0);"), 0xFFFFFFFFu);
    EXPECT_EQ(run_lang_single("out(0xF0 ^ 0xFF);"), 0x0Fu);
    EXPECT_EQ(run_lang_single("out(-8 >> 1);"), static_cast<std::uint32_t>(-4));  // arithmetic
    EXPECT_EQ(run_lang_single("out(0x80000000 >>> 31);"), 1u);                    // logical
}

TEST(LangExec, VariablesAndAssignment) {
    EXPECT_EQ(run_lang_single(R"(
        var x = 10;
        var y = x * x;
        x = y - x;
        out(x);
    )"),
              90u);
}

TEST(LangExec, WhileLoopSums) {
    EXPECT_EQ(run_lang_single(R"(
        var i = 0;
        var sum = 0;
        while (i < 10) {
            sum = sum + i;
            i = i + 1;
        }
        out(sum);
    )"),
              45u);
}

TEST(LangExec, IfElseBranches) {
    const char* tmpl = R"(
        var x = %d;
        if (x >= 5) {
            out(100);
        } else {
            out(200);
        }
    )";
    char buf[256];
    std::snprintf(buf, sizeof buf, tmpl, 7);
    EXPECT_EQ(run_lang_single(buf), 100u);
    std::snprintf(buf, sizeof buf, tmpl, 3);
    EXPECT_EQ(run_lang_single(buf), 200u);
}

TEST(LangExec, SignedComparisons) {
    EXPECT_EQ(run_lang_single("var x = -1; if (x < 1) { out(1); } else { out(0); }"), 1u);
    EXPECT_EQ(run_lang_single("var x = -1; if (x != 0xFFFFFFFF) { out(1); } else { out(2); }"),
              2u);  // same bit pattern
}

TEST(LangExec, BreakLeavesInnermostLoop) {
    EXPECT_EQ(run_lang_single(R"(
        var i = 0;
        var sum = 0;
        while (i < 100) {
            if (i == 5) { break; }
            sum = sum + i;
            i = i + 1;
        }
        out(sum);
    )"),
              10u);  // 0+1+2+3+4
}

TEST(LangExec, ContinueSkipsRestOfBody) {
    EXPECT_EQ(run_lang_single(R"(
        var i = 0;
        var sum = 0;
        while (i < 10) {
            i = i + 1;
            if (i & 1 == 1) { continue; }   // skip odd i
            sum = sum + i;
        }
        out(sum);
    )"),
              2u + 4u + 6u + 8u + 10u);
}

TEST(LangExec, BreakTargetsInnermostOfNestedLoops) {
    EXPECT_EQ(run_lang_single(R"(
        var i = 0;
        var count = 0;
        while (i < 3) {
            var j = 0;
            j = 0;
            while (j < 100) {
                if (j == 2) { break; }
                count = count + 1;
                j = j + 1;
            }
            i = i + 1;
        }
        out(count);
    )"),
              6u);  // 3 outer iterations x 2 inner before break
}

TEST(LangSemantics, BreakOutsideLoopRejected) {
    EXPECT_THROW(compile_to_asm("break;"), Error);
    EXPECT_THROW(compile_to_asm("if (1 == 1) { continue; }"), Error);
}

TEST(LangExec, ArraysReadWrite) {
    EXPECT_EQ(run_lang_single(R"(
        array a[8];
        var i = 0;
        while (i < 8) {
            a[i] = i * i;
            i = i + 1;
        }
        out(a[0] + a[3] + a[7]);
    )"),
              0u + 9u + 49u);
}

TEST(LangExec, RandArrayMatchesAsmGenerator) {
    const auto words = asm_random_words(4, 99);
    const auto outputs = run_lang(R"(
        array a[4] = rand(99);
        out(a[0]);
        out(a[2]);
    )");
    ASSERT_EQ(outputs.size(), 2u);
    EXPECT_EQ(outputs[0], words[0]);
    EXPECT_EQ(outputs[1], words[2]);
}

TEST(LangExec, DotProductMatchesReference) {
    const auto a = asm_random_words(64, 7);
    const auto b = asm_random_words(64, 8);
    std::uint32_t expected = 0;
    for (std::size_t i = 0; i < 64; ++i) expected += a[i] * b[i];
    EXPECT_EQ(run_lang_single(R"(
        array a[64] = rand(7);
        array b[64] = rand(8);
        var i = 0;
        var acc = 0;
        while (i < 64) {
            acc = acc + a[i] * b[i];
            i = i + 1;
        }
        out(acc);
    )"),
              expected);
}

TEST(LangExec, NestedLoopsMatmul4x4) {
    const auto a = asm_random_words(16, 31);
    const auto b = asm_random_words(16, 32);
    std::uint32_t expected = 0;
    for (std::size_t i = 0; i < 4; ++i) {
        for (std::size_t j = 0; j < 4; ++j) {
            std::uint32_t acc = 0;
            for (std::size_t k = 0; k < 4; ++k) acc += a[i * 4 + k] * b[k * 4 + j];
            expected += acc;
        }
    }
    EXPECT_EQ(run_lang_single(R"(
        array a[16] = rand(31);
        array b[16] = rand(32);
        array c[16];
        var i = 0;
        while (i < 4) {
            var j = 0;
            j = 0;
            while (j < 4) {
                var k = 0;
                var acc = 0;
                k = 0;
                acc = 0;
                while (k < 4) {
                    acc = acc + a[i * 4 + k] * b[k * 4 + j];
                    k = k + 1;
                }
                c[i * 4 + j] = acc;
                j = j + 1;
            }
            i = i + 1;
        }
        var cks = 0;
        var n = 0;
        while (n < 16) {
            cks = cks + c[n];
            n = n + 1;
        }
        out(cks);
    )"),
              expected);
}

TEST(LangExec, SmoothArrayInitializer) {
    const auto words = asm_smooth_words(8, 5, 100);
    EXPECT_EQ(run_lang_single("array s[8] = smooth(5, 100); out(s[7]);"), words[7]);
}

TEST(LangExec, CompiledProgramsProduceTraces) {
    const auto program = compile(R"(
        array data[256] = smooth(11, 5000);
        var i = 0;
        var sum = 0;
        while (i < 256) {
            sum = sum + data[i];
            i = i + 1;
        }
        out(sum);
    )");
    const RunResult run = Cpu(CpuConfig{}).run(program);
    EXPECT_FALSE(run.data_trace.empty());
    // Locals live on the stack: writes must appear in the trace.
    EXPECT_GT(run.data_trace.summary().writes, 256u);
}

}  // namespace
}  // namespace memopt
