// memopt_lint self-tests: tokenizer behaviour, per-rule fixtures with
// expected-diagnostics golden files, annotation semantics, the project
// rules end to end, and the memopt.lint.v1 JSON and SARIF reports.
//
// The fixture sources live in tests/lint_fixtures/ (excluded from the real
// tree scan); each bad fixture has a `<name>.expected` golden holding the
// exact `file:line: rule: message` diagnostics the linter must emit for it.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "support/assert.hpp"
#include "support/json.hpp"
#include "tools/lint/graph.hpp"
#include "tools/lint/index.hpp"
#include "tools/lint/lint.hpp"
#include "tools/lint/rules.hpp"
#include "tools/lint/tokenizer.hpp"

#ifndef MEMOPT_LINT_FIXTURES_DIR
#error "MEMOPT_LINT_FIXTURES_DIR must point at tests/lint_fixtures"
#endif
#ifndef MEMOPT_LINT_TREE_ROOT
#error "MEMOPT_LINT_TREE_ROOT must point at the repository root"
#endif

namespace memopt::lint {
namespace {

std::vector<std::string> lint_fixture(const std::string& file) {
    LintOptions options;
    options.root = MEMOPT_LINT_FIXTURES_DIR;
    options.paths = {file};
    const LintReport report = run_lint(options);
    std::vector<std::string> rendered;
    for (const Finding& f : report.findings) rendered.push_back(f.render());
    return rendered;
}

std::vector<std::string> read_lines(const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty()) lines.push_back(line);
    }
    return lines;
}

/// Findings for an in-memory snippet linted as `path` in isolation.
std::vector<Finding> check_snippet(const std::string& path, const std::string& code) {
    const SourceFile sf = tokenize(path, code);
    std::vector<Finding> findings;
    check_file(sf, collect_unordered_members(sf), findings);
    return findings;
}

// ---------------------------------------------------------------------------
// Fixture goldens

class LintFixture : public ::testing::TestWithParam<const char*> {};

TEST_P(LintFixture, BadFixtureMatchesGolden) {
    const std::string name = GetParam();
    const std::vector<std::string> expected =
        read_lines(std::string(MEMOPT_LINT_FIXTURES_DIR) + "/" + name + ".expected");
    ASSERT_FALSE(expected.empty());
    const std::string ext = name[0] == 'h' ? ".hpp" : ".cpp";
    EXPECT_EQ(lint_fixture(name + ext), expected);
}

INSTANTIATE_TEST_SUITE_P(AllRules, LintFixture,
                         ::testing::Values("d1_bad", "d2_bad", "d3_bad", "d4_bad", "d5_bad",
                                           "r1_bad", "a1_bad", "h1_bad", "tok_edge_bad"));

class LintGoodFixture : public ::testing::TestWithParam<const char*> {};

TEST_P(LintGoodFixture, GoodFixtureIsClean) {
    EXPECT_EQ(lint_fixture(GetParam()), std::vector<std::string>{});
}

INSTANTIATE_TEST_SUITE_P(AllRules, LintGoodFixture,
                         ::testing::Values("d1_good.cpp", "d2_good.cpp", "d3_good.cpp",
                                           "d5_good.cpp", "r1_good.cpp", "a1_good.cpp",
                                           "h1_good.hpp", "h1_guard_good.hpp",
                                           "tok_edge_good.cpp"));

// ---------------------------------------------------------------------------
// Tokenizer

TEST(LintTokenizer, SkipsCommentsAndStringContents) {
    const SourceFile sf = tokenize("t.cpp",
                                   "int x = 1; // assert(rand())\n"
                                   "const char* s = \"assert(rand())\";\n"
                                   "/* assert( */ int y;\n");
    for (const Token& t : sf.tokens) {
        EXPECT_NE(t.text, "assert");
        EXPECT_NE(t.text, "rand");
    }
}

TEST(LintTokenizer, TracksLines) {
    const SourceFile sf = tokenize("t.cpp", "int a;\n\nint b;\n");
    ASSERT_GE(sf.tokens.size(), 6u);
    EXPECT_EQ(sf.tokens[0].line, 1);  // int
    EXPECT_EQ(sf.tokens[3].line, 3);  // int (second)
    EXPECT_EQ(sf.last_line, 4);
}

TEST(LintTokenizer, RawStringsAreOpaque) {
    const SourceFile sf = tokenize("t.cpp", "auto s = R\"(assert(rand()))\"; int z;\n");
    bool saw_z = false;
    for (const Token& t : sf.tokens) {
        EXPECT_NE(t.text, "assert");
        saw_z = saw_z || t.text == "z";
    }
    EXPECT_TRUE(saw_z);
}

TEST(LintTokenizer, DirectivesAreWholeLines) {
    const SourceFile sf =
        tokenize("t.hpp", "#pragma once\n#define ADD(a, b) \\\n    ((a) + (b))\nint x;\n");
    ASSERT_GE(sf.tokens.size(), 2u);
    EXPECT_EQ(sf.tokens[0].kind, TokKind::PPDirective);
    EXPECT_EQ(sf.tokens[0].text, "#pragma once");
    EXPECT_EQ(sf.tokens[1].kind, TokKind::PPDirective);
    EXPECT_EQ(sf.tokens[1].line, 2);  // continuation folded into one token
    EXPECT_EQ(sf.tokens[2].text, "int");
    EXPECT_EQ(sf.tokens[2].line, 4);
}

TEST(LintTokenizer, AnnotationsCoverOwnLineAndNextCodeLine) {
    const SourceFile sf = tokenize("t.cpp",
                                   "// memopt-lint: order-independent -- multi-line\n"
                                   "// rationale continues without the tag\n"
                                   "int b;\n"
                                   "int a;  // memopt-lint: D1 -- trailing rationale\n");
    EXPECT_TRUE(sf.annotated(1, "order-independent"));
    EXPECT_TRUE(sf.annotated(2, "order-independent"));  // line below the tag
    EXPECT_TRUE(sf.annotated(3, "order-independent"));  // first code line after
    EXPECT_FALSE(sf.annotated(3, "D1"));
    EXPECT_TRUE(sf.annotated(4, "D1"));  // trailing annotation, own line
    // The `--` separator keeps the rationale out of the annotation words.
    EXPECT_FALSE(sf.annotated(4, "trailing"));
}

// ---------------------------------------------------------------------------
// Rules on in-memory snippets

TEST(LintRules, D1CrossFileMemberRecognition) {
    // Member declared in a header, iterated in a .cpp: the cpp alone has no
    // unordered declaration, so the cross-file member set must carry it.
    const SourceFile hpp = tokenize(
        "m.hpp", "#pragma once\n#include <unordered_map>\n"
                 "struct A { std::unordered_map<int, int> pairs_; };\n");
    const std::set<std::string> members = collect_unordered_members(hpp);
    EXPECT_EQ(members.count("pairs_"), 1u);

    const std::string cpp = "void A::walk() { for (const auto& [k, v] : pairs_) use(k, v); }\n";
    std::vector<Finding> findings;
    check_file(tokenize("m.cpp", cpp), members, findings);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "D1");

    findings.clear();
    check_file(tokenize("m.cpp", cpp), {}, findings);  // without the union: missed
    EXPECT_TRUE(findings.empty());
}

TEST(LintRules, D1AnnotationByRuleIdAlsoSuppresses) {
    const auto findings = check_snippet(
        "t.cpp",
        "#include <unordered_map>\n"
        "int f() {\n"
        "    std::unordered_map<int, int> m;\n"
        "    int s = 0;\n"
        "    for (const auto& [k, v] : m) s += k + v;  // memopt-lint: D1 -- exact sums\n"
        "    return s;\n"
        "}\n");
    EXPECT_TRUE(findings.empty());
}

TEST(LintRules, D2ExemptInsideSupportRng) {
    const std::string code = "unsigned s() { return static_cast<unsigned>(time(nullptr)); }\n";
    EXPECT_TRUE(check_snippet("src/support/rng_host_entropy.cpp", code).empty());
    EXPECT_EQ(check_snippet("src/sched/scheduler.cpp", code).size(), 1u);
}

TEST(LintRules, D3ShardLocalPartialIsClean) {
    const auto findings = check_snippet(
        "t.cpp",
        "void parallel_for(unsigned long, int);\n"
        "double f(const double* v) {\n"
        "    double out = 0.0;\n"
        "    parallel_for(8, [&](unsigned long i) { double p = 0.0; p += v[i]; use(p); });\n"
        "    return out;\n"
        "}\n");
    EXPECT_TRUE(findings.empty());
}

TEST(LintRules, R1ExemptInsideDurableLayerAndTests) {
    const std::string code = "void f(const char* p) { std::ofstream os(p); }\n";
    EXPECT_TRUE(check_snippet("src/support/durable/atomic_file.cpp", code).empty());
    EXPECT_TRUE(check_snippet("tests/test_scratch.cpp", code).empty());
    const auto findings = check_snippet("src/trace/io.cpp", code);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "R1");
}

TEST(LintRules, R1IgnoresMemberCallsAndReads) {
    const auto findings = check_snippet("src/x.cpp",
                                        "void f(Io& io, const char* p) {\n"
                                        "    io.fopen(p);\n"
                                        "    std::ifstream in(p);\n"
                                        "}\n");
    EXPECT_TRUE(findings.empty());
}

TEST(LintRules, A1IgnoresMemberAndDistinctIdentifiers) {
    const auto findings = check_snippet("t.cpp",
                                        "void f(Checker& c) {\n"
                                        "    c.assert(true);\n"
                                        "    static_assert(1 + 1 == 2);\n"
                                        "    my_assert(true);\n"
                                        "}\n");
    EXPECT_TRUE(findings.empty());
}

TEST(LintRules, H1OnlyAppliesToHeaders) {
    const std::string code = "using namespace std;\nint x;\n";
    EXPECT_TRUE(check_snippet("t.cpp", code).empty());
    const auto findings = check_snippet("t.hpp", code);
    ASSERT_EQ(findings.size(), 2u);  // missing guard + using namespace
    EXPECT_EQ(findings[0].rule, "H1");
    EXPECT_EQ(findings[1].rule, "H1");
}

// ---------------------------------------------------------------------------
// Driver & JSON report

TEST(LintDriver, ThrowsOnMissingPathAndBadRoot) {
    LintOptions missing;
    missing.root = MEMOPT_LINT_FIXTURES_DIR;
    missing.paths = {"no_such_file.cpp"};
    EXPECT_THROW(run_lint(missing), Error);

    LintOptions bad_root;
    bad_root.root = std::string(MEMOPT_LINT_FIXTURES_DIR) + "/d1_bad.cpp";
    EXPECT_THROW(run_lint(bad_root), Error);
}

TEST(LintDriver, ScanIsDeterministic) {
    LintOptions options;
    options.root = MEMOPT_LINT_FIXTURES_DIR;
    options.paths = {"."};
    const LintReport a = run_lint(options);
    const LintReport b = run_lint(options);
    ASSERT_EQ(a.findings.size(), b.findings.size());
    for (std::size_t i = 0; i < a.findings.size(); ++i) {
        EXPECT_EQ(a.findings[i].render(), b.findings[i].render());
    }
    // All bad fixtures, none suppressed: the per-file goldens (d1 2, d2 4,
    // d3 1, d4 3, d5 3, r1 2, a1 1, h1 2, tok_edge 1) plus the cross-file
    // pairs only the full scan can see (i1 1, l2 1).
    EXPECT_EQ(a.findings.size(), 21u);
}

TEST(LintJson, ReportIsCompleteAndCarriesSchema) {
    LintOptions options;
    options.root = MEMOPT_LINT_FIXTURES_DIR;
    options.paths = {"d4_bad.cpp"};
    const LintReport report = run_lint(options);

    std::ostringstream os;
    JsonWriter w(os);
    write_json(w, options, report);
    EXPECT_TRUE(w.complete());
    const std::string doc = os.str();
    EXPECT_NE(doc.find("\"schema\": \"memopt.lint.v1\""), std::string::npos);
    EXPECT_NE(doc.find("\"rule\": \"D4\""), std::string::npos);
    EXPECT_NE(doc.find("\"files_scanned\": 1"), std::string::npos);
    // The frozen schema keeps the keys of the removed index cache and
    // suppression baseline, at their constant values.
    EXPECT_NE(doc.find("\"files_from_cache\": 0"), std::string::npos);
    EXPECT_NE(doc.find("\"baselined\": false"), std::string::npos);
    EXPECT_NE(doc.find("\"stale_baseline\": []"), std::string::npos);
    // One entry per rule in the catalogue.
    for (const RuleInfo& r : rule_catalogue()) {
        EXPECT_NE(doc.find("\"id\": \"" + std::string(r.id) + "\""), std::string::npos);
    }
}

// ---------------------------------------------------------------------------
// Tokenizer edge cases (the tok_edge_* fixtures cover the same ground
// end-to-end; these pin the token-level behaviour)

TEST(LintTokenizer, SkipsUtf8Bom) {
    const SourceFile sf = tokenize("t.cpp", "\xEF\xBB\xBFint x;\n");
    ASSERT_GE(sf.tokens.size(), 2u);
    EXPECT_EQ(sf.tokens[0].text, "int");
    EXPECT_EQ(sf.tokens[0].line, 1);
}

TEST(LintTokenizer, BackslashContinuationInsideStringStaysOpaque) {
    const SourceFile sf = tokenize("t.cpp",
                                   "const char* s = \"rand() and \\\nsrand(1)\";\n"
                                   "int after;\n");
    bool saw_after = false;
    for (const Token& t : sf.tokens) {
        EXPECT_NE(t.text, "rand");
        EXPECT_NE(t.text, "srand");
        if (t.text == "after") {
            saw_after = true;
            EXPECT_EQ(t.line, 3);  // the continuation consumed a physical line
        }
    }
    EXPECT_TRUE(saw_after);
}

TEST(LintTokenizer, RawStringCustomDelimiterSwallowsQuoteParen) {
    // `)"` inside the literal must not terminate it: only `)x"` does.
    const SourceFile sf = tokenize("t.cpp", "auto s = R\"x(a )\" b rand())x\"; int z;\n");
    bool saw_z = false;
    for (const Token& t : sf.tokens) {
        EXPECT_NE(t.text, "rand");
        saw_z = saw_z || t.text == "z";
    }
    EXPECT_TRUE(saw_z);
}

// ---------------------------------------------------------------------------
// D5 on in-memory snippets

TEST(LintRules, D5FlagsCapturedCompoundAndIncrement) {
    const auto findings = check_snippet(
        "t.cpp",
        "void parallel_for(unsigned long, int);\n"
        "int f(const int* v) {\n"
        "    int hits = 0;\n"
        "    parallel_for(8, [&](unsigned long i) { if (v[i]) hits += 1; });\n"
        "    return hits;\n"
        "}\n");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "D5");
    EXPECT_EQ(findings[0].line, 4);
}

TEST(LintRules, D5ShardLocalAndGuardedAreClean) {
    EXPECT_TRUE(check_snippet("t.cpp",
                              "void parallel_for(unsigned long, int);\n"
                              "void f() {\n"
                              "    parallel_for(8, [](unsigned long i) {\n"
                              "        unsigned long local = 0;\n"
                              "        local += i;\n"
                              "    });\n"
                              "}\n")
                    .empty());
    EXPECT_TRUE(check_snippet("t.cpp",
                              "void parallel_for(unsigned long, int);\n"
                              "void f(long& shared) {\n"
                              "    long shared_copy = shared;\n"
                              "    parallel_for(8, [&](unsigned long i) {\n"
                              "        // memopt-lint: guarded -- g_mutex held by caller\n"
                              "        shared_copy += static_cast<long>(i);\n"
                              "    });\n"
                              "}\n")
                    .empty());
}

TEST(LintRules, D5LeavesFloatingPointCompoundToD3) {
    const auto findings = check_snippet(
        "t.cpp",
        "void parallel_for(unsigned long, int);\n"
        "double f(const double* v) {\n"
        "    double total = 0.0;\n"
        "    parallel_for(8, [&](unsigned long i) { total += v[i]; });\n"
        "    return total;\n"
        "}\n");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "D3");  // not double-reported as D5
}

// ---------------------------------------------------------------------------
// Semantic index (pass 1)

TEST(LintIndex, BuildFileIndexExtractsFacts) {
    const std::string code =
        "#pragma once\n"
        "#include \"support/json.hpp\"\n"
        "#include <unordered_map>\n"
        "#include \"cache/bank.hpp\"  // memopt-lint: keep-include -- odr anchor\n"
        "struct Foo {\n"
        "    std::unordered_map<int, int> stats_;\n"
        "};\n"
        "inline void dump(memopt::JsonWriter& w) {\n"
        "    w.member(\"alpha\", 1);\n"
        "    w.key(\"beta\");\n"
        "}\n";
    const FileIndex index = build_file_index(tokenize("src/cache/foo.hpp", code));

    EXPECT_EQ(index.path, "src/cache/foo.hpp");
    EXPECT_TRUE(index.is_header);

    ASSERT_EQ(index.includes.size(), 3u);
    EXPECT_EQ(index.includes[0].target, "support/json.hpp");
    EXPECT_FALSE(index.includes[0].system);
    EXPECT_FALSE(index.includes[0].keep_annotated);
    EXPECT_EQ(index.includes[1].target, "unordered_map");
    EXPECT_TRUE(index.includes[1].system);
    EXPECT_EQ(index.includes[2].target, "cache/bank.hpp");
    EXPECT_TRUE(index.includes[2].keep_annotated);

    const auto& declared = index.declared_symbols;
    EXPECT_NE(std::find(declared.begin(), declared.end(), "Foo"), declared.end());
    EXPECT_NE(std::find(declared.begin(), declared.end(), "dump"), declared.end());

    ASSERT_EQ(index.unordered_members.size(), 1u);
    EXPECT_EQ(index.unordered_members[0], "stats_");

    ASSERT_EQ(index.json_keys.size(), 2u);
    EXPECT_EQ(index.json_keys[0].key, "alpha");
    EXPECT_EQ(index.json_keys[0].line, 9);
    EXPECT_EQ(index.json_keys[1].key, "beta");
    EXPECT_EQ(index.json_keys[1].line, 10);
}

// ---------------------------------------------------------------------------
// Include graph, layering, cycles (pass 2 on synthetic indexes)

FileIndex synthetic_index(const std::string& path,
                          const std::vector<std::string>& include_targets) {
    FileIndex index;
    index.path = path;
    index.is_header = path.ends_with(".hpp");
    for (const std::string& target : include_targets) {
        IncludeSite site;
        site.target = target;
        site.line = 1;
        index.includes.push_back(site);
    }
    return index;
}

TEST(LintGraph, ResolvesProjectRootAndRelativeIncludes) {
    std::map<std::string, FileIndex> indexes;
    indexes["src/cache/bank.cpp"] =
        synthetic_index("src/cache/bank.cpp", {"cache/bank.hpp", "util.hpp", "no/such.hpp"});
    indexes["src/cache/bank.hpp"] = synthetic_index("src/cache/bank.hpp", {});
    indexes["src/cache/util.hpp"] = synthetic_index("src/cache/util.hpp", {});

    const IncludeGraph graph = build_include_graph(indexes);
    const auto& resolved = graph.resolved.at("src/cache/bank.cpp");
    ASSERT_EQ(resolved.size(), 2u);  // no/such.hpp does not resolve
    EXPECT_EQ(resolved.at(0), "src/cache/bank.hpp");  // via the src/ include root
    EXPECT_EQ(resolved.at(1), "src/cache/util.hpp");  // via dirname(F)/T
}

TEST(LintGraph, FindsCyclesAndSelfLoops) {
    std::map<std::string, FileIndex> indexes;
    indexes["a.hpp"] = synthetic_index("a.hpp", {"b.hpp"});
    indexes["b.hpp"] = synthetic_index("b.hpp", {"c.hpp"});
    indexes["c.hpp"] = synthetic_index("c.hpp", {"a.hpp"});
    indexes["d.hpp"] = synthetic_index("d.hpp", {"d.hpp"});
    indexes["e.hpp"] = synthetic_index("e.hpp", {"a.hpp"});  // feeds, not in cycle

    const std::vector<std::vector<std::string>> cycles =
        include_cycles(build_include_graph(indexes));
    ASSERT_EQ(cycles.size(), 2u);
    EXPECT_EQ(cycles[0], (std::vector<std::string>{"a.hpp", "b.hpp", "c.hpp"}));
    EXPECT_EQ(cycles[1], (std::vector<std::string>{"d.hpp"}));
}

TEST(LintGraph, ModuleOfUsesSecondComponentUnderSrc) {
    EXPECT_EQ(module_of("src/cache/bank.hpp"), "cache");
    EXPECT_EQ(module_of("src/support/durable/atomic_file.cpp"), "support");
    EXPECT_EQ(module_of("tests/test_lint.cpp"), "tests");
    EXPECT_EQ(module_of("tools/memopt_lint.cpp"), "tools");
}

TEST(LintGraph, LayeringFlagsBackAndSameRankEdges) {
    std::map<std::string, FileIndex> indexes;
    indexes["src/support/low.hpp"] = synthetic_index("src/support/low.hpp", {"cache/high.hpp"});
    indexes["src/cache/high.hpp"] =
        synthetic_index("src/cache/high.hpp", {"support/low.hpp", "trace/peer.hpp"});
    indexes["src/trace/peer.hpp"] = synthetic_index("src/trace/peer.hpp", {});
    const IncludeGraph graph = build_include_graph(indexes);
    LayeringConfig config;
    config.module_layers = {{"support", 0}, {"cache", 1}, {"trace", 1}};

    std::vector<Finding> findings;
    resolve_layering(indexes, graph, config, findings);
    // support -> cache is a back-edge and cache -> trace a same-rank edge;
    // cache -> support (downward) is the allowed direction.
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_EQ(findings[0].rule, "L1");
    EXPECT_EQ(findings[0].file, "src/cache/high.hpp");
    EXPECT_NE(findings[0].message.find("'trace'"), std::string::npos);
    EXPECT_EQ(findings[1].rule, "L1");
    EXPECT_EQ(findings[1].file, "src/support/low.hpp");
    EXPECT_NE(findings[1].message.find("'cache'"), std::string::npos);
}

// L1 skips the files of a module without a rank, so a new src/ directory
// must get one in project_layering() or it escapes the DAG check.
TEST(LintGraph, EveryTreeModuleHasARank) {
    namespace fs = std::filesystem;
    const fs::path root = MEMOPT_LINT_TREE_ROOT;
    std::vector<std::string> modules = {"bench", "tests", "examples", "tools"};
    for (const auto& entry : fs::directory_iterator(root / "src")) {
        if (entry.is_directory()) modules.push_back(entry.path().filename().string());
    }
    ASSERT_GT(modules.size(), 4u);
    const LayeringConfig& layering = project_layering();
    for (const std::string& m : modules) {
        EXPECT_EQ(layering.module_layers.count(m), 1u) << "module '" << m << "' has no rank";
    }
}

// The layering catches only unannotated upward and same-rank includes;
// collapsing the tree's include graph to modules checks the acyclic
// outcome directly, so a cycle hidden behind a `layering` annotation
// fails here too.
TEST(LintGraph, TreeModuleGraphIsAcyclic) {
    namespace fs = std::filesystem;
    const fs::path root = MEMOPT_LINT_TREE_ROOT;
    std::map<std::string, FileIndex> indexes;
    for (const auto& entry : fs::recursive_directory_iterator(root / "src")) {
        if (!entry.is_regular_file()) continue;
        const std::string rel = fs::relative(entry.path(), root).generic_string();
        if (!rel.ends_with(".hpp") && !rel.ends_with(".cpp")) continue;
        std::ifstream in(entry.path(), std::ios::binary);
        const std::string text((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
        indexes.emplace(rel, build_file_index(tokenize(rel, text)));
    }
    ASSERT_GT(indexes.size(), 100u);

    std::map<std::string, std::set<std::string>> module_edges;
    for (const auto& [file, targets] : build_include_graph(indexes).edges) {
        const std::string from = module_of(file);
        for (const std::string& target : targets) {
            if (module_of(target) != from) module_edges[from].insert(module_of(target));
        }
    }
    IncludeGraph modules;
    for (const auto& [from, to] : module_edges) modules.edges[from].assign(to.begin(), to.end());
    EXPECT_EQ(include_cycles(modules), std::vector<std::vector<std::string>>{});
}

// ---------------------------------------------------------------------------
// Schema goldens (S1)

constexpr const char* kGoldenDoc =
    "{\n"
    "  \"schema\": \"memopt.schema-freeze.v1\",\n"
    "  \"id\": \"memopt.test.v1\",\n"
    "  \"notes\": \"ignored free-text field\",\n"
    "  \"sources\": [\"src/core/emit.cpp\"],\n"
    "  \"keys\": [\"alpha\", \"beta\"]\n"
    "}\n";

TEST(LintSchema, ParsesGoldenDocument) {
    const SchemaGolden golden = parse_schema_golden(kGoldenDoc, "docs/schemas/test.json");
    EXPECT_EQ(golden.id, "memopt.test.v1");
    EXPECT_EQ(golden.sources, std::vector<std::string>{"src/core/emit.cpp"});
    EXPECT_EQ(golden.keys, (std::set<std::string>{"alpha", "beta"}));
}

TEST(LintSchema, RejectsMalformedGoldens) {
    EXPECT_THROW(parse_schema_golden("{]", "t"), Error);
    EXPECT_THROW(parse_schema_golden("{\"id\": \"x\"}", "t"), Error);  // wrong schema tag
    EXPECT_THROW(parse_json("{\"a\": 1} trailing", "t"), Error);
}

TEST(LintSchema, FlagsDriftInBothDirections) {
    const SchemaGolden golden = parse_schema_golden(kGoldenDoc, "docs/schemas/test.json");

    FileIndex emitter;
    emitter.path = "src/core/emit.cpp";
    emitter.json_keys = {{"alpha", 3}, {"gamma", 9}};  // gamma extra, beta gone
    std::map<std::string, FileIndex> indexes;
    indexes[emitter.path] = emitter;

    std::vector<Finding> findings;
    resolve_schemas(indexes, {golden}, findings);
    ASSERT_EQ(findings.size(), 2u);
    for (const Finding& f : findings) EXPECT_EQ(f.rule, "S1");
    // The extra key anchors on its emission line; the vanished key on the
    // golden document.
    EXPECT_EQ(findings[0].file, "src/core/emit.cpp");
    EXPECT_EQ(findings[0].line, 9);
    EXPECT_NE(findings[0].message.find("gamma"), std::string::npos);
    EXPECT_EQ(findings[1].file, "docs/schemas/test.json");
    EXPECT_NE(findings[1].message.find("beta"), std::string::npos);

    // In-sync emitter: clean.
    indexes[emitter.path].json_keys = {{"alpha", 3}, {"beta", 4}};
    findings.clear();
    resolve_schemas(indexes, {golden}, findings);
    EXPECT_TRUE(findings.empty());

    // A frozen source that was deleted is drift too.
    indexes.clear();
    findings.clear();
    resolve_schemas(indexes, {golden}, findings);
    ASSERT_GE(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "S1");
}

// ---------------------------------------------------------------------------
// Project rules end-to-end on the fixture tree

TEST(LintDriver, UnusedIncludeAcrossFiles) {
    LintOptions options;
    options.root = MEMOPT_LINT_FIXTURES_DIR;
    options.paths = {"i1_bad.cpp", "i1_used.hpp", "i1_util.hpp"};
    const LintReport report = run_lint(options);
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].rule, "I1");
    EXPECT_EQ(report.findings[0].file, "i1_bad.cpp");
    EXPECT_EQ(report.findings[0].line, 4);
    EXPECT_NE(report.findings[0].message.find("i1_util.hpp"), std::string::npos);
}

TEST(LintDriver, IncludeCycleAnchorsOnSmallestMember) {
    LintOptions options;
    options.root = MEMOPT_LINT_FIXTURES_DIR;
    options.paths = {"l2_a.hpp", "l2_b.hpp"};
    const LintReport report = run_lint(options);
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].rule, "L2");
    EXPECT_EQ(report.findings[0].file, "l2_a.hpp");
}

// S1 through the whole driver: a golden that misses one emitted key and
// lists one key no source emits fails the scan with exactly those two
// findings, and the memopt_lint binary exits 1 on the same tree.
TEST(LintDriver, SchemaDriftFailsTheScan) {
    namespace fs = std::filesystem;
    const fs::path root = fs::path(::testing::TempDir()) / "memopt_lint_schema_drift";
    fs::remove_all(root);
    fs::create_directories(root / "schemas");
    std::ofstream(root / "emit.cpp") << "void emit(Writer& w) {\n"
                                        "    w.member(\"alpha\", 1);\n"
                                        "    w.member(\"gamma\", 2);\n"
                                        "}\n";
    std::ofstream(root / "schemas" / "test.v1.json")
        << "{\"schema\": \"memopt.schema-freeze.v1\", \"id\": \"memopt.test.v1\",\n"
           " \"sources\": [\"emit.cpp\"], \"keys\": [\"alpha\", \"beta\"]}\n";

    LintOptions options;
    options.root = root.string();
    options.paths = {"."};
    options.schemas_dir = "schemas";
    const LintReport report = run_lint(options);
    ASSERT_EQ(report.findings.size(), 2u);
    EXPECT_EQ(report.findings[0].rule, "S1");
    EXPECT_EQ(report.findings[0].file, "emit.cpp");
    EXPECT_EQ(report.findings[0].line, 3);
    EXPECT_NE(report.findings[0].message.find("'gamma'"), std::string::npos);
    EXPECT_EQ(report.findings[1].rule, "S1");
    EXPECT_EQ(report.findings[1].file, "schemas/test.v1.json");
    EXPECT_NE(report.findings[1].message.find("'beta'"), std::string::npos);

#ifdef MEMOPT_LINT_BIN
    const std::string command = std::string(MEMOPT_LINT_BIN) + " --root '" + root.string() +
                                "' --schemas schemas . >/dev/null 2>&1";
    const int status = std::system(command.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << command;
    EXPECT_EQ(WEXITSTATUS(status), 1) << command;
#endif
    fs::remove_all(root);
}

TEST(LintDriver, FindingsAreJobsInvariant) {
    LintOptions options;
    options.root = MEMOPT_LINT_FIXTURES_DIR;
    options.paths = {"."};

    options.jobs = 1;
    const LintReport serial = run_lint(options);
    options.jobs = 8;
    const LintReport parallel = run_lint(options);

    EXPECT_EQ(serial.files_scanned, parallel.files_scanned);
    ASSERT_EQ(serial.findings.size(), parallel.findings.size());
    for (std::size_t i = 0; i < serial.findings.size(); ++i) {
        EXPECT_EQ(serial.findings[i].render(), parallel.findings[i].render());
    }

    std::ostringstream doc_serial, doc_parallel;
    {
        JsonWriter w(doc_serial);
        write_json(w, options, serial);
    }
    {
        JsonWriter w(doc_parallel);
        write_json(w, options, parallel);
    }
    EXPECT_EQ(doc_serial.str(), doc_parallel.str());  // bit-identical documents
}

// ---------------------------------------------------------------------------
// SARIF output

TEST(LintSarif, DocumentIsWellFormed) {
    LintOptions options;
    options.root = MEMOPT_LINT_FIXTURES_DIR;
    options.paths = {"d2_bad.cpp"};
    const LintReport report = run_lint(options);
    ASSERT_EQ(report.findings.size(), 4u);

    std::ostringstream os;
    JsonWriter w(os);
    write_sarif(w, options, report);
    EXPECT_TRUE(w.complete());

    const JsonValue doc = parse_json(os.str(), "sarif");
    EXPECT_EQ(doc.find("version")->string, "2.1.0");
    ASSERT_NE(doc.find("$schema"), nullptr);

    const JsonValue& run = doc.find("runs")->items.at(0);
    const JsonValue& driver = *run.find("tool")->find("driver");
    EXPECT_EQ(driver.find("name")->string, "memopt_lint");
    EXPECT_EQ(driver.find("rules")->items.size(), rule_catalogue().size());

    const std::vector<JsonValue>& results = run.find("results")->items;
    ASSERT_EQ(results.size(), report.findings.size());
    for (const JsonValue& result : results) {
        ASSERT_NE(result.find("ruleId"), nullptr);
        const JsonValue& location = result.find("locations")->items.at(0);
        const JsonValue& physical = *location.find("physicalLocation");
        EXPECT_EQ(physical.find("artifactLocation")->find("uri")->string, "d2_bad.cpp");
        EXPECT_GT(physical.find("region")->find("startLine")->number, 0.0);
    }
}

}  // namespace
}  // namespace memopt::lint
