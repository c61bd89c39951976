#include "tools/lint/rules.hpp"

#include <set>
#include <string>

namespace memopt::lint {

namespace {

bool is_ident(const Token& t, std::string_view text) {
    return t.kind == TokKind::Identifier && t.text == text;
}

bool is_punct(const Token& t, std::string_view text) {
    return t.kind == TokKind::Punct && t.text == text;
}

bool any_of_ident(const Token& t, std::initializer_list<std::string_view> names) {
    if (t.kind != TokKind::Identifier) return false;
    for (std::string_view n : names) {
        if (t.text == n) return true;
    }
    return false;
}

/// Index just past a balanced template-argument list starting at `i`
/// (which must point at `<`), or `i` if the list never closes.
std::size_t skip_template_args(const std::vector<Token>& t, std::size_t i) {
    std::size_t depth = 0;
    const std::size_t start = i;
    for (; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Punct) continue;
        if (t[i].text == "<") ++depth;
        else if (t[i].text == ">") {
            if (--depth == 0) return i + 1;
        } else if (t[i].text == ";" || t[i].text == "{") {
            break;  // not actually a template argument list
        }
    }
    return start;
}

/// Index just past a balanced parenthesis group starting at `i` (which must
/// point at `(`), or t.size() if unbalanced.
std::size_t skip_parens(const std::vector<Token>& t, std::size_t i) {
    std::size_t depth = 0;
    for (; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Punct) continue;
        if (t[i].text == "(") ++depth;
        else if (t[i].text == ")" && --depth == 0) return i + 1;
    }
    return t.size();
}

/// The declared-variable name following a type spelling that ends at `i`
/// (skipping cv-qualifiers and declarator punctuation), or npos when the
/// next tokens do not look like a variable declaration.
std::size_t declared_name_index(const std::vector<Token>& t, std::size_t i) {
    while (i < t.size() &&
           (is_punct(t[i], "&") || is_punct(t[i], "*") || is_ident(t[i], "const"))) {
        ++i;
    }
    if (i >= t.size() || t[i].kind != TokKind::Identifier) return std::string::npos;
    // `Type name(` is a function declaration, not a variable.
    if (i + 1 < t.size() && is_punct(t[i + 1], "(")) return std::string::npos;
    return i;
}

constexpr std::string_view kUnorderedContainers[] = {
    "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};

bool is_unordered_container(const Token& t) {
    if (t.kind != TokKind::Identifier) return false;
    for (std::string_view n : kUnorderedContainers) {
        if (t.text == n) return true;
    }
    return false;
}

/// Entry points that hand a lambda to the parallel runtime; D3/D5 police
/// the state those lambdas capture.
bool is_parallel_entry(const Token& t) {
    return any_of_ident(t, {"parallel_for", "parallel_map", "submit", "stream_accumulate"});
}

/// Keywords that can precede an identifier without making it a declaration
/// (`return foo(...)` is a call, not `foo` being declared).
bool is_nondecl_keyword(const std::string& text) {
    static const std::set<std::string> kw = {
        "return", "if",    "else",  "while",  "for",     "switch",    "case",
        "goto",   "new",   "delete", "throw", "sizeof",  "typeid",    "operator",
        "do",     "co_return", "co_yield", "co_await",  "not",       "and",
        "or",     "using", "namespace", "public", "private", "protected"};
    return kw.count(text) != 0;
}

/// True when the identifier at `i` is in declaration position: preceded
/// (after cv/ref/ptr qualifiers) by a type-ish identifier or a closed
/// template-argument list, and not part of a member access or qualified
/// name. Token-level heuristic; over-matching is harmless for its D5 use
/// (a name "declared inside" a lambda is exempted, the safe direction).
bool looks_declared_at(const std::vector<Token>& t, std::size_t i) {
    if (t[i].kind != TokKind::Identifier) return false;
    std::size_t p = i;
    while (p > 0 && (is_punct(t[p - 1], "&") || is_punct(t[p - 1], "*") ||
                     is_ident(t[p - 1], "const"))) {
        --p;
    }
    if (p == 0) return false;
    const Token& prev = t[p - 1];
    if (is_punct(prev, ">")) return true;  // std::vector<int> name
    if (prev.kind != TokKind::Identifier) return false;
    if (is_nondecl_keyword(prev.text)) return false;
    // (`a::b` / `x.y` candidates never reach here: their preceding token is
    // punctuation, rejected above. `ns::Type name` does, and is a decl.)
    return true;
}

struct Emitter {
    const SourceFile& file;
    std::vector<Finding>& findings;

    /// Append a finding unless an annotation (rule id or named allowance)
    /// covers the line.
    void emit(const char* rule, int line, std::string message,
              std::string_view allowance = {}) {
        if (file.annotated(line, rule)) return;
        if (!allowance.empty() && file.annotated(line, allowance)) return;
        findings.push_back(Finding{file.path, line, rule, std::move(message)});
    }
};

// ---------------------------------------------------------------------------
// D1 — unordered-container iteration feeding results

/// Names declared as unordered containers in this file (locals, parameters,
/// members). Member-style names (trailing '_') also feed the cross-file set
/// so that a container member declared in a header is recognized in its .cpp.
void collect_unordered_names(const SourceFile& file, std::set<std::string>& local,
                             std::set<std::string>& members) {
    const auto& t = file.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (!is_unordered_container(t[i])) continue;
        std::size_t j = i + 1;
        if (j < t.size() && is_punct(t[j], "<")) j = skip_template_args(t, j);
        const std::size_t name = declared_name_index(t, j);
        if (name == std::string::npos) continue;
        local.insert(t[name].text);
        if (t[name].text.ends_with("_")) members.insert(t[name].text);
    }
}

std::string d1_message(const std::string& name) {
    return "iteration over unordered container '" + name +
           "' visits elements in hash order; sort before any order-sensitive "
           "consumption or annotate `memopt-lint: order-independent` with a rationale";
}

// ---------------------------------------------------------------------------
// D2 — nondeterministic seed sources

void check_d2(const SourceFile& file, Emitter& out) {
    if (file.path.find("support/rng") != std::string::npos) return;
    const auto& t = file.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Identifier) continue;
        // Member calls (x.time(), obj->rand()) are unrelated APIs.
        if (i > 0 && (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->"))) continue;
        // Any mention of random_device is a violation; the C seed functions
        // only in call position (rand, srand, time are common identifiers).
        const bool called = i + 1 < t.size() && is_punct(t[i + 1], "(");
        if (!(is_ident(t[i], "random_device") ||
              (called && any_of_ident(t[i], {"rand", "srand", "time"}))))
            continue;
        out.emit("D2", t[i].line,
                 "nondeterministic seed source '" + t[i].text +
                     "'; all randomness must flow from an explicit memopt::Rng seed "
                     "(src/support/rng)");
    }
}

// ---------------------------------------------------------------------------
// D3 — floating-point accumulation inside parallel regions

/// Scalar float/double variable names declared in this file, with the token
/// index of each declaration (used to distinguish shard-local partials from
/// captured shared state).
std::set<std::pair<std::string, std::size_t>> collect_fp_scalars(const SourceFile& file) {
    std::set<std::pair<std::string, std::size_t>> decls;
    const auto& t = file.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (!any_of_ident(t[i], {"double", "float"})) continue;
        // `long double` — the name scan below works from the last keyword.
        const std::size_t name = declared_name_index(t, i + 1);
        if (name == std::string::npos) continue;
        decls.insert({t[name].text, name});
    }
    return decls;
}

void check_d3(const SourceFile& file, Emitter& out) {
    const auto& t = file.tokens;
    const auto fp_decls = collect_fp_scalars(file);
    if (fp_decls.empty()) return;

    auto declared_in = [&](const std::string& name, std::size_t lo, std::size_t hi) {
        for (const auto& [n, idx] : fp_decls) {
            if (n == name && idx >= lo && idx < hi) return true;
        }
        return false;
    };
    auto declared_at_all = [&](const std::string& name) {
        for (const auto& [n, idx] : fp_decls) {
            if (n == name) return true;
        }
        return false;
    };

    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (!is_parallel_entry(t[i])) continue;
        if (!is_punct(t[i + 1], "(")) continue;
        const std::size_t begin = i + 1;
        const std::size_t end = skip_parens(t, begin);
        for (std::size_t j = begin; j + 1 < end; ++j) {
            if (t[j].kind != TokKind::Identifier) continue;
            const Token& op = t[j + 1];
            if (!(is_punct(op, "+=") || is_punct(op, "-=") || is_punct(op, "*=") ||
                  is_punct(op, "/=")))
                continue;
            if (!declared_at_all(t[j].text)) continue;
            if (declared_in(t[j].text, begin, j)) continue;  // shard-local partial
            out.emit("D3", t[j].line,
                     "floating-point accumulation into captured '" + t[j].text +
                         "' inside a parallel region makes the summation order "
                         "scheduling-dependent; accumulate into a shard-local partial "
                         "and reduce in shard order",
                     "order-independent");
        }
        i = end > i ? end - 1 : i;
    }
}

// ---------------------------------------------------------------------------
// D4 — atomic floating point

void check_d4(const SourceFile& file, Emitter& out) {
    const auto& t = file.tokens;
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
        if (!is_ident(t[i], "atomic") || !is_punct(t[i + 1], "<")) continue;
        std::size_t j = i + 2;
        while (j < t.size() && (is_ident(t[j], "const") || is_ident(t[j], "volatile") ||
                                is_ident(t[j], "std") || is_ident(t[j], "long") ||
                                is_punct(t[j], "::"))) {
            ++j;
        }
        if (j < t.size() && any_of_ident(t[j], {"float", "double"})) {
            out.emit("D4", t[i].line,
                     "std::atomic<" + t[j].text +
                         "> accumulates in scheduling order by construction; keep "
                         "per-thread partials and reduce deterministically instead");
        }
    }
}

// ---------------------------------------------------------------------------
// D5 — compound mutation of captured state inside parallel regions
// (the type-agnostic generalization of D3: even an exact integer tally is
// a data race when several shards hit it unsynchronized)

/// Leftmost identifier of the postfix chain ending at `j` (walks back over
/// `a.b`, `a->b`, and `a[expr]` links), or npos when the chain does not
/// start at a plain identifier.
std::size_t root_of_lvalue(const std::vector<Token>& t, std::size_t j) {
    std::size_t r = j;
    for (;;) {
        if (t[r].kind == TokKind::Punct && t[r].text == "]") {
            // Skip back over the bracket group to the expression before it.
            std::size_t depth = 0;
            std::size_t k = r;
            for (;; --k) {
                if (is_punct(t[k], "]")) ++depth;
                else if (is_punct(t[k], "[") && --depth == 0) break;
                if (k == 0) return std::string::npos;
            }
            if (k == 0) return std::string::npos;
            r = k - 1;
            continue;
        }
        if (t[r].kind != TokKind::Identifier) return std::string::npos;
        if (r >= 2 && (is_punct(t[r - 1], ".") || is_punct(t[r - 1], "->"))) {
            r -= 2;
            continue;
        }
        // A `::`-qualified root (`Class::static_member`) is outside state
        // this heuristic can attribute; leave it to review.
        if (r >= 1 && is_punct(t[r - 1], "::")) return std::string::npos;
        return r;
    }
}

void check_d5(const SourceFile& file, Emitter& out) {
    const auto& t = file.tokens;
    const auto fp_decls = collect_fp_scalars(file);

    auto is_fp_scalar = [&](const std::string& name) {
        for (const auto& [n, idx] : fp_decls) {
            if (n == name) return true;
        }
        return false;
    };

    // Token indexes at which each identifier is (heuristically) declared,
    // anywhere in the file.
    auto declared_between = [&](const std::string& name, std::size_t lo, std::size_t hi) {
        for (std::size_t k = lo; k < hi; ++k) {
            if (t[k].kind == TokKind::Identifier && t[k].text == name &&
                looks_declared_at(t, k))
                return true;
        }
        return false;
    };

    auto compound_op = [&](const Token& tok) {
        return is_punct(tok, "+=") || is_punct(tok, "-=") || is_punct(tok, "*=") ||
               is_punct(tok, "/=") || is_punct(tok, "%=") || is_punct(tok, "&=") ||
               is_punct(tok, "|=") || is_punct(tok, "^=");
    };
    auto incdec_op = [&](const Token& tok) {
        return is_punct(tok, "++") || is_punct(tok, "--");
    };

    auto message = [](const std::string& root, const std::string& op) {
        return "'" + op + "' on captured '" + root +
               "' inside a parallel region is a data race unless externally "
               "synchronized; make it shard-local and reduce in shard order, or "
               "annotate `memopt-lint: guarded` naming the lock that protects it";
    };

    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (!is_parallel_entry(t[i])) continue;
        if (!is_punct(t[i + 1], "(")) continue;
        const std::size_t begin = i + 1;
        const std::size_t end = skip_parens(t, begin);

        auto flag_if_captured = [&](std::size_t target_end, const std::string& op,
                                    int line) {
            const std::size_t root = root_of_lvalue(t, target_end);
            if (root == std::string::npos) return;
            const std::string& name = t[root].text;
            if (declared_between(name, begin, root)) return;  // shard-local
            // Captured state is either declared earlier in this file or a
            // member by the project's trailing-'_' convention; anything
            // else (globals from other TUs) is out of scope here.
            if (!declared_between(name, 0, begin) && !name.ends_with("_")) return;
            // FP compound-assign is D3's finding; do not double-report.
            if (op != "++" && op != "--" && is_fp_scalar(name)) return;
            out.emit("D5", line, message(name, op), "guarded");
        };

        for (std::size_t j = begin + 1; j + 1 < end; ++j) {
            if (compound_op(t[j + 1]) &&
                (t[j].kind == TokKind::Identifier || is_punct(t[j], "]"))) {
                flag_if_captured(j, t[j + 1].text, t[j + 1].line);
            } else if (incdec_op(t[j])) {
                if (j > begin && (t[j - 1].kind == TokKind::Identifier ||
                                  is_punct(t[j - 1], "]"))) {
                    flag_if_captured(j - 1, t[j].text, t[j].line);  // postfix
                } else if (t[j + 1].kind == TokKind::Identifier) {
                    // Prefix: the chain's root is the identifier right after
                    // the operator (`++region->count_`).
                    std::size_t root = j + 1;
                    const std::string& name = t[root].text;
                    if (declared_between(name, begin, root)) continue;
                    if (!declared_between(name, 0, begin) && !name.ends_with("_"))
                        continue;
                    out.emit("D5", t[j].line, message(name, t[j].text), "guarded");
                }
            }
        }
        i = end > i ? end - 1 : i;
    }
}

// ---------------------------------------------------------------------------
// R1 — raw final-artifact writes bypassing the durable layer

void check_r1(const SourceFile& file, Emitter& out) {
    // The durable layer itself owns the one raw write (temp -> fsync ->
    // rename); tests write scratch files that nothing consumes as results.
    if (file.path.find("support/durable") != std::string::npos) return;
    if (file.path.rfind("tests/", 0) == 0 || file.path.find("/tests/") != std::string::npos)
        return;
    const auto& t = file.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (i > 0 && (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->"))) continue;
        const bool raw_stream = is_ident(t[i], "ofstream");
        const bool raw_fopen =
            is_ident(t[i], "fopen") && i + 1 < t.size() && is_punct(t[i + 1], "(");
        if (!raw_stream && !raw_fopen) continue;
        out.emit("R1", t[i].line,
                 std::string("raw ") + (raw_stream ? "std::ofstream" : "fopen()") +
                     " writes the destination in place, so a crash mid-write leaves a "
                     "truncated artifact under the final name; stage through "
                     "atomic_write / AtomicOstream (support/durable/atomic_file.hpp) or "
                     "annotate `memopt-lint: durable-write` with a rationale",
                 "durable-write");
    }
}

// ---------------------------------------------------------------------------
// A1 — raw assert()

void check_a1(const SourceFile& file, Emitter& out) {
    if (file.path.find("support/assert") != std::string::npos) return;
    const auto& t = file.tokens;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (!is_ident(t[i], "assert") || !is_punct(t[i + 1], "(")) continue;
        if (i > 0 && (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->"))) continue;
        out.emit("A1", t[i].line,
                 "raw assert() vanishes under NDEBUG and prints no context; use "
                 "MEMOPT_ASSERT / MEMOPT_ASSERT_MSG (support/assert.hpp)");
    }
}

// ---------------------------------------------------------------------------
// H1 — header hygiene

/// First whitespace-separated words of a preprocessor directive, '#' stripped.
std::vector<std::string> directive_words(const std::string& text, std::size_t max_words) {
    std::vector<std::string> words;
    std::string word;
    for (std::size_t i = 0; i <= text.size() && words.size() < max_words; ++i) {
        const char c = i < text.size() ? text[i] : ' ';
        if (c == '#' || c == ' ' || c == '\t') {
            if (!word.empty()) words.push_back(word);
            word.clear();
        } else {
            word += c;
        }
    }
    return words;
}

void check_h1(const SourceFile& file, Emitter& out) {
    if (!file.is_header) return;
    const auto& t = file.tokens;

    bool guarded = false;
    std::string first_directive;  // first two words of the first directive
    for (const Token& tok : t) {
        if (tok.kind != TokKind::PPDirective) continue;
        const auto words = directive_words(tok.text, 2);
        if (words.size() >= 2 && words[0] == "pragma" && words[1] == "once") {
            guarded = true;
            break;
        }
        if (first_directive.empty() && !words.empty()) {
            first_directive = words[0];
            // Classic guard: the first directive is `#ifndef NAME`.
            if (words[0] == "ifndef") guarded = true;
            if (!guarded) break;  // first directive is neither guard style
        }
    }
    if (!guarded) {
        out.emit("H1", 1,
                 "header has no #pragma once / include guard; double inclusion is an ODR "
                 "time bomb");
    }

    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (is_ident(t[i], "using") && is_ident(t[i + 1], "namespace")) {
            out.emit("H1", t[i].line,
                     "`using namespace` in a header leaks into every includer; qualify "
                     "names instead");
        }
    }
}

}  // namespace

std::string Finding::render() const {
    return file + ":" + std::to_string(line) + ": " + rule + ": " + message;
}

const std::vector<RuleInfo>& rule_catalogue() {
    static const std::vector<RuleInfo> rules = {
        {"D1", "unordered-container iteration must be sorted or annotated order-independent"},
        {"D2", "no nondeterministic seeds (random_device/time/rand/srand) outside support/rng"},
        {"D3", "no captured floating-point accumulation inside parallel lambdas"},
        {"D4", "no std::atomic<float|double>"},
        {"D5", "no compound mutation of captured state inside parallel lambdas; "
               "shard-local or annotated `guarded` only"},
        {"L1", "module includes follow the layering DAG declared in tools/lint/graph.cpp"},
        {"L2", "the include graph is acyclic"},
        {"I1", "every quoted include is used (IWYU-lite); intentional keeps annotate "
               "`keep-include`"},
        {"S1", "JSON keys emitted via JsonWriter literals match the frozen schema "
               "goldens (docs/schemas)"},
        {"R1", "final artifacts are written through support/durable (atomic_write/"
               "AtomicOstream), never raw ofstream/fopen"},
        {"A1", "invariant checks use MEMOPT_ASSERT, never raw assert()"},
        {"H1", "headers carry include guards and no `using namespace`"},
    };
    return rules;
}

std::vector<D1Site> collect_d1_sites(const SourceFile& file) {
    std::vector<D1Site> sites;
    const auto& t = file.tokens;
    int group = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        // Range-for: record every identifier of the range expression, in
        // order, under one group — resolution emits on the first that names
        // an unordered container, exactly as the in-line rule did.
        if (is_ident(t[i], "for") && i + 1 < t.size() && is_punct(t[i + 1], "(")) {
            std::size_t depth = 0;
            bool classic_for = false;
            std::size_t colon = std::string::npos;
            std::size_t close = t.size();
            for (std::size_t j = i + 1; j < t.size(); ++j) {
                if (t[j].kind != TokKind::Punct) continue;
                if (t[j].text == "(") ++depth;
                else if (t[j].text == ")") {
                    if (--depth == 0) {
                        close = j;
                        break;
                    }
                } else if (depth == 1 && t[j].text == ";") {
                    classic_for = true;
                } else if (depth == 1 && t[j].text == ":" && colon == std::string::npos) {
                    colon = j;
                }
            }
            if (!classic_for && colon != std::string::npos) {
                ++group;
                for (std::size_t j = colon + 1; j < close; ++j) {
                    if (t[j].kind != TokKind::Identifier) continue;
                    sites.push_back(D1Site{t[j].text, t[j].line, group,
                                           file.annotated(t[j].line, "D1") ||
                                               file.annotated(t[j].line,
                                                              "order-independent")});
                }
            }
            continue;
        }
        // name.begin() / name.cbegin() / name.rbegin(): ordered traversal
        // of an unordered container (iterator loops, range constructors).
        if (t[i].kind == TokKind::Identifier && i + 2 < t.size() &&
            (is_punct(t[i + 1], ".") || is_punct(t[i + 1], "->")) &&
            any_of_ident(t[i + 2], {"begin", "cbegin", "rbegin"})) {
            ++group;
            sites.push_back(D1Site{t[i].text, t[i].line, group,
                                   file.annotated(t[i].line, "D1") ||
                                       file.annotated(t[i].line, "order-independent")});
        }
    }
    return sites;
}

std::set<std::string> collect_unordered_locals(const SourceFile& file) {
    std::set<std::string> local;
    std::set<std::string> members;
    collect_unordered_names(file, local, members);
    return local;
}

std::set<std::string> collect_unordered_members(const SourceFile& file) {
    std::set<std::string> local;
    std::set<std::string> members;
    collect_unordered_names(file, local, members);
    return members;
}

void resolve_d1(const std::string& path, const std::vector<D1Site>& sites,
                const std::set<std::string>& names, std::vector<Finding>& findings) {
    if (names.empty()) return;
    int done_group = 0;
    for (const D1Site& site : sites) {
        if (site.group == done_group) continue;  // group already resolved
        if (names.count(site.name) == 0) continue;
        done_group = site.group;
        if (site.suppressed) continue;
        findings.push_back(Finding{path, site.line, "D1", d1_message(site.name)});
    }
}

void check_local(const SourceFile& file, std::vector<Finding>& findings) {
    Emitter out{file, findings};
    check_d2(file, out);
    check_d3(file, out);
    check_d4(file, out);
    check_d5(file, out);
    check_r1(file, out);
    check_a1(file, out);
    check_h1(file, out);
}

void check_file(const SourceFile& file, const std::set<std::string>& cross_file_members,
                std::vector<Finding>& findings) {
    std::set<std::string> names(cross_file_members);
    const std::set<std::string> locals = collect_unordered_locals(file);
    names.insert(locals.begin(), locals.end());
    resolve_d1(file.path, collect_d1_sites(file), names, findings);
    check_local(file, findings);
}

}  // namespace memopt::lint
