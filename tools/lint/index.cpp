#include "tools/lint/index.hpp"

#include <algorithm>
#include <cctype>

#include "support/assert.hpp"

namespace memopt::lint {

namespace {

bool is_ident_token(const Token& t, std::string_view text) {
    return t.kind == TokKind::Identifier && t.text == text;
}

bool is_punct_token(const Token& t, std::string_view text) {
    return t.kind == TokKind::Punct && t.text == text;
}

/// Split a preprocessor directive body into identifier-shaped words.
void directive_identifiers(const std::string& text, std::vector<std::string>& out) {
    std::string word;
    bool in_string = false;
    char delim = '\0';
    for (std::size_t i = 0; i <= text.size(); ++i) {
        const char c = i < text.size() ? text[i] : ' ';
        if (in_string) {
            if (c == '\\') {
                ++i;
            } else if (c == delim) {
                in_string = false;
            }
            continue;
        }
        if (c == '"' || c == '\'') {
            in_string = true;
            delim = c;
            if (!word.empty()) out.push_back(word);
            word.clear();
            continue;
        }
        if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
            word += c;
        } else {
            if (!word.empty() && !std::isdigit(static_cast<unsigned char>(word[0]))) {
                out.push_back(word);
            }
            word.clear();
        }
    }
}

/// Keywords that never count as a declared symbol of a header.
bool is_cpp_keyword(const std::string& w) {
    static const std::set<std::string> kw = {
        "alignas",  "alignof",  "auto",      "bool",      "break",    "case",
        "catch",    "char",     "class",     "concept",   "const",    "consteval",
        "constexpr","constinit","continue",  "decltype",  "default",  "delete",
        "do",       "double",   "else",      "enum",      "explicit", "export",
        "extern",   "false",    "float",     "for",       "friend",   "goto",
        "if",       "inline",   "int",       "long",      "mutable",  "namespace",
        "new",      "noexcept", "nullptr",   "operator",  "private",  "protected",
        "public",   "register", "requires",  "return",    "short",    "signed",
        "sizeof",   "static",   "struct",    "switch",    "template", "this",
        "throw",    "true",     "try",       "typedef",   "typeid",   "typename",
        "union",    "unsigned", "using",     "virtual",   "void",     "volatile",
        "while",    "final",    "override",  "co_await",  "co_return","co_yield",
        "static_assert", "static_cast", "dynamic_cast", "const_cast",
        "reinterpret_cast", "std"};
    return kw.count(w) != 0;
}

/// Names a header offers to its includers. Deliberately generous — an
/// over-collected symbol can only make an include look *used* (I1's safe
/// direction) — but grounded in declaration shapes, not a bag of every
/// identifier, so genuinely unused includes still surface:
///  - type names after class/struct/union/enum/concept
///  - alias and namespace names after using/typedef/namespace
///  - enumerators (all identifiers inside an enum's braces)
///  - function names (identifier directly followed by `(`)
///  - variable/member/constant names in declaration position
///  - object-like and function-like macro names from #define
void collect_declared_symbols(const SourceFile& file, std::set<std::string>& out) {
    const auto& t = file.tokens;
    auto add = [&](const std::string& name) {
        if (!name.empty() && !is_cpp_keyword(name)) out.insert(name);
    };
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind == TokKind::PPDirective) {
            // "#define NAME ..." / "#define NAME(args) ..."
            std::vector<std::string> words;
            directive_identifiers(t[i].text, words);
            if (words.size() >= 2 && words[0] == "define") add(words[1]);
            continue;
        }
        if (t[i].kind != TokKind::Identifier) continue;
        const std::string& w = t[i].text;
        if (w == "namespace") {
            // A namespace *block* (`namespace x {`, `namespace x::y {`) is
            // not a symbol the header provides: any file re-opens a
            // namespace without including anything, so counting the name
            // would mark every include as used by every file sharing the
            // project's root namespace. A namespace *alias*
            // (`namespace x = y;`) is a real declaration.
            std::size_t j = i + 1;
            while (j + 1 < t.size() && t[j].kind == TokKind::Identifier &&
                   is_punct_token(t[j + 1], "::")) {
                j += 2;
            }
            if (j + 1 < t.size() && t[j].kind == TokKind::Identifier &&
                is_punct_token(t[j + 1], "=")) {
                add(t[j].text);
            }
            continue;
        }
        if (w == "class" || w == "struct" || w == "union" || w == "concept" ||
            w == "typedef" || w == "using") {
            // Skip attributes / `enum class`; take the next identifier.
            std::size_t j = i + 1;
            while (j < t.size() && t[j].kind == TokKind::Identifier &&
                   (t[j].text == "alignas" || t[j].text == "class" || t[j].text == "struct")) {
                ++j;
            }
            if (j < t.size() && t[j].kind == TokKind::Identifier) add(t[j].text);
            continue;
        }
        if (w == "enum") {
            std::size_t j = i + 1;
            if (j < t.size() &&
                (is_ident_token(t[j], "class") || is_ident_token(t[j], "struct"))) {
                ++j;
            }
            if (j < t.size() && t[j].kind == TokKind::Identifier) {
                add(t[j].text);
                ++j;
            }
            // Optional underlying type, then the enumerator list.
            while (j < t.size() && !is_punct_token(t[j], "{") && !is_punct_token(t[j], ";")) {
                ++j;
            }
            if (j < t.size() && is_punct_token(t[j], "{")) {
                std::size_t depth = 0;
                for (; j < t.size(); ++j) {
                    if (is_punct_token(t[j], "{")) ++depth;
                    else if (is_punct_token(t[j], "}")) {
                        if (--depth == 0) break;
                    } else if (t[j].kind == TokKind::Identifier) {
                        add(t[j].text);
                    }
                }
                i = j;
            }
            continue;
        }
        // Function names: identifier directly followed by `(`, not reached
        // through a member access (those belong to another type).
        if (i + 1 < t.size() && is_punct_token(t[i + 1], "(")) {
            if (i > 0 && (is_punct_token(t[i - 1], ".") || is_punct_token(t[i - 1], "->")))
                continue;
            add(w);
            continue;
        }
        // Variable / member / constant declarations: identifier followed by
        // a declarator terminator and preceded (after cv/ref/ptr) by a
        // type-ish token.
        if (i + 1 < t.size() &&
            (is_punct_token(t[i + 1], "=") || is_punct_token(t[i + 1], ";") ||
             is_punct_token(t[i + 1], "{") || is_punct_token(t[i + 1], ","))) {
            std::size_t p = i;
            while (p > 0 && (is_punct_token(t[p - 1], "&") || is_punct_token(t[p - 1], "*") ||
                             is_ident_token(t[p - 1], "const"))) {
                --p;
            }
            if (p == 0) continue;
            if (is_punct_token(t[p - 1], ">") ||
                (t[p - 1].kind == TokKind::Identifier && !is_cpp_keyword(t[p - 1].text)) ||
                is_ident_token(t[p - 1], "bool") || is_ident_token(t[p - 1], "int") ||
                is_ident_token(t[p - 1], "double") || is_ident_token(t[p - 1], "float") ||
                is_ident_token(t[p - 1], "char") || is_ident_token(t[p - 1], "auto")) {
                add(w);
            }
        }
    }
}

/// Parse one `#include` directive body; returns false for other directives.
bool parse_include(const std::string& text, std::string& target, bool& system) {
    std::size_t i = 0;
    auto skip_ws = [&] {
        while (i < text.size() && (text[i] == ' ' || text[i] == '\t' || text[i] == '#')) ++i;
    };
    skip_ws();
    const std::string_view kw = "include";
    if (text.compare(i, kw.size(), kw) != 0) return false;
    i += kw.size();
    skip_ws();
    if (i >= text.size()) return false;
    char close;
    if (text[i] == '"') close = '"';
    else if (text[i] == '<') close = '>';
    else return false;
    system = close == '>';
    const std::size_t end = text.find(close, i + 1);
    if (end == std::string::npos) return false;
    target = text.substr(i + 1, end - i - 1);
    return true;
}

}  // namespace

FileIndex build_file_index(const SourceFile& file) {
    FileIndex idx;
    idx.path = file.path;
    idx.is_header = file.is_header;

    std::set<std::string> used;
    std::set<std::string> declared;
    for (std::size_t i = 0; i < file.tokens.size(); ++i) {
        const Token& t = file.tokens[i];
        if (t.kind == TokKind::Identifier) {
            if (!is_cpp_keyword(t.text)) used.insert(t.text);
        } else if (t.kind == TokKind::PPDirective) {
            std::string target;
            bool system = false;
            if (parse_include(t.text, target, system)) {
                IncludeSite site;
                site.target = std::move(target);
                site.line = t.line;
                site.system = system;
                site.keep_annotated = file.annotated(t.line, "keep-include") ||
                                      file.annotated(t.line, "I1");
                site.layer_exempt = file.annotated(t.line, "layering") ||
                                    file.annotated(t.line, "L1");
                idx.includes.push_back(std::move(site));
            } else {
                std::vector<std::string> words;
                directive_identifiers(t.text, words);
                // First word is the directive name; macro operands after it
                // are genuine uses (`#if MEMOPT_HAS_FOO`).
                for (std::size_t w = 1; w < words.size(); ++w) {
                    if (!is_cpp_keyword(words[w])) used.insert(words[w]);
                }
            }
        }
    }
    if (file.is_header) collect_declared_symbols(file, declared);

    idx.declared_symbols.assign(declared.begin(), declared.end());
    idx.used_identifiers.assign(used.begin(), used.end());
    const std::set<std::string> ul = collect_unordered_locals(file);
    const std::set<std::string> um = collect_unordered_members(file);
    idx.unordered_locals.assign(ul.begin(), ul.end());
    idx.unordered_members.assign(um.begin(), um.end());
    idx.d1_sites = collect_d1_sites(file);

    for (std::size_t i = 0; i + 2 < file.tokens.size(); ++i) {
        const Token& t = file.tokens[i];
        // w.member("key", ...) / w.key("key") — JsonWriter call chains.
        if (t.kind != TokKind::Identifier || (t.text != "member" && t.text != "key"))
            continue;
        if (i == 0 || !(is_punct_token(file.tokens[i - 1], ".") ||
                        is_punct_token(file.tokens[i - 1], "->")))
            continue;
        if (!is_punct_token(file.tokens[i + 1], "(")) continue;
        if (file.tokens[i + 2].kind != TokKind::String) continue;
        idx.json_keys.push_back(FileIndex::JsonKey{file.tokens[i + 2].text, t.line});
    }

    check_local(file, idx.local_findings);
    return idx;
}

// ---------------------------------------------------------------------------
// Minimal JSON reader

namespace {

class JsonParser {
public:
    JsonParser(std::string_view text, const std::string& name) : text_(text), name_(name) {}

    JsonValue parse_document() {
        JsonValue v = parse_value();
        skip_ws();
        if (pos_ != text_.size()) error("trailing characters after document");
        return v;
    }

private:
    [[noreturn]] void error(const std::string& what) const {
        throw Error("memopt_lint: " + name_ + ": JSON parse error at offset " +
                    std::to_string(pos_) + ": " + what);
    }

    void skip_ws() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
                text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char peek() {
        skip_ws();
        if (pos_ >= text_.size()) error("unexpected end of document");
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c) error(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consume_literal(std::string_view lit) {
        if (text_.compare(pos_, lit.size(), lit) != 0) return false;
        pos_ += lit.size();
        return true;
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"') return out;
            if (c == '\\') {
                if (pos_ >= text_.size()) break;
                const char e = text_[pos_++];
                switch (e) {
                    case '"': out += '"'; break;
                    case '\\': out += '\\'; break;
                    case '/': out += '/'; break;
                    case 'b': out += '\b'; break;
                    case 'f': out += '\f'; break;
                    case 'n': out += '\n'; break;
                    case 'r': out += '\r'; break;
                    case 't': out += '\t'; break;
                    case 'u': {
                        // The lint configs are ASCII; keep the escape verbatim
                        // rather than transcoding.
                        out += "\\u";
                        for (int i = 0; i < 4 && pos_ < text_.size(); ++i) out += text_[pos_++];
                        break;
                    }
                    default: error("bad escape sequence");
                }
            } else {
                out += c;
            }
        }
        error("unterminated string");
    }

    JsonValue parse_value() {
        const char c = peek();
        JsonValue v;
        if (c == '{') {
            v.kind = JsonValue::Kind::Object;
            ++pos_;
            if (peek() == '}') {
                ++pos_;
                return v;
            }
            for (;;) {
                std::string key = parse_string();
                expect(':');
                v.members.emplace_back(std::move(key), parse_value());
                const char n = peek();
                ++pos_;
                if (n == '}') return v;
                if (n != ',') error("expected ',' or '}' in object");
                skip_ws();
            }
        }
        if (c == '[') {
            v.kind = JsonValue::Kind::Array;
            ++pos_;
            if (peek() == ']') {
                ++pos_;
                return v;
            }
            for (;;) {
                v.items.push_back(parse_value());
                const char n = peek();
                ++pos_;
                if (n == ']') return v;
                if (n != ',') error("expected ',' or ']' in array");
            }
        }
        if (c == '"') {
            v.kind = JsonValue::Kind::String;
            v.string = parse_string();
            return v;
        }
        skip_ws();
        if (consume_literal("true")) {
            v.kind = JsonValue::Kind::Bool;
            v.boolean = true;
            return v;
        }
        if (consume_literal("false")) {
            v.kind = JsonValue::Kind::Bool;
            return v;
        }
        if (consume_literal("null")) return v;
        // Number.
        const std::size_t start = pos_;
        if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
                text_[pos_] == '-' || text_[pos_] == '+')) {
            ++pos_;
        }
        if (pos_ == start) error("unexpected character");
        v.kind = JsonValue::Kind::Number;
        try {
            v.number = std::stod(std::string(text_.substr(start, pos_ - start)));
        } catch (const std::exception&) {
            error("bad number");
        }
        return v;
    }

    std::string_view text_;
    std::string name_;
    std::size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
    if (kind != Kind::Object) return nullptr;
    for (const auto& [k, v] : members) {
        if (k == key) return &v;
    }
    return nullptr;
}

JsonValue parse_json(std::string_view text, const std::string& name) {
    return JsonParser(text, name).parse_document();
}

SchemaGolden parse_schema_golden(std::string_view text, const std::string& path) {
    const JsonValue doc = parse_json(text, path);
    auto require_string = [&](const char* key) -> const std::string& {
        const JsonValue* v = doc.find(key);
        if (v == nullptr || v->kind != JsonValue::Kind::String) {
            throw Error("memopt_lint: " + path + ": missing string field '" + key + "'");
        }
        return v->string;
    };
    if (require_string("schema") != "memopt.schema-freeze.v1") {
        throw Error("memopt_lint: " + path +
                    ": unsupported schema document (want memopt.schema-freeze.v1)");
    }
    SchemaGolden g;
    g.path = path;
    g.id = require_string("id");
    auto require_array = [&](const char* key) -> const std::vector<JsonValue>& {
        const JsonValue* v = doc.find(key);
        if (v == nullptr || v->kind != JsonValue::Kind::Array) {
            throw Error("memopt_lint: " + path + ": missing array field '" + key + "'");
        }
        return v->items;
    };
    for (const JsonValue& v : require_array("sources")) {
        if (v.kind != JsonValue::Kind::String) {
            throw Error("memopt_lint: " + path + ": 'sources' entries must be strings");
        }
        g.sources.push_back(v.string);
    }
    for (const JsonValue& v : require_array("keys")) {
        if (v.kind != JsonValue::Kind::String) {
            throw Error("memopt_lint: " + path + ": 'keys' entries must be strings");
        }
        g.keys.insert(v.string);
    }
    return g;
}

}  // namespace memopt::lint
