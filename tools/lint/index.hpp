// memopt_lint semantic index — pass 1 of the two-pass engine.
//
// The project-wide rule families (module layering L1/L2, IWYU-lite I1,
// cross-file unordered-member D1, JSON-schema conformance S1) cannot be
// answered one file at a time: they need the include graph, every header's
// declared-symbol table, and the JSON keys each writer emits. Pass 1
// distils each source file into a small `FileIndex` — includes, declared
// symbols, used identifiers, unordered-container declarations, D1
// iteration candidates, JsonWriter key emissions, and the file's
// token-local findings. A FileIndex depends only on the file's bytes and
// path, so the driver builds the indexes in parallel. Pass 2 (lint.cpp)
// then runs the global rules over the index set alone, never re-touching
// tokens.
#pragma once

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "tools/lint/rules.hpp"

namespace memopt::lint {

/// One #include directive, as seen in the source.
struct IncludeSite {
    std::string target;  // path between the delimiters, verbatim
    int line = 0;
    bool system = false;          // <...> form (never checked by I1/L1)
    bool keep_annotated = false;  // `memopt-lint: keep-include` / `I1`
    bool layer_exempt = false;    // `memopt-lint: layering` / `L1`
};

/// Everything the global pass needs to know about one file. Derived from
/// file content + path only — never from other files.
struct FileIndex {
    std::string path;  // root-relative, '/' separators
    bool is_header = false;

    std::vector<IncludeSite> includes;
    /// Header-declared names (types, functions, macros, enumerators,
    /// members); deliberately generous, see collect_declared_symbols.
    std::vector<std::string> declared_symbols;
    /// Every identifier mentioned in the file (tokens + directive bodies),
    /// sorted unique; I1 intersects this with header symbol tables.
    std::vector<std::string> used_identifiers;
    /// Names declared as unordered containers (all, and the trailing-'_'
    /// member subset that feeds the cross-file D1 union).
    std::vector<std::string> unordered_locals;
    std::vector<std::string> unordered_members;
    /// D1 iteration candidates, resolved against the member union in pass 2.
    std::vector<D1Site> d1_sites;
    /// String arguments of JsonWriter member("…")/key("…") calls.
    struct JsonKey {
        std::string key;
        int line = 0;
    };
    std::vector<JsonKey> json_keys;
    /// Findings from the token-local rules (D2–D5, R1, A1, H1).
    std::vector<Finding> local_findings;
};

/// Build the index for one tokenized file (pass 1 work unit).
FileIndex build_file_index(const SourceFile& file);

// ---------------------------------------------------------------------------
// Minimal JSON reader (for schema goldens; memopt has a writer only)

/// Parsed JSON value — just enough structure for the lint configs.
struct JsonValue {
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> items;                            // Array
    std::vector<std::pair<std::string, JsonValue>> members;  // Object, in order

    /// Object member by key, or nullptr.
    const JsonValue* find(std::string_view key) const;
};

/// Parse a complete JSON document. Throws memopt::Error (with `name` in the
/// message) on malformed input or trailing garbage.
JsonValue parse_json(std::string_view text, const std::string& name);

// ---------------------------------------------------------------------------
// Schema goldens (docs/schemas/*.v1.json)

/// One frozen schema: the flat set of JSON keys the named source files are
/// allowed to emit through JsonWriter member()/key() literals.
struct SchemaGolden {
    std::string path;  // root-relative golden path (for diagnostics)
    std::string id;    // e.g. "memopt.report.v1"
    std::vector<std::string> sources;  // root-relative emitting files
    std::set<std::string> keys;
};

/// Parse one golden document (schema "memopt.schema-freeze.v1"). Throws
/// memopt::Error on malformed documents.
SchemaGolden parse_schema_golden(std::string_view text, const std::string& path);

}  // namespace memopt::lint
