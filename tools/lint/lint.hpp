// memopt_lint driver: the two-pass project engine.
//
// Pass 1 (parallel, incremental): walk the scan roots in sorted order,
// read + hash every file, and either reuse its cached FileIndex (content
// hash unchanged) or tokenize and re-index it. The scan fans out on the
// shared memopt thread pool; parallel_map preserves input order, so the
// index set — and therefore every downstream finding — is bit-identical
// at any --jobs count.
//
// Pass 2 (serial, cheap): resolve the project-wide rules over the index
// set — cross-file D1, layering L1 (the table in graph.cpp), include
// cycles L2, IWYU-lite I1, and JSON-schema conformance S1 (docs/schemas) —
// then sort findings by (file, line, rule) and fold in the suppression
// baseline. Global rules are recomputed on every run from the cached
// indexes, so a header edit or a golden update takes effect immediately
// without any cache invalidation protocol.
//
// Reports render as text, memopt.lint.v1 JSON, or SARIF 2.1.0 (for GitHub
// code scanning upload). The cache file itself is written through
// atomic_write — the linter holds itself to the invariants it enforces.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "tools/lint/rules.hpp"

namespace memopt {
class JsonWriter;
}

namespace memopt::lint {

struct LintOptions {
    /// Directory all scan paths and diagnostics are relative to.
    std::string root = ".";
    /// Files or directories to scan, relative to root (or absolute).
    std::vector<std::string> paths = {"src", "bench", "tests", "examples", "tools"};
    /// Suppression baseline file; empty = no baseline.
    std::string baseline_path;
    /// Directory names excluded from the walk wherever they appear.
    std::vector<std::string> exclude_dirs = {"lint_fixtures"};
    /// Parallelism of pass 1; 0 = the process default (MEMOPT_JOBS /
    /// hardware concurrency). Findings are identical at any value.
    std::size_t jobs = 0;
    /// Incremental index cache file; empty = scan cold every run. A cache
    /// written by a different engine version is silently a full miss.
    std::string cache_path;
    /// Directory of S1 schema goldens, relative to root. Empty = use
    /// docs/schemas when it exists, else skip S1. An explicit directory
    /// that does not exist is an error.
    std::string schemas_dir;
};

struct LintReport {
    std::vector<Finding> findings;  // sorted; includes baselined entries
    std::vector<std::string> stale_baseline;  // baseline entries that matched nothing
    std::size_t files_scanned = 0;
    std::size_t files_from_cache = 0;  // pass-1 cache hits (subset of scanned)

    std::size_t active_count() const;     // findings not matched by the baseline
    std::size_t baselined_count() const;  // findings matched by the baseline
};

/// One baseline entry: `file:line:rule` (see parse_baseline).
struct BaselineEntry {
    std::string file;
    int line = 0;
    std::string rule;
};

/// Parse a baseline document: one `file:line:rule` entry per line, `#`
/// comments and blank lines ignored. Throws memopt::Error on malformed
/// entries (with the offending line number).
std::vector<BaselineEntry> parse_baseline(std::istream& in, const std::string& name);

/// Run the full lint: walk, index (incrementally, in parallel), resolve
/// the global rules, sort, and fold the baseline in. Throws memopt::Error
/// on unreadable paths, a malformed baseline, or malformed configs.
LintReport run_lint(const LintOptions& options);

/// Write the memopt.lint.v1 report document.
void write_json(JsonWriter& w, const LintOptions& options, const LintReport& report);

/// Write the report as SARIF 2.1.0 (github.com code-scanning dialect):
/// one run, the full rule catalogue as reportingDescriptors, one result
/// per finding with a physical location; baselined findings carry an
/// `external` suppression so code scanning shows them as dismissed.
void write_sarif(JsonWriter& w, const LintOptions& options, const LintReport& report);

}  // namespace memopt::lint
