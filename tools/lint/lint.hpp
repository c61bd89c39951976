// memopt_lint driver: the two-pass project engine.
//
// Pass 1 (parallel): walk the scan roots in sorted order, read every file,
// and tokenize and index it. The scan fans out on the shared memopt
// thread pool; parallel_map preserves input order, so the index set — and
// therefore every downstream finding — is bit-identical at any --jobs
// count.
//
// Pass 2 (serial, cheap): resolve the project-wide rules over the index
// set — cross-file D1, layering L1 (the table in graph.cpp), include
// cycles L2, IWYU-lite I1, and JSON-schema conformance S1 (docs/schemas) —
// then sort findings by (file, line, rule). Every finding fails the run;
// the only suppressions are the inline `memopt-lint:` annotations, applied
// in pass 1.
//
// Reports render as text, memopt.lint.v1 JSON, or SARIF 2.1.0 (for GitHub
// code scanning upload).
#pragma once

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
    /// Directory names excluded from the walk wherever they appear.
    std::vector<std::string> exclude_dirs = {"lint_fixtures"};
    /// Parallelism of pass 1; 0 = the process default (MEMOPT_JOBS /
    /// hardware concurrency). Findings are identical at any value.
    std::size_t jobs = 0;
    /// Directory of S1 schema goldens, relative to root. Empty = use
    /// docs/schemas when it exists, else skip S1. An explicit directory
    /// that does not exist is an error.
    std::string schemas_dir;
};

struct LintReport {
    std::vector<Finding> findings;  // sorted by (file, line, rule, message)
    std::size_t files_scanned = 0;
};

/// Run the full lint: walk, index in parallel, resolve the global rules,
/// and sort. Throws memopt::Error on unreadable paths or malformed configs.
LintReport run_lint(const LintOptions& options);

/// Write the memopt.lint.v1 report document. Its `files_from_cache`,
/// per-finding `baselined` and `stale_baseline` keys are frozen by the
/// schema and always written as 0, false and empty.
void write_json(JsonWriter& w, const LintOptions& options, const LintReport& report);

/// Write the report as SARIF 2.1.0 (github.com code-scanning dialect):
/// one run, the full rule catalogue as reportingDescriptors, one result
/// per finding with a physical location.
void write_sarif(JsonWriter& w, const LintOptions& options, const LintReport& report);

}  // namespace memopt::lint
