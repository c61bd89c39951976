// memopt_lint — determinism & invariant static analysis for the memopt tree.
//
// Usage:
//   memopt_lint [paths...] [--root DIR] [--json FILE] [--sarif FILE]
//               [--jobs N] [--schemas DIR] [--list-rules] [--help]
//
// Walks the given paths (default: src bench tests examples tools, relative
// to --root), indexes every C++ source file in parallel, and enforces the
// project's determinism, layering, include-hygiene, and schema invariants
// as named rules (see tools/lint/rules.hpp for the catalogue). Findings
// print as `file:line: rule: message`; `--json` additionally writes a
// memopt.lint.v1 report and `--sarif` a SARIF 2.1.0 document for GitHub
// code scanning.
//
// Exit codes: 0 clean (no findings), 1 findings, 2 usage or environment
// error.
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "support/durable/atomic_file.hpp"
#include "support/json.hpp"
#include "tools/lint/lint.hpp"

namespace {

constexpr const char* kUsage =
    "usage: memopt_lint [paths...] [--root DIR] [--json FILE] [--sarif FILE]\n"
    "                   [--jobs N] [--schemas DIR] [--list-rules] [--help]\n"
    "\n"
    "Determinism & invariant static analysis over the memopt sources.\n"
    "Paths default to `src bench tests examples tools` relative to --root\n"
    "(default: .).\n"
    "\n"
    "  --root DIR       tree root; scan paths and diagnostics are relative to it\n"
    "  --json FILE      write a memopt.lint.v1 JSON report\n"
    "  --sarif FILE     write a SARIF 2.1.0 report (GitHub code scanning)\n"
    "  --jobs N         scan parallelism (0 = hardware default); findings are\n"
    "                   bit-identical at any value\n"
    "  --schemas DIR    schema goldens for rule S1 (default: docs/schemas\n"
    "                   under --root when present)\n"
    "  --list-rules     print the rule catalogue and exit\n"
    "\n"
    "Suppress a single finding in source with `// memopt-lint: <rule-id>` (or a\n"
    "rule's named allowance, e.g. `order-independent`, `guarded`, `keep-include`)\n"
    "on the finding's line or the line above, with a rationale after `--`.\n"
    "\n"
    "exit codes: 0 clean, 1 findings, 2 usage/environment error\n";

int usage_error(const std::string& msg) {
    std::cerr << "memopt_lint: " << msg << "\n\n" << kUsage;
    return 2;
}

/// Render a report document and publish it through the durable layer
/// (dogfooding rule R1: a crash mid-write must not leave a truncated
/// artifact under the final name).
int write_report(const std::string& path, const memopt::lint::LintOptions& options,
                 const memopt::lint::LintReport& report,
                 void (*render)(memopt::JsonWriter&, const memopt::lint::LintOptions&,
                                const memopt::lint::LintReport&)) {
    std::ostringstream doc;
    memopt::JsonWriter w(doc);
    render(w, options, report);
    doc << "\n";
    try {
        memopt::atomic_write(path, doc.str());
    } catch (const std::exception& e) {
        std::cerr << "memopt_lint: cannot write " << path << ": " << e.what() << "\n";
        return 2;
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    memopt::lint::LintOptions options;
    options.paths.clear();
    std::string json_path;
    std::string sarif_path;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) return nullptr;
            (void)flag;
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            std::cout << kUsage;
            return 0;
        } else if (arg == "--list-rules") {
            for (const memopt::lint::RuleInfo& r : memopt::lint::rule_catalogue()) {
                std::cout << r.id << "  " << r.summary << "\n";
            }
            return 0;
        } else if (arg == "--root") {
            const char* v = value("--root");
            if (!v) return usage_error("--root requires a directory argument");
            options.root = v;
        } else if (arg == "--json") {
            const char* v = value("--json");
            if (!v) return usage_error("--json requires a file argument");
            json_path = v;
        } else if (arg == "--sarif") {
            const char* v = value("--sarif");
            if (!v) return usage_error("--sarif requires a file argument");
            sarif_path = v;
        } else if (arg == "--jobs") {
            const char* v = value("--jobs");
            if (!v) return usage_error("--jobs requires a count argument");
            try {
                options.jobs = static_cast<std::size_t>(std::stoul(v));
            } catch (const std::exception&) {
                return usage_error("--jobs requires a non-negative integer");
            }
        } else if (arg == "--schemas") {
            const char* v = value("--schemas");
            if (!v) return usage_error("--schemas requires a directory argument");
            options.schemas_dir = v;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage_error("unknown option '" + arg + "'");
        } else {
            options.paths.push_back(arg);
        }
    }
    if (options.paths.empty())
        options.paths = {"src", "bench", "tests", "examples", "tools"};

    memopt::lint::LintReport report;
    try {
        report = memopt::lint::run_lint(options);
    } catch (const std::exception& e) {
        std::cerr << "memopt_lint: " << e.what() << "\n";
        return 2;
    }

    for (const memopt::lint::Finding& f : report.findings) std::cout << f.render() << "\n";

    if (!json_path.empty()) {
        const int rc = write_report(json_path, options, report, memopt::lint::write_json);
        if (rc != 0) return rc;
    }
    if (!sarif_path.empty()) {
        const int rc = write_report(sarif_path, options, report, memopt::lint::write_sarif);
        if (rc != 0) return rc;
    }

    std::cerr << "memopt_lint: " << report.files_scanned << " files, "
              << report.findings.size() << " finding(s)\n";
    return report.findings.empty() ? 0 : 1;
}
