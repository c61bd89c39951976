#include "tools/lint/lint.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "support/assert.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "tools/lint/graph.hpp"
#include "tools/lint/index.hpp"

namespace fs = std::filesystem;

namespace memopt::lint {

namespace {

bool lintable_extension(const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".hpp" || ext == ".h" ||
           ext == ".hh" || ext == ".hxx" || ext == ".inl";
}

bool excluded(const fs::path& p, const std::vector<std::string>& exclude_dirs) {
    for (const fs::path& part : p) {
        for (const std::string& ex : exclude_dirs) {
            if (part.string() == ex) return true;
        }
    }
    return false;
}

/// All lintable files under `path` (or `path` itself), sorted by their
/// root-relative diagnostic path for a deterministic scan order.
void collect_files(const fs::path& root, const std::string& rel_path,
                   const std::vector<std::string>& exclude_dirs,
                   std::vector<std::string>& out) {
    const fs::path abs = fs::path(rel_path).is_absolute() ? fs::path(rel_path) : root / rel_path;
    if (!fs::exists(abs)) throw Error("memopt_lint: no such path: " + abs.string());
    if (fs::is_regular_file(abs)) {
        out.push_back(fs::relative(abs, root).generic_string());
        return;
    }
    for (const auto& entry : fs::recursive_directory_iterator(abs)) {
        if (!entry.is_regular_file() || !lintable_extension(entry.path())) continue;
        const fs::path rel = fs::relative(entry.path(), root);
        if (excluded(rel, exclude_dirs)) continue;
        out.push_back(rel.generic_string());
    }
}

std::string read_file(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    if (!in) throw Error("memopt_lint: cannot read " + p.string());
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/// Resolve an optional config path: explicit values must exist; an empty
/// value falls back to `auto_rel` when present under root, else "".
std::string resolve_config(const fs::path& root, const std::string& configured,
                           const char* auto_rel, const char* what) {
    if (!configured.empty()) {
        const fs::path p = fs::path(configured).is_absolute() ? fs::path(configured)
                                                              : root / configured;
        if (!fs::exists(p)) {
            throw Error(std::string("memopt_lint: ") + what + " not found: " + p.string());
        }
        return configured;
    }
    return fs::exists(root / auto_rel) ? std::string(auto_rel) : std::string();
}

}  // namespace

LintReport run_lint(const LintOptions& options) {
    const fs::path root(options.root);
    if (!fs::is_directory(root)) {
        throw Error("memopt_lint: root is not a directory: " + options.root);
    }

    std::vector<std::string> files;
    for (const std::string& p : options.paths) collect_files(root, p, options.exclude_dirs, files);
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());

    // Pass 1: read, tokenize and index every file. parallel_map preserves
    // input order, so the index set is identical at any jobs.
    std::vector<FileIndex> scanned = parallel_map(
        files,
        [&](const std::string& rel) {
            return build_file_index(tokenize(rel, read_file(root / rel)));
        },
        options.jobs);

    LintReport report;
    report.files_scanned = scanned.size();
    std::map<std::string, FileIndex> indexes;
    for (FileIndex& index : scanned) indexes.emplace(index.path, std::move(index));

    // Pass 2: token-local findings straight from the indexes, then the
    // project-wide rules over the index set.
    std::set<std::string> member_union;
    for (const auto& [_, idx] : indexes) {
        member_union.insert(idx.unordered_members.begin(), idx.unordered_members.end());
    }
    for (const auto& [path, idx] : indexes) {
        report.findings.insert(report.findings.end(), idx.local_findings.begin(),
                               idx.local_findings.end());
        std::set<std::string> names(member_union);
        names.insert(idx.unordered_locals.begin(), idx.unordered_locals.end());
        resolve_d1(path, idx.d1_sites, names, report.findings);
    }

    const IncludeGraph graph = build_include_graph(indexes);
    resolve_layering(indexes, graph, project_layering(), report.findings);
    resolve_cycles(graph, report.findings);
    resolve_unused_includes(indexes, graph, report.findings);

    const std::string schemas_dir =
        resolve_config(root, options.schemas_dir, "docs/schemas", "schemas directory");
    if (!schemas_dir.empty()) {
        const fs::path dir = fs::path(schemas_dir).is_absolute() ? fs::path(schemas_dir)
                                                                 : root / schemas_dir;
        std::vector<fs::path> golden_paths;
        for (const auto& entry : fs::directory_iterator(dir)) {
            if (entry.is_regular_file() && entry.path().extension() == ".json") {
                golden_paths.push_back(entry.path());
            }
        }
        std::sort(golden_paths.begin(), golden_paths.end());
        std::vector<SchemaGolden> goldens;
        goldens.reserve(golden_paths.size());
        for (const fs::path& p : golden_paths) {
            const std::string rel = fs::relative(p, root).generic_string();
            goldens.push_back(parse_schema_golden(read_file(p), rel));
        }
        resolve_schemas(indexes, goldens, report.findings);
    }

    std::sort(report.findings.begin(), report.findings.end(),
              [](const Finding& a, const Finding& b) {
                  return std::tie(a.file, a.line, a.rule, a.message) <
                         std::tie(b.file, b.line, b.rule, b.message);
              });

    return report;
}

void write_json(JsonWriter& w, const LintOptions& options, const LintReport& report) {
    w.begin_object();
    w.member("schema", "memopt.lint.v1");
    w.member("root", options.root);
    w.key("paths").begin_array();
    for (const std::string& p : options.paths) w.value(p);
    w.end_array();
    w.member("files_scanned", static_cast<std::uint64_t>(report.files_scanned));
    w.member("files_from_cache", std::uint64_t{0});
    w.key("rules").begin_array();
    for (const RuleInfo& r : rule_catalogue()) {
        w.begin_object();
        w.member("id", r.id);
        w.member("summary", r.summary);
        w.end_object();
    }
    w.end_array();
    w.key("findings").begin_array();
    for (const Finding& f : report.findings) {
        w.begin_object();
        w.member("file", f.file);
        w.member("line", static_cast<std::int64_t>(f.line));
        w.member("rule", f.rule);
        w.member("message", f.message);
        w.member("baselined", false);
        w.end_object();
    }
    w.end_array();
    w.key("stale_baseline").begin_array();
    w.end_array();
    w.key("summary").begin_object();
    w.member("active", static_cast<std::uint64_t>(report.findings.size()));
    w.member("baselined", std::uint64_t{0});
    w.member("stale_baseline", std::uint64_t{0});
    w.end_object();
    w.end_object();
}

void write_sarif(JsonWriter& w, const LintOptions& options, const LintReport& report) {
    (void)options;
    const std::vector<RuleInfo>& rules = rule_catalogue();
    auto rule_index = [&](const std::string& id) -> std::int64_t {
        for (std::size_t i = 0; i < rules.size(); ++i) {
            if (id == rules[i].id) return static_cast<std::int64_t>(i);
        }
        return -1;
    };

    w.begin_object();
    w.member("version", "2.1.0");
    w.member("$schema", "https://json.schemastore.org/sarif-2.1.0.json");
    w.key("runs").begin_array();
    w.begin_object();

    w.key("tool").begin_object();
    w.key("driver").begin_object();
    w.member("name", "memopt_lint");
    w.member("version", "2.0.0");
    w.member("informationUri", "https://example.invalid/memopt/docs/DESIGN.md");
    w.key("rules").begin_array();
    for (const RuleInfo& r : rules) {
        w.begin_object();
        w.member("id", r.id);
        w.key("shortDescription").begin_object();
        w.member("text", r.summary);
        w.end_object();
        w.key("defaultConfiguration").begin_object();
        w.member("level", "error");
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();  // driver
    w.end_object();  // tool

    w.member("columnKind", "utf16CodeUnits");

    w.key("results").begin_array();
    for (const Finding& f : report.findings) {
        w.begin_object();
        w.member("ruleId", f.rule);
        const std::int64_t idx = rule_index(f.rule);
        if (idx >= 0) w.member("ruleIndex", idx);
        w.member("level", "error");
        w.key("message").begin_object();
        w.member("text", f.message);
        w.end_object();
        w.key("locations").begin_array();
        w.begin_object();
        w.key("physicalLocation").begin_object();
        w.key("artifactLocation").begin_object();
        w.member("uri", f.file);
        w.end_object();
        w.key("region").begin_object();
        w.member("startLine", static_cast<std::int64_t>(f.line > 0 ? f.line : 1));
        w.end_object();
        w.end_object();  // physicalLocation
        w.end_object();  // location
        w.end_array();
        w.end_object();  // result
    }
    w.end_array();

    w.end_object();  // run
    w.end_array();
    w.end_object();
}

}  // namespace memopt::lint
