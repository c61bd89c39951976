// Shared helpers for the experiment-reproduction benches.
#pragma once

#include <cstdio>
#include <initializer_list>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/workload.hpp"
#include "support/durable/atomic_file.hpp"
#include "support/json.hpp"

namespace memopt::bench {

// The per-bench KernelRun copies moved to the process-wide
// WorkloadRepository (core/workload.hpp); the aliases keep the historical
// bench-local names working.
using memopt::KernelRun;
using memopt::KernelRunPtr;

/// The whole kernel suite with its simulation artifacts (fetch streams
/// when `fetch` is set), served from the shared WorkloadRepository: the
/// suite is simulated at most once per bench process, concurrently on
/// first touch (MEMOPT_JOBS threads), and every call shares the same
/// immutable artifacts.
std::vector<KernelRunPtr> run_suite(bool fetch = false);

/// Print the standard bench header: experiment id, paper claim, setup.
void print_header(const std::string& experiment, const std::string& paper_claim,
                  const std::string& setup);

/// The path <MEMOPT_JSON_DIR>/<name>.json, or nullopt when the variable is
/// unset — for tools like google-benchmark that insist on creating the
/// output file themselves. Used by perf_micro to emit BENCH_perf.json so
/// the perf trajectory can be tracked from change to change.
std::optional<std::string> json_path(const std::string& name);

/// Structured export of one bench run: a "memopt.bench.v1" JSON document
/// written to <MEMOPT_JSON_DIR>/<name>.json through the shared JsonWriter
/// (support/json.hpp), so every E-bench emits the same schema as
/// `memopt_cli --json`:
///
///   { "schema": "memopt.bench.v1", "experiment": <name>,
///     "rows": [ {...}, ... ], "summary": {...}?,
///     "shape": {"ok": bool, "message": str}, "metrics": {...} }
///
/// "rows"/"summary" mirror the printed tables and are deterministic at any
/// job count; "metrics" carries the wall-clock observability snapshot.
/// When MEMOPT_JSON_DIR is unset every method is a no-op, so benches use
/// the report unconditionally. finish() also prints the closing
/// shape-check line ("SHAPE <ok/warn>: ...").
class BenchReport {
public:
    /// One row/summary field value. The implicit constructors make
    /// add_row({{"kernel", name}, {"savings_pct", 12.5}, ...}) read like
    /// the table rows it mirrors.
    struct Value {
        std::variant<std::string, double, std::int64_t, std::uint64_t, bool> v;
        Value(const char* s) : v(std::string(s)) {}
        Value(const std::string& s) : v(s) {}
        Value(double d) : v(d) {}
        Value(int i) : v(static_cast<std::int64_t>(i)) {}
        Value(std::int64_t i) : v(i) {}
        Value(std::uint64_t u) : v(u) {}
        Value(unsigned u) : v(static_cast<std::uint64_t>(u)) {}
        Value(bool b) : v(b) {}
    };
    using Field = std::pair<std::string, Value>;

    explicit BenchReport(const std::string& name);
    ~BenchReport();

    BenchReport(const BenchReport&) = delete;
    BenchReport& operator=(const BenchReport&) = delete;

    /// True when MEMOPT_JSON_DIR is set and the sink opened.
    bool active() const { return writer_.has_value(); }

    /// Append one object to "rows". Call before summary()/finish().
    void add_row(std::initializer_list<Field> fields);

    /// Emit the optional "summary" object (aggregate numbers the bench
    /// prints below its table). At most once, after the last add_row().
    void summary(std::initializer_list<Field> fields);

    /// Print the SHAPE line and, when active, write "shape" + "metrics"
    /// and close the document (throws memopt::Error on write failure).
    /// The SHAPE line and the "(figure data -> PATH)" note go to
    /// `verdict`: stdout for the experiment tables, stderr where stdout
    /// carries another document (perf_micro's --benchmark_format=json).
    void finish(bool shape_ok, const std::string& message, std::FILE* verdict = stdout);

private:
    void write_fields(std::initializer_list<Field> fields);
    void close_rows();

    std::string path_;
    AtomicOstream out_;
    std::optional<JsonWriter> writer_;
    bool rows_open_ = false;
    bool finished_ = false;
};

}  // namespace memopt::bench
