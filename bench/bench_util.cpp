#include "bench_util.hpp"

#include <cstdio>
#include <cstdlib>

#include "support/assert.hpp"
#include "support/metrics.hpp"

namespace memopt::bench {

std::vector<KernelRunPtr> run_suite(bool fetch) {
    return WorkloadRepository::instance().suite(fetch);
}

void print_header(const std::string& experiment, const std::string& paper_claim,
                  const std::string& setup) {
    std::printf("================================================================\n");
    std::printf("%s\n", experiment.c_str());
    std::printf("paper claim : %s\n", paper_claim.c_str());
    std::printf("setup       : %s\n", setup.c_str());
    std::printf("================================================================\n");
}

std::optional<std::string> json_path(const std::string& name) {
    const char* dir = std::getenv("MEMOPT_JSON_DIR");
    if (dir == nullptr || *dir == '\0') return std::nullopt;
    return std::string(dir) + "/" + name + ".json";
}

BenchReport::BenchReport(const std::string& name) {
    const auto path = json_path(name);
    if (!path) return;
    path_ = *path;
    if (!out_.open_staged(path_)) {
        std::fprintf(stderr,
                     "memopt: warning: MEMOPT_JSON_DIR sink: cannot create '%s'; "
                     "export dropped\n",
                     path_.c_str());
        return;
    }
    writer_.emplace(out_);
    writer_->begin_object();
    writer_->member("schema", "memopt.bench.v1");
    writer_->member("experiment", name);
    writer_->key("rows").begin_array();
    rows_open_ = true;
}

BenchReport::~BenchReport() {
    // A bench that exits without finish() never completed its document:
    // discard the staged temp file so no truncated JSON appears under the
    // final name (the destructor must not throw either way).
    if (!finished_) out_.discard();
}

void BenchReport::write_fields(std::initializer_list<Field> fields) {
    writer_->begin_object();
    for (const Field& field : fields) {
        writer_->key(field.first);
        std::visit([&](const auto& value) { writer_->value(value); }, field.second.v);
    }
    writer_->end_object();
}

void BenchReport::close_rows() {
    if (rows_open_) {
        writer_->end_array();
        rows_open_ = false;
    }
}

void BenchReport::add_row(std::initializer_list<Field> fields) {
    if (!active()) return;
    MEMOPT_ASSERT_MSG(rows_open_, "BenchReport::add_row after summary()/finish()");
    write_fields(fields);
}

void BenchReport::summary(std::initializer_list<Field> fields) {
    if (!active()) return;
    close_rows();
    writer_->key("summary");
    write_fields(fields);
}

void BenchReport::finish(bool shape_ok, const std::string& message, std::FILE* verdict) {
    std::fprintf(verdict, "SHAPE %s: %s\n", shape_ok ? "ok" : "WARN", message.c_str());
    if (!active() || finished_) return;
    close_rows();
    writer_->key("shape").begin_object();
    writer_->member("ok", shape_ok);
    writer_->member("message", message);
    writer_->end_object();
    writer_->key("metrics");
    MetricsRegistry::instance().snapshot().to_json(*writer_);
    writer_->end_object();
    MEMOPT_ASSERT_MSG(writer_->complete(), "BenchReport: unbalanced JSON document");
    out_ << '\n';
    require(out_.commit(), "MEMOPT_JSON_DIR sink: failed writing '" + path_ + "'");
    std::fprintf(verdict, "(figure data -> %s)\n", path_.c_str());
    finished_ = true;
}

}  // namespace memopt::bench
