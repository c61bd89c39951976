#include "core/study.hpp"

#include <cstring>
#include <optional>
#include <sstream>

#include "support/assert.hpp"
#include "support/durable/cancel.hpp"
#include "support/durable/checkpoint.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/stats.hpp"
#include "trace/source.hpp"

namespace memopt {

double StudyReport::compression_savings_pct() const {
    const double base = compression_baseline.energy.component("main_memory");
    if (base == 0.0) return 0.0;
    const double opt =
        compression.energy.component("main_memory") + compression.energy.component("codec");
    return percent_savings(base, opt);
}

StudyReport study_trace(const std::string& name, const MemTrace& data_trace,
                        std::span<const std::uint8_t> image, std::uint64_t image_base,
                        std::span<const std::uint32_t> fetch_stream,
                        const StudyParams& params) {
    require(!data_trace.empty(), "study_trace: empty data trace");
    StudyReport report;
    report.name = name;

    // Every replay below resets the source first, so one cursor serves all.
    MaterializedSource source(data_trace);
    const MemoryOptimizationFlow flow(params.flow);
    report.memory = flow.compare(source, params.cluster_method);

    const DiffCodec codec;
    report.compression_baseline =
        CompressedMemorySim(params.platform.config, nullptr).run(source, image, image_base);
    report.compression =
        CompressedMemorySim(params.platform.config, &codec).run(source, image, image_base);

    if (!fetch_stream.empty())
        report.encoding = search_transform(fetch_stream, params.encoding);
    return report;
}

StudyReport study_kernel(const Kernel& kernel, const StudyParams& params) {
    CpuConfig config;
    config.record_fetch_stream = true;
    const AssembledProgram program = assemble(kernel.source);
    const RunResult run = Cpu(config).run(program);
    return study_trace(kernel.name, run.data_trace, program.data, program.data_base,
                       run.fetch_stream, params);
}

void to_json(JsonWriter& w, const StudyReport& report) {
    w.begin_object();
    w.member("name", report.name);
    w.key("memory");
    to_json(w, report.memory);
    w.key("compression_baseline");
    to_json(w, report.compression_baseline);
    w.key("compression");
    to_json(w, report.compression);
    w.key("encoding");
    to_json(w, report.encoding);
    w.member("clustering_savings_pct", report.clustering_savings_pct());
    w.member("compression_savings_pct", report.compression_savings_pct());
    w.member("encoding_reduction_pct", report.encoding_reduction_pct());
    w.end_object();
}

std::vector<StudyReport> study_suite(std::span<const Kernel> kernels,
                                     const StudyParams& params, std::size_t jobs) {
    return parallel_map(
        kernels, [&](const Kernel& kernel) { return study_kernel(kernel, params); },
        jobs);
}

// ---------------------------------------------------------------------------
// Checkpoint/resume

namespace {

void append_u32(std::string& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void append_u64(std::string& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void append_f64(std::string& out, double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    append_u64(out, bits);
}

struct RecordCursor {
    std::string_view record;
    std::size_t at = 0;

    std::uint32_t u32() {
        require(at + 4 <= record.size(), "study checkpoint: truncated record");
        std::uint32_t v = 0;
        for (int i = 3; i >= 0; --i)
            v = (v << 8) | static_cast<std::uint8_t>(record[at + static_cast<std::size_t>(i)]);
        at += 4;
        return v;
    }
    std::uint64_t u64() {
        require(at + 8 <= record.size(), "study checkpoint: truncated record");
        std::uint64_t v = 0;
        for (int i = 7; i >= 0; --i)
            v = (v << 8) | static_cast<std::uint8_t>(record[at + static_cast<std::size_t>(i)]);
        at += 8;
        return v;
    }
    double f64() {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }
    std::string str() {
        const std::uint32_t len = u32();
        require(at + len <= record.size(), "study checkpoint: truncated record string");
        std::string s(record.substr(at, len));
        at += len;
        return s;
    }
};

std::uint64_t suite_config_hash(std::span<const Kernel> kernels, std::string_view tag) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::string_view text) {
        for (const char c : text) {
            h ^= static_cast<std::uint8_t>(c);
            h *= 0x100000001b3ULL;
        }
        h ^= 0xFF;  // field separator
        h *= 0x100000001b3ULL;
    };
    mix(tag);
    for (const Kernel& kernel : kernels) mix(kernel.name);
    return h;
}

}  // namespace

StudyOutcome to_outcome(const StudyReport& report) {
    StudyOutcome out;
    out.name = report.name;
    std::ostringstream os;
    JsonWriter w(os);
    to_json(w, report);
    out.json = os.str();
    out.clustering_savings_pct = report.clustering_savings_pct();
    out.compression_savings_pct = report.compression_savings_pct();
    out.encoding_reduction_pct = report.encoding_reduction_pct();
    return out;
}

std::string encode_study_record(const StudyOutcome& outcome) {
    std::string out;
    out.reserve(28 + outcome.name.size() + outcome.json.size());
    append_u32(out, static_cast<std::uint32_t>(outcome.name.size()));
    out += outcome.name;
    append_f64(out, outcome.clustering_savings_pct);
    append_f64(out, outcome.compression_savings_pct);
    append_f64(out, outcome.encoding_reduction_pct);
    append_u32(out, static_cast<std::uint32_t>(outcome.json.size()));
    out += outcome.json;
    return out;
}

StudyOutcome decode_study_record(std::string_view record) {
    RecordCursor cursor{record};
    StudyOutcome out;
    out.name = cursor.str();
    out.clustering_savings_pct = cursor.f64();
    out.compression_savings_pct = cursor.f64();
    out.encoding_reduction_pct = cursor.f64();
    out.json = cursor.str();
    require(cursor.at == record.size(), "study checkpoint: trailing bytes in record");
    require(!out.json.empty(), "study checkpoint: empty report in record");
    return out;
}

StudySuiteOutcome study_suite_checkpointed(std::span<const Kernel> kernels,
                                           const StudyParams& params, std::size_t jobs,
                                           const StudyCheckpointOptions& ckpt) {
    const std::uint64_t config_hash = suite_config_hash(kernels, ckpt.config_tag);

    StudySuiteOutcome out;
    out.total = kernels.size();
    if (ckpt.resume && !ckpt.path.empty()) {
        if (const std::optional<Checkpoint> loaded =
                load_checkpoint_for_resume(ckpt.path, kCkptEngineStudy, config_hash)) {
            out.outcomes.reserve(loaded->records.size());
            for (const std::string& record : loaded->records)
                out.outcomes.push_back(decode_study_record(record));
            require(out.outcomes.size() <= kernels.size(),
                    "study checkpoint: more records than kernels");
        }
    }

    const auto snapshot = [&] {
        if (ckpt.path.empty()) return;
        Checkpoint snap;
        snap.engine = kCkptEngineStudy;
        snap.config_hash = config_hash;
        snap.records.reserve(out.outcomes.size());
        for (const StudyOutcome& outcome : out.outcomes)
            snap.records.push_back(encode_study_record(outcome));
        save_checkpoint(ckpt.path, snap);
    };

    const std::size_t every = ckpt.every == 0 ? 1 : ckpt.every;
    std::size_t new_done = 0;
    CancellationToken& token = CancellationToken::global();
    while (out.outcomes.size() < kernels.size()) {
        if (token.triggered()) {
            out.stop_reason = token.reason();
            break;
        }
        if (ckpt.max_kernels_this_run != 0 && new_done >= ckpt.max_kernels_this_run) {
            out.stop_reason = "kernel budget for this run exhausted";
            break;
        }
        const std::size_t begin = out.outcomes.size();
        std::size_t batch = std::min(every, kernels.size() - begin);
        if (ckpt.max_kernels_this_run != 0)
            batch = std::min(batch, ckpt.max_kernels_this_run - new_done);
        std::vector<StudyOutcome> finished;
        try {
            finished = parallel_map(
                kernels.subspan(begin, batch),
                [&](const Kernel& kernel) { return to_outcome(study_kernel(kernel, params)); },
                jobs);
        } catch (const CancelledError&) {
            out.stop_reason = token.reason();
            break;
        }
        out.outcomes.insert(out.outcomes.end(), std::make_move_iterator(finished.begin()),
                            std::make_move_iterator(finished.end()));
        new_done += batch;
        snapshot();
    }

    if (out.outcomes.size() == kernels.size()) {
        out.completed = true;
    } else {
        if (out.stop_reason.empty()) out.stop_reason = "stopped";
        snapshot();
    }
    return out;
}

}  // namespace memopt
