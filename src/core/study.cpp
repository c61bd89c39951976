#include "core/study.hpp"

#include <sstream>

#include "cache/platform.hpp"
#include "support/assert.hpp"
#include "support/bytes.hpp"
#include "support/json.hpp"
#include "support/stats.hpp"
#include "trace/source.hpp"

namespace memopt {

namespace {
constexpr std::size_t kStudyBanks = 4;  // bank budget of a study's partitions
}  // namespace

double StudyReport::compression_savings_pct() const {
    const double base = compression_baseline.energy.component("main_memory");
    if (base == 0.0) return 0.0;
    const double opt =
        compression.energy.component("main_memory") + compression.energy.component("codec");
    return percent_savings(base, opt);
}

StudyReport study_trace(const std::string& name, const MemTrace& data_trace,
                        std::span<const std::uint8_t> image, std::uint64_t image_base,
                        std::span<const std::uint32_t> fetch_stream) {
    require(!data_trace.empty(), "study_trace: empty data trace");
    StudyReport report;
    report.name = name;

    // Every replay below resets the source first, so one cursor serves all.
    MaterializedSource source(data_trace);
    FlowParams flow_params;
    flow_params.constraints.max_banks = kStudyBanks;
    report.memory = MemoryOptimizationFlow(flow_params).compare(source, ClusterMethod::Frequency);

    const DiffCodec codec;
    const CompressedMemConfig platform = vliw_platform().config;
    report.compression_baseline =
        CompressedMemorySim(platform, nullptr).run(source, image, image_base);
    report.compression = CompressedMemorySim(platform, &codec).run(source, image, image_base);

    if (!fetch_stream.empty()) report.encoding = search_transform(fetch_stream);
    return report;
}

StudyReport study_kernel(const Kernel& kernel) {
    CpuConfig config;
    config.record_fetch_stream = true;
    const AssembledProgram program = assemble(kernel.source);
    const RunResult run = Cpu(config).run(program);
    return study_trace(kernel.name, run.data_trace, program.data, program.data_base,
                       run.fetch_stream);
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

namespace {

/// Fingerprint of the suite: the result-shaping bank count, then every
/// kernel name, each field followed by a 0xFF separator byte.
std::uint64_t suite_config_hash(std::span<const Kernel> kernels) {
    Fnv1a64 hash;
    hash.bytes("banks=" + std::to_string(kStudyBanks)).byte(0xFF);
    for (const Kernel& kernel : kernels) hash.bytes(kernel.name).byte(0xFF);
    return hash.value();
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
    return RecordWriter()
        .str(outcome.name)
        .f64(outcome.clustering_savings_pct)
        .f64(outcome.compression_savings_pct)
        .f64(outcome.encoding_reduction_pct)
        .str(outcome.json)
        .take();
}

StudyOutcome decode_study_record(std::string_view record) {
    RecordReader in(record, "study checkpoint");
    StudyOutcome out;
    out.name = in.str();
    out.clustering_savings_pct = in.f64();
    out.compression_savings_pct = in.f64();
    out.encoding_reduction_pct = in.f64();
    out.json = in.str();
    in.finish();
    require(!out.json.empty(), "study checkpoint: empty report in record");
    return out;
}

StudySuiteOutcome study_suite(std::span<const Kernel> kernels, std::size_t jobs,
                              const CheckpointOptions& checkpoint) {
    const CheckpointedRun run = run_checkpointed(
        kCkptEngineStudy, suite_config_hash(kernels), kernels.size(),
        [&](std::size_t i) { return encode_study_record(to_outcome(study_kernel(kernels[i]))); },
        checkpoint, jobs);

    StudySuiteOutcome out;
    out.outcomes.reserve(run.records.size());
    for (const std::string& record : run.records)
        out.outcomes.push_back(decode_study_record(record));
    out.total = kernels.size();
    out.completed = run.completed;
    out.stop_reason = run.stop_reason;
    return out;
}

}  // namespace memopt
