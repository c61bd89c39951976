// One-call kernel study: every optimization of the toolkit applied to one
// program, with a combined report.
//
// This is the "what can memopt do for my application?" entry point: run a
// kernel (or adopt an external trace + fetch stream), and get back the
// 1B-1 partition/clustering comparison, the 1B-2 compression result on a
// platform model, and the 1B-3 bus-transform result, each with its energy
// numbers. A study has one configuration: the default flow with at most 4
// banks and frequency clustering, the VLIW platform, and the default
// 16-gate transform search.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cache/memsys.hpp"
#include "compress/diff_codec.hpp"
#include "core/flow.hpp"
#include "encoding/search.hpp"
#include "sim/kernels.hpp"
#include "support/durable/checkpoint.hpp"

namespace memopt {

/// Combined results of a study.
struct StudyReport {
    std::string name;

    // 1B-1: data-memory partitioning and clustering.
    FlowComparison memory;

    // 1B-2: write-back compression (baseline vs diff codec).
    CompressedMemReport compression_baseline;
    CompressedMemReport compression;

    // 1B-3: instruction-bus transformation.
    TransformSearchResult encoding;

    /// Clustering savings vs plain partitioning [%] (the E1 metric).
    double clustering_savings_pct() const { return memory.clustering_savings_pct(); }

    /// Compression savings over the main-memory path [%] (the E4 metric).
    double compression_savings_pct() const;

    /// Bus-transition reduction [%] (the E7 metric).
    double encoding_reduction_pct() const { return 100.0 * encoding.reduction(); }
};

/// Serialize the full study: memory comparison, compression baseline vs
/// codec, encoding search, and the three headline savings percentages.
void to_json(JsonWriter& w, const StudyReport& report);

/// Run the full study on a bundled kernel.
StudyReport study_kernel(const Kernel& kernel);

/// Run the full study on externally supplied artifacts: a value-carrying
/// data trace, the initial data image (may be empty), and the instruction
/// fetch stream (may be empty: the encoding section is then skipped and
/// left value-initialized).
StudyReport study_trace(const std::string& name, const MemTrace& data_trace,
                        std::span<const std::uint8_t> image, std::uint64_t image_base,
                        std::span<const std::uint32_t> fetch_stream);

// ---------------------------------------------------------------------------
// Suites and checkpoint/resume
//
// A suite's unit of durable progress is one kernel's finished study. The
// checkpoint record stores the kernel's name, its fully rendered results
// JSON (deterministic JsonWriter output at root depth), and the three
// headline percentages — enough for the CLI to splice every kernel into
// the envelope byte-identically via JsonWriter::raw_fragment, resumed ones
// without re-running them.

/// One kernel's durable study outcome (checkpoint record payload).
struct StudyOutcome {
    std::string name;
    std::string json;  ///< rendered StudyReport object (root depth, indent 2)
    double clustering_savings_pct = 0.0;
    double compression_savings_pct = 0.0;
    double encoding_reduction_pct = 0.0;
};

/// Render a finished report into its durable outcome form.
StudyOutcome to_outcome(const StudyReport& report);

std::string encode_study_record(const StudyOutcome& outcome);
/// Throws memopt::Error on a malformed record.
StudyOutcome decode_study_record(std::string_view record);

struct StudySuiteOutcome {
    std::vector<StudyOutcome> outcomes;  ///< completed prefix, kernel order
    std::size_t total = 0;
    bool completed = false;
    std::string stop_reason;  ///< why the run stopped early; empty when completed
};

/// Study every kernel of `kernels` concurrently on the parallel runtime
/// (support/parallel.hpp; `jobs == 0` means default_jobs()). Outcomes keep
/// input order and are byte-identical to a serial loop of study_kernel()
/// calls at any job count and after any resume.
///
/// The kernels run on run_checkpointed() (engine kCkptEngineStudy). The
/// config hash covers the study's bank count and the kernel-name sequence;
/// resume refuses a mismatch. With `checkpoint.path` set, the finished
/// prefix is snapshotted every `checkpoint.every` kernels. A
/// deadline, signal or exhausted `max_units_this_run` returns completed ==
/// false with the prefix intact instead of throwing.
StudySuiteOutcome study_suite(std::span<const Kernel> kernels, std::size_t jobs = 0,
                              const CheckpointOptions& checkpoint = {});

}  // namespace memopt
