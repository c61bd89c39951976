// E12 — throughput microbenchmarks (google-benchmark) for the core
// algorithms: ISS simulation rate, partitioning DP, clustering, the line
// codec, the gate search, the cache model, and the parallel E1 sweep.
// These guard the engineering claim that the whole evaluation runs at
// interactive speed on one core — and scales with MEMOPT_JOBS beyond it.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cache/cache.hpp"
#include "cache/mcache.hpp"
#include "cluster/affinity_cluster.hpp"
#include "cluster/frequency.hpp"
#include "trace/affinity.hpp"
#include "compress/diff_codec.hpp"
#include "core/flow.hpp"
#include "encoding/search.hpp"
#include "partition/hybrid.hpp"
#include "partition/solver.hpp"
#include "sim/kernels.hpp"
#include "support/parallel.hpp"
#include "tools/lint/lint.hpp"
#include "trace/source.hpp"
#include "trace/stream_file.hpp"
#include "trace/synthetic.hpp"

namespace {

using namespace memopt;

void BM_IssSimulation(benchmark::State& state) {
    const auto prog = assemble(kernel_by_name("fir").source);
    CpuConfig cfg;
    cfg.record_data_trace = false;
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        const RunResult r = Cpu(cfg).run(prog);
        instructions += r.instructions;
        benchmark::DoNotOptimize(r.output);
    }
    state.counters["instr/s"] = benchmark::Counter(static_cast<double>(instructions),
                                                   benchmark::Counter::kIsRate);
}
BENCHMARK(BM_IssSimulation);

void BM_PartitionDp(benchmark::State& state) {
    const auto blocks = static_cast<std::size_t>(state.range(0));
    const MemTrace trace = materialize_synthetic({
        .kind = SyntheticKind::Hotspot,
        .base = {.span_bytes = blocks * 256, .num_accesses = 50000, .write_fraction = 0.3,
                 .seed = 1},
        .num_hotspots = 8,
        .hotspot_bytes = 1024,
        .hot_fraction = 0.9,
    });
    MaterializedSource source(trace);
    const BlockProfile profile = BlockProfile::from_source(source, 256);
    for (auto _ : state) {
        const auto sol = solve_partition_optimal(profile, {8}, {});
        benchmark::DoNotOptimize(sol.energy.total());
    }
}
BENCHMARK(BM_PartitionDp)->Arg(128)->Arg(512)->Arg(1024)->Arg(4096);

void BM_PartitionGreedy(benchmark::State& state) {
    const auto blocks = static_cast<std::size_t>(state.range(0));
    const MemTrace trace = materialize_synthetic({
        .kind = SyntheticKind::Hotspot,
        .base = {.span_bytes = blocks * 256, .num_accesses = 50000, .write_fraction = 0.3,
                 .seed = 1},
        .num_hotspots = 8,
        .hotspot_bytes = 1024,
        .hot_fraction = 0.9,
    });
    MaterializedSource source(trace);
    const BlockProfile profile = BlockProfile::from_source(source, 256);
    for (auto _ : state) {
        const auto sol = solve_partition_greedy(profile, {8}, {});
        benchmark::DoNotOptimize(sol.energy.total());
    }
}
BENCHMARK(BM_PartitionGreedy)->Arg(1024)->Arg(4096);

void BM_FrequencyClustering(benchmark::State& state) {
    const MemTrace trace = materialize_synthetic(
        {.kind = SyntheticKind::Uniform,
         .base = {.span_bytes = 256 * 1024, .num_accesses = 100000, .write_fraction = 0.3,
                  .seed = 2}});
    MaterializedSource source(trace);
    const BlockProfile profile = BlockProfile::from_source(source, 256);
    for (auto _ : state) {
        const AddressMap map = frequency_clustering(profile);
        benchmark::DoNotOptimize(map.num_blocks());
    }
}
BENCHMARK(BM_FrequencyClustering);

void BM_DiffCodecEncode(benchmark::State& state) {
    const DiffCodec codec;
    const auto words = smooth_word_stream(8, 0.8, 200, 3);
    const auto line = words_to_line(words);
    std::uint64_t bytes = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(codec.compressed_bits(line));
        bytes += line.size();
    }
    state.counters["bytes/s"] =
        benchmark::Counter(static_cast<double>(bytes), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DiffCodecEncode);

void BM_CacheSimulation(benchmark::State& state) {
    const MemTrace trace = materialize_synthetic(
        {.kind = SyntheticKind::Uniform,
         .base = {.span_bytes = 64 * 1024, .num_accesses = 100000, .write_fraction = 0.3,
                  .seed = 4}});
    const auto addrs = trace.addrs();
    const auto kinds = trace.kinds();
    std::uint64_t accesses = 0;
    for (auto _ : state) {
        CacheModel cache(CacheConfig{});
        for (std::size_t i = 0; i < trace.size(); ++i) cache.access(addrs[i], kinds[i]);
        accesses += trace.size();
        benchmark::DoNotOptimize(cache.stats().misses());
    }
    state.counters["accesses/s"] =
        benchmark::Counter(static_cast<double>(accesses), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CacheSimulation);

void BM_CoherentReplay(benchmark::State& state) {
    // The coherent multi-core machine end to end: private L1s, 4 shared
    // L2 banks, MSI directory, round-robin replay of a producer-consumer
    // workload (heavy sharing, so the protocol paths are on the hot path).
    // Arg is the core count; at 64 the directory bound is 16Ki lines.
    const auto cores = static_cast<unsigned>(state.range(0));
    SyntheticSpec spec;
    spec.kind = SyntheticKind::ProducerConsumer;
    spec.base.span_bytes = 64 * 1024;
    spec.base.num_accesses = 25000;
    spec.base.seed = 7;
    spec.cores = cores;
    spec.shared_bytes = 4096;
    spec.shared_fraction = 0.5;
    MultiCoreConfig config;
    config.cores = cores;
    std::uint64_t accesses = 0;
    for (auto _ : state) {
        MultiCoreCacheSystem system(config);
        std::vector<std::unique_ptr<TraceSource>> sources;
        for (const SyntheticSpec& core_spec : per_core_specs(spec))
            sources.push_back(std::make_unique<SyntheticSource>(core_spec));
        system.replay(sources);
        accesses += system.l1_totals().accesses();
        benchmark::DoNotOptimize(system.directory().stats().invalidations);
    }
    state.counters["accesses/s"] =
        benchmark::Counter(static_cast<double>(accesses), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CoherentReplay)->Arg(4)->Arg(64);

// The tentpole paths of the trace-pipeline overhaul: single-pass windowed
// affinity over the SoA columns (sharded when the trace is long enough)
// and the heap-driven greedy affinity chain. Arg is the block count, which
// also decides whether the pair accumulator counts in its dense triangle or
// its hash table; 16384 blocks is the size of the perfbench affinity-16k
// workload.
void BM_WindowedAffinity(benchmark::State& state) {
    const auto blocks = static_cast<std::size_t>(state.range(0));
    const MemTrace trace = materialize_synthetic({
        .kind = SyntheticKind::Hotspot,
        .base = {.span_bytes = blocks * 256, .num_accesses = 200000, .write_fraction = 0.3,
                 .seed = 5},
        .num_hotspots = 8,
        .hotspot_bytes = 1024,
        .hot_fraction = 0.9,
    });
    MaterializedSource source(trace);
    const BlockProfile profile = BlockProfile::from_source(source, 256);
    std::uint64_t accesses = 0;
    for (auto _ : state) {
        const AffinityMatrix aff = windowed_affinity(source, profile, 8);
        accesses += trace.size();
        benchmark::DoNotOptimize(aff.total());
    }
    state.counters["accesses/s"] =
        benchmark::Counter(static_cast<double>(accesses), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WindowedAffinity)->Arg(512)->Arg(4096);

// The product's window: FlowParams::affinity_window is 32, and no product
// path counts at window 8. The trace is perfbench's affinity-16k input at
// its tuning seed (16384 blocks of 256 B, 2.5e5 hotspot accesses, 428901
// pairs), so the pair table is in its key-partitioned layout.
void BM_ProductWindowAffinity(benchmark::State& state) {
    const auto blocks = static_cast<std::size_t>(state.range(0));
    const MemTrace trace = materialize_synthetic(parse_synthetic_spec(
        "hotspot,span=" + std::to_string(blocks * 256) +
        ",n=250000,seed=1,hotspots=8,hotspot-bytes=1024,hot-frac=0.9"));
    MaterializedSource source(trace);
    const BlockProfile profile = BlockProfile::from_source(source, 256);
    std::uint64_t accesses = 0;
    for (auto _ : state) {
        const AffinityMatrix aff = windowed_affinity(source, profile, FlowParams{}.affinity_window);
        accesses += trace.size();
        benchmark::DoNotOptimize(aff.total());
    }
    state.counters["accesses/s"] =
        benchmark::Counter(static_cast<double>(accesses), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ProductWindowAffinity)->Arg(16384);

void BM_AffinityClustering(benchmark::State& state) {
    const auto blocks = static_cast<std::size_t>(state.range(0));
    const MemTrace trace = materialize_synthetic({
        .kind = SyntheticKind::Hotspot,
        .base = {.span_bytes = blocks * 256, .num_accesses = 200000, .write_fraction = 0.3,
                 .seed = 5},
        .num_hotspots = 8,
        .hotspot_bytes = 1024,
        .hot_fraction = 0.9,
    });
    MaterializedSource source(trace);
    const BlockProfile profile = BlockProfile::from_source(source, 256);
    const AffinityMatrix affinity = windowed_affinity(source, profile, 8);
    for (auto _ : state) {
        const AddressMap map = affinity_clustering(profile, affinity);
        benchmark::DoNotOptimize(map.num_blocks());
    }
}
BENCHMARK(BM_AffinityClustering)->Arg(512)->Arg(4096)->Arg(16384);

// Streaming-pipeline paths: the chunked replay driver feeding the profile
// builder from a generator source (no materialized trace), and the mmap
// zero-copy container read.
void BM_StreamReplay(benchmark::State& state) {
    const SyntheticSpec spec = parse_synthetic_spec(
        "hotspot,span=1048576,n=400000,seed=5,write=0.3,hotspots=8,"
        "hotspot-bytes=1024,hot-frac=0.9");
    std::uint64_t accesses = 0;
    for (auto _ : state) {
        SyntheticSource source(spec);
        const BlockProfile profile = BlockProfile::from_source(source, 256);
        accesses += profile.total_accesses();
        benchmark::DoNotOptimize(profile.total_accesses());
    }
    state.counters["accesses/s"] =
        benchmark::Counter(static_cast<double>(accesses), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_StreamReplay);

void BM_MmapRead(benchmark::State& state) {
    const std::string path =
        "/tmp/memopt_bm_mmap_" + std::to_string(::getpid()) + ".mtsc";
    {
        SyntheticSource source(parse_synthetic_spec(
            "stride,span=1048576,n=400000,seed=7,write=0.3,stride=16"));
        write_trace_stream(path, source);
    }
    std::uint64_t accesses = 0;
    for (auto _ : state) {
        MmapBinarySource source(path);
        TraceChunk chunk;
        std::uint64_t sum = 0;
        while (source.next(chunk)) {
            for (std::size_t i = 0; i < chunk.size(); ++i) sum += chunk.addrs[i];
        }
        accesses += source.size();
        benchmark::DoNotOptimize(sum);
    }
    std::remove(path.c_str());
    state.counters["accesses/s"] =
        benchmark::Counter(static_cast<double>(accesses), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MmapRead);

// The same container drained through next_batch() in batches of one chunk
// per default job: a fresh source per iteration, so every block runs its
// first-delivery checks on the pool.
void BM_MmapReadBatch(benchmark::State& state) {
    const std::string path =
        "/tmp/memopt_bm_mmap_batch_" + std::to_string(::getpid()) + ".mtsc";
    {
        SyntheticSource source(parse_synthetic_spec(
            "stride,span=1048576,n=400000,seed=7,write=0.3,stride=16"));
        write_trace_stream(path, source);
    }
    std::uint64_t accesses = 0;
    for (auto _ : state) {
        MmapBinarySource source(path);
        std::vector<TraceChunk> batch;
        std::uint64_t sum = 0;
        while (source.next_batch(batch, default_jobs())) {
            for (const TraceChunk& chunk : batch)
                for (std::size_t i = 0; i < chunk.size(); ++i) sum += chunk.addrs[i];
        }
        accesses += source.size();
        benchmark::DoNotOptimize(sum);
    }
    std::remove(path.c_str());
    state.counters["accesses/s"] =
        benchmark::Counter(static_cast<double>(accesses), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MmapReadBatch);

// The hybrid flow's bank-activity replay: per access, a logical block ->
// bank table lookup and the bank's lazy gate settlement.
void BM_ReplayBankActivity(benchmark::State& state) {
    const MemTrace trace = materialize_synthetic(parse_synthetic_spec(
        "hotspot,span=1048576,n=1000000,seed=5,write=0.3,hotspots=8,"
        "hotspot-bytes=1024,hot-frac=0.9"));
    MaterializedSource source(trace);
    const BlockProfile profile = BlockProfile::from_source(source, 256);
    const AddressMap map = frequency_clustering(profile);
    std::vector<std::size_t> splits;
    for (std::size_t j = 1; j < 8; ++j) splits.push_back(profile.num_blocks() * j / 8);
    const auto arch = MemoryArchitecture::from_splits(256, profile.num_blocks(), splits);
    const HybridGatingParams gating;
    std::uint64_t accesses = 0;
    for (auto _ : state) {
        const std::vector<BankActivity> activity =
            replay_bank_activity(arch, map, source, gating);
        benchmark::DoNotOptimize(activity.data());
        accesses += trace.size();
    }
    state.counters["accesses/s"] =
        benchmark::Counter(static_cast<double>(accesses), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ReplayBankActivity);

void BM_TransformSearch(benchmark::State& state) {
    CpuConfig cfg;
    cfg.record_data_trace = false;
    cfg.record_fetch_stream = true;
    const RunResult run = Cpu(cfg).run(assemble(kernel_by_name("qsort").source));
    for (auto _ : state) {
        const auto r = search_transform(run.fetch_stream,
                                        {.max_gates = static_cast<std::size_t>(state.range(0))});
        benchmark::DoNotOptimize(r.encoded_transitions);
    }
}
BENCHMARK(BM_TransformSearch)->Arg(4)->Arg(16);

void BM_FullFlow(benchmark::State& state) {
    const RunResult run = Cpu(CpuConfig{}).run(assemble(kernel_by_name("histogram").source));
    FlowParams fp;
    fp.constraints.max_banks = 4;
    const MemoryOptimizationFlow flow(fp);
    MaterializedSource source(run.data_trace);
    for (auto _ : state) {
        const FlowComparison cmp = flow.compare(source, ClusterMethod::Frequency);
        benchmark::DoNotOptimize(cmp.clustering_savings_pct());
    }
}
BENCHMARK(BM_FullFlow);

// The E1 clustering sweep (both methods over the whole suite) at 1 and N
// jobs: the wall-clock ratio between the two arg rows is the speedup the
// parallel execution layer delivers on this machine. Workloads come from
// the shared repository, so the suite is simulated once per process no
// matter how many benchmark repetitions run.
void BM_E1ClusteringSweep(benchmark::State& state) {
    const auto runs = memopt::bench::run_suite();
    std::vector<const MemTrace*> traces;
    traces.reserve(runs.size());
    for (const auto& run : runs) traces.push_back(&run->result.data_trace);
    FlowParams fp;
    fp.block_size = 256;
    fp.constraints.max_banks = 4;
    const MemoryOptimizationFlow flow(fp);
    const auto jobs = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        const auto freq = flow.compare_all(traces, ClusterMethod::Frequency, jobs);
        const auto aff = flow.compare_all(traces, ClusterMethod::Affinity, jobs);
        benchmark::DoNotOptimize(freq.data());
        benchmark::DoNotOptimize(aff.data());
    }
    state.counters["jobs"] = static_cast<double>(jobs);
}
BENCHMARK(BM_E1ClusteringSweep)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The two-pass linter over the real src/ and tools/ trees (the lint engine
// itself included): every iteration tokenizes and indexes every file, then
// runs the global pass. MEMOPT_LINT_SCAN_ROOT is the source tree (a
// compile definition — the bench binary can run from anywhere).
void BM_LintFullScan(benchmark::State& state) {
    lint::LintOptions options;
    options.root = MEMOPT_LINT_SCAN_ROOT;
    options.paths = {"src", "tools"};
    for (auto _ : state) {
        const lint::LintReport report = run_lint(options);
        benchmark::DoNotOptimize(report.findings.size());
    }
}
BENCHMARK(BM_LintFullScan)->Unit(benchmark::kMillisecond);

/// Display reporter that forwards every call to the library's default
/// display reporter (the console table, or the format --benchmark_format
/// selects) and also collects per-benchmark timings so the run can be
/// re-emitted in the repo-wide "memopt.bench.v1" schema. Each benchmark
/// gives one row under its own name: its median aggregate when
/// --benchmark_repetitions runs it more than once (whether or not the
/// repetitions are reported too), else its one run. Times are normalized
/// to nanoseconds per iteration regardless of each benchmark's display
/// unit, which is what scripts/check_perf.py compares.
class CollectingReporter : public benchmark::BenchmarkReporter {
public:
    struct Row {
        std::string name;
        double real_ns;
        double cpu_ns;
        std::uint64_t iterations;
    };
    std::vector<Row> rows;

    bool ReportContext(const Context& context) override {
        return display_->ReportContext(context);
    }

    void ReportRuns(const std::vector<Run>& runs) override {
        for (const Run& run : runs) {
            const bool wanted = run.repetitions > 1
                                    ? run.run_type == Run::RT_Aggregate &&
                                          run.aggregate_name == "median"
                                    : run.run_type == Run::RT_Iteration;
            if (!wanted || run.error_occurred) continue;
            // An aggregate's accumulated times are rescaled so that this
            // quotient is its statistic per iteration, as for a single run;
            // its iteration count is the number of repetitions.
            const auto iters = static_cast<double>(run.iterations);
            rows.push_back(Row{run.run_name.str(),
                               run.real_accumulated_time / iters * 1e9,
                               run.cpu_accumulated_time / iters * 1e9,
                               static_cast<std::uint64_t>(run.iterations)});
        }
        display_->ReportRuns(runs);
    }

    void Finalize() override { display_->Finalize(); }

private:
    /// Created once per process and owned by the library: never deleted.
    benchmark::BenchmarkReporter* display_ = benchmark::CreateDefaultDisplayReporter();
};

}  // namespace

// Custom entry point (instead of benchmark_main) so the run can also emit
// machine-readable results: with MEMOPT_JSON_DIR set, the collected rows
// are written to <dir>/BENCH_perf.json as a memopt.bench.v1 document — the
// same schema every E-bench emits — which scripts/check_perf.py diffs
// against bench/baselines/perf_baseline.json in the perf-regression CI job.
int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    CollectingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    memopt::bench::BenchReport report("BENCH_perf");
    for (const CollectingReporter::Row& row : reporter.rows) {
        report.add_row({{"benchmark", row.name},
                        {"real_time_ns", row.real_ns},
                        {"cpu_time_ns", row.cpu_ns},
                        {"iterations", row.iterations}});
    }
    report.summary({{"benchmarks", static_cast<std::uint64_t>(reporter.rows.size())}});
    // The verdict goes to stderr: stdout holds the display format, which
    // --benchmark_format=json makes a JSON document.
    report.finish(!reporter.rows.empty(),
                  reporter.rows.empty() ? "no benchmark results collected"
                                        : "per-benchmark timings collected",
                  stderr);
    return reporter.rows.empty() ? 1 : 0;
}
