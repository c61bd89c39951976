#include "core/workload.hpp"

#include <string_view>

#include "sim/kernels.hpp"
#include "support/assert.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "trace/io.hpp"
#include "trace/source.hpp"
#include "trace/stream_file.hpp"
#include "trace/synthetic.hpp"

namespace memopt {

namespace {

constexpr std::string_view kSyntheticPrefix = "synthetic:";

/// What a trace spec names, by the resolution order open_trace_source
/// documents.
enum class SpecKind { Synthetic, Mtsc, TextFile, Kernel };

SpecKind spec_kind(const std::string& spec) {
    if (spec.starts_with(kSyntheticPrefix)) return SpecKind::Synthetic;
    if (spec.ends_with(".mtsc")) return SpecKind::Mtsc;
    if (spec.find_first_of("./") != std::string::npos) return SpecKind::TextFile;
    return SpecKind::Kernel;
}

/// The resident trace of a text-file or kernel spec: the file parsed once,
/// or an alias of the cached kernel artifact (no trace copy).
std::shared_ptr<const MemTrace> resident_trace(WorkloadRepository& repo,
                                               const std::string& spec, SpecKind kind) {
    if (kind == SpecKind::TextFile) return std::make_shared<const MemTrace>(load_trace(spec));
    const KernelRunPtr artifact = repo.run(spec);
    return std::shared_ptr<const MemTrace>(artifact, &artifact->result.data_trace);
}

}  // namespace

WorkloadRepository& WorkloadRepository::instance() {
    static WorkloadRepository repository;
    return repository;
}

KernelRunPtr WorkloadRepository::run(const std::string& kernel_name, bool fetch) {
    const Kernel& kernel = kernel_by_name(kernel_name);  // validate before caching

    std::promise<KernelRunPtr> promise;
    std::shared_future<KernelRunPtr> future;
    bool builder = false;
    {
        MutexLock lock(mutex_);
        if (!fetch) {
            // A with-fetch artifact is a strict superset; reuse it.
            const auto superset = cache_.find(Key{kernel_name, true});
            if (superset != cache_.end()) future = superset->second;
        }
        if (!future.valid()) {
            const auto [it, inserted] = cache_.try_emplace(Key{kernel_name, fetch});
            if (inserted) {
                it->second = promise.get_future().share();
                builder = true;
            }
            future = it->second;
        }
    }

    static MetricCounter& hits = MetricsRegistry::instance().counter("workload.hits");
    static MetricCounter& misses = MetricsRegistry::instance().counter("workload.misses");
    (builder ? misses : hits).add();

    if (builder) {
        // Simulate outside the lock; waiters block on the future, not the
        // cache, so other kernels stay buildable concurrently.
        const ScopedTimer scope(MetricsRegistry::instance().timer("workload.simulate"));
        try {
            auto artifact = std::make_shared<KernelRun>();
            artifact->name = kernel.name;
            artifact->program = assemble(kernel.source);
            CpuConfig config;
            config.record_fetch_stream = fetch;
            artifact->result = Cpu(config).run(artifact->program);
            simulations_.fetch_add(1, std::memory_order_relaxed);
            promise.set_value(std::move(artifact));
        } catch (...) {
            promise.set_exception(std::current_exception());
        }
    }
    return future.get();
}

std::vector<KernelRunPtr> WorkloadRepository::suite(bool fetch, std::size_t jobs) {
    return parallel_map(
        kernel_suite(), [&](const Kernel& kernel) { return run(kernel.name, fetch); },
        jobs);
}

std::unique_ptr<TraceSource> WorkloadRepository::open_trace_source(
    const std::string& spec, std::size_t chunk_accesses) {
    if (chunk_accesses == 0) chunk_accesses = kDefaultTraceChunk;
    const SpecKind kind = spec_kind(spec);
    if (kind == SpecKind::Synthetic)
        return std::make_unique<SyntheticSource>(
            parse_synthetic_spec(spec.substr(kSyntheticPrefix.size())), chunk_accesses);
    if (kind == SpecKind::Mtsc) return std::make_unique<MmapBinarySource>(spec);
    return std::make_unique<MaterializedSource>(resident_trace(*this, spec, kind),
                                                chunk_accesses);
}

std::vector<std::unique_ptr<TraceSource>> WorkloadRepository::open_core_trace_sources(
    const std::string& spec, unsigned cores, std::size_t chunk_accesses) {
    require(cores >= 1 && cores <= 64,
            "open_core_trace_sources: cores must be in [1, 64]");
    if (chunk_accesses == 0) chunk_accesses = kDefaultTraceChunk;
    std::vector<std::unique_ptr<TraceSource>> out;
    out.reserve(cores);
    const SpecKind kind = spec_kind(spec);
    if (kind == SpecKind::Synthetic) {
        SyntheticSpec parsed = parse_synthetic_spec(spec.substr(kSyntheticPrefix.size()));
        parsed.cores = cores;  // the caller's core count wins over a cores= key
        for (const SyntheticSpec& core_spec : per_core_specs(parsed))
            out.push_back(std::make_unique<SyntheticSource>(core_spec, chunk_accesses));
    } else if (kind == SpecKind::Mtsc) {
        for (unsigned c = 0; c < cores; ++c)
            out.push_back(std::make_unique<MmapBinarySource>(spec));
    } else {
        const std::shared_ptr<const MemTrace> trace = resident_trace(*this, spec, kind);
        for (unsigned c = 0; c < cores; ++c)
            out.push_back(std::make_unique<MaterializedSource>(trace, chunk_accesses));
    }
    return out;
}

}  // namespace memopt
