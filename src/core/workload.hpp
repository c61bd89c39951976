// Shared workload repository: each bundled kernel is assembled and
// simulated at most once per process, and every consumer — benches,
// examples, batch studies — shares the same immutable artifacts.
//
// The twelve E-benches used to carry private `run_suite` copies that
// re-simulated the entire suite per binary; the repository replaces them
// with one lazy, thread-safe cache. Concurrent requests for the same
// kernel deduplicate onto a single simulation (waiters block on the
// builder's future), and suite() fans the first-touch simulations out over
// the parallel runtime (support/parallel.hpp).
//
// Artifacts are cached per (kernel, fetch-stream) variant; a request
// without the fetch stream is satisfied from a cached with-fetch artifact
// (a strict superset), so a process that only ever asks one way simulates
// each kernel exactly once — simulation_count() lets tests certify that.
#pragma once

#include <atomic>
#include <cstddef>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "isa/assembler.hpp"
#include "sim/cpu.hpp"
#include "support/thread_safety.hpp"

namespace memopt {

class TraceSource;

/// A kernel together with its simulation artifacts.
struct KernelRun {
    std::string name;
    AssembledProgram program;
    RunResult result;
};

/// Shared immutable simulation artifact. Repository entries live for the
/// process lifetime, so holding the pointer (or references into it) is
/// always safe.
using KernelRunPtr = std::shared_ptr<const KernelRun>;

/// Lazy, thread-safe cache of kernel simulation artifacts.
class WorkloadRepository {
public:
    WorkloadRepository() = default;

    WorkloadRepository(const WorkloadRepository&) = delete;
    WorkloadRepository& operator=(const WorkloadRepository&) = delete;

    /// The process-wide repository (what benches and examples share).
    static WorkloadRepository& instance();

    /// Artifact for one bundled kernel, simulated on first request. With
    /// `fetch` set the artifact also carries the instruction fetch stream.
    /// Throws memopt::Error for unknown kernel names.
    KernelRunPtr run(const std::string& kernel_name, bool fetch = false);

    /// Artifacts for the whole bundled suite, in canonical suite order.
    /// First-touch simulations run concurrently (jobs 0 = default_jobs()).
    std::vector<KernelRunPtr> suite(bool fetch = false, std::size_t jobs = 0);

    /// Open a chunked trace stream for a source spec (the CLI's trace
    /// syntax). Resolution order:
    ///
    ///   "synthetic:<kind>[,k=v]..."  on-the-fly generator, never materialized
    ///   "*.mtsc"                     memory-mapped stream container
    ///   contains '.' or '/'          text trace file, materialized
    ///                                (load_trace; a retired "*.mtrc" path
    ///                                is rejected)
    ///   anything else                bundled kernel (cached artifact; the
    ///                                source aliases it, no trace copy)
    ///
    /// `chunk_accesses == 0` picks the default chunk size; the mmap reader
    /// always delivers the container's own blocks. Throws memopt::Error for
    /// unknown kernels or unreadable/corrupt files.
    std::unique_ptr<TraceSource> open_trace_source(const std::string& spec,
                                                   std::size_t chunk_accesses = 0);

    /// Open one trace stream per core for a multi-core replay. The spec
    /// resolves as in open_trace_source. Synthetic specs fan out via
    /// per_core_specs (per-core seed remix + core_id, with `cores`
    /// overriding any cores= key in the spec); every other spec kind opens
    /// `cores` independent streams over the same trace, so all cores replay
    /// identical access sequences (a worst-case sharing workload): one
    /// reader per core for an .mtsc, and for a text file or kernel one
    /// MaterializedSource per core over a single resident trace (the file
    /// is parsed once).
    std::vector<std::unique_ptr<TraceSource>> open_core_trace_sources(
        const std::string& spec, unsigned cores, std::size_t chunk_accesses = 0);

    /// Number of CPU simulations performed so far — the "suite simulated
    /// exactly once" certificate.
    std::size_t simulation_count() const noexcept {
        return simulations_.load(std::memory_order_relaxed);
    }

private:
    using Key = std::pair<std::string, bool>;  ///< (kernel name, fetch variant)

    mutable Mutex mutex_;
    std::map<Key, std::shared_future<KernelRunPtr>> cache_ MEMOPT_GUARDED_BY(mutex_);
    std::atomic<std::size_t> simulations_{0};
};

}  // namespace memopt
