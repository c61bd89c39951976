// Tests for the parallel execution layer: the thread-pool runtime
// (support/parallel), the shared workload repository (core/workload), and
// the determinism guarantee of the batch flow/study/search APIs — outputs
// must be bit-identical at 1 and N jobs.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>

#include "core/flow.hpp"
#include "core/study.hpp"
#include "core/workload.hpp"
#include "encoding/search.hpp"
#include "sim/kernels.hpp"
#include "support/assert.hpp"
#include "support/parallel.hpp"
#include "trace/source.hpp"

namespace memopt {
namespace {

/// RAII guard: force a jobs default for one test, restore afterwards.
struct JobsGuard {
    explicit JobsGuard(std::size_t jobs) { set_default_jobs(jobs); }
    ~JobsGuard() { set_default_jobs(0); }
};

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsAllSubmittedTasks) {
    std::atomic<int> counter{0};
    {
        ThreadPool pool(3);
        EXPECT_EQ(pool.size(), 3u);
        for (int i = 0; i < 100; ++i)
            pool.submit([&counter] { counter.fetch_add(1); });
    }  // destructor drains the queue and joins
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, TasksRunOnWorkerThreads) {
    std::mutex mutex;
    std::set<std::thread::id> ids;
    std::atomic<int> done{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 32; ++i)
            pool.submit([&] {
                {
                    std::lock_guard<std::mutex> lock(mutex);
                    ids.insert(std::this_thread::get_id());
                }
                done.fetch_add(1);
            });
    }
    EXPECT_EQ(done.load(), 32);
    EXPECT_GE(ids.size(), 1u);
    EXPECT_LE(ids.size(), 2u);
    EXPECT_EQ(ids.count(std::this_thread::get_id()), 0u);
}

// -------------------------------------------------------------- parallel_for

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); }, 8);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, JobsOneBypassesThePoolEntirely) {
    const bool pool_before = shared_pool_created();
    std::set<std::thread::id> ids;
    parallel_for(64, [&](std::size_t) { ids.insert(std::this_thread::get_id()); }, 1);
    EXPECT_EQ(ids.size(), 1u);
    EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
    // jobs=1 must not instantiate the shared pool.
    EXPECT_EQ(shared_pool_created(), pool_before);
}

TEST(ParallelFor, EmptyRangeIsANoOp) {
    parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; }, 8);
}

TEST(ParallelFor, PropagatesTheSmallestFailingIndex) {
    const auto thrower = [](std::size_t i) {
        if (i == 42 || i == 137) throw std::runtime_error("boom " + std::to_string(i));
    };
    for (std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
        try {
            parallel_for(256, thrower, jobs);
            FAIL() << "expected an exception at jobs=" << jobs;
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "boom 42") << "jobs=" << jobs;
        }
    }
}

TEST(ParallelFor, NestedRegionsSerializeInsteadOfDeadlocking) {
    std::vector<std::atomic<int>> hits(16 * 16);
    parallel_for(16, [&](std::size_t outer) {
        EXPECT_TRUE(in_parallel_region());
        parallel_for(16, [&](std::size_t inner) {
            hits[outer * 16 + inner].fetch_add(1);
        }, 8);
    }, 4);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// -------------------------------------------------------------- parallel_map

TEST(ParallelMap, PreservesInputOrder) {
    std::vector<int> items(500);
    for (std::size_t i = 0; i < items.size(); ++i) items[i] = static_cast<int>(i);
    const auto squares = parallel_map(items, [](int v) { return v * v; }, 8);
    ASSERT_EQ(squares.size(), items.size());
    for (std::size_t i = 0; i < items.size(); ++i)
        EXPECT_EQ(squares[i], static_cast<int>(i * i));
}

TEST(ParallelMap, ResultTypeNeedsNoDefaultConstructor) {
    struct NoDefault {
        explicit NoDefault(int v) : value(v) {}
        int value;
    };
    const std::vector<int> items{1, 2, 3, 4, 5};
    const auto out = parallel_map(items, [](int v) { return NoDefault(v * 10); }, 4);
    ASSERT_EQ(out.size(), 5u);
    EXPECT_EQ(out[3].value, 40);
}

// -------------------------------------------------------------- default_jobs

TEST(DefaultJobs, OverrideWinsAndClears) {
    set_default_jobs(3);
    EXPECT_EQ(default_jobs(), 3u);
    set_default_jobs(0);
    EXPECT_GE(default_jobs(), 1u);
}

// ------------------------------------------------------- WorkloadRepository

TEST(WorkloadRepository, SimulatesTheSuiteExactlyOnce) {
    WorkloadRepository repo;
    const std::size_t kernels = kernel_suite().size();
    const auto first = repo.suite();
    EXPECT_EQ(first.size(), kernels);
    EXPECT_EQ(repo.simulation_count(), kernels);

    // Repeated suite and individual requests hit the cache.
    const auto second = repo.suite();
    const auto fir = repo.run("fir");
    EXPECT_EQ(repo.simulation_count(), kernels);
    for (std::size_t i = 0; i < kernels; ++i)
        EXPECT_EQ(first[i].get(), second[i].get()) << "artifact not shared at " << i;

    // The individual request hands out the same shared artifact.
    bool found = false;
    for (const auto& run : first) found = found || run.get() == fir.get();
    EXPECT_TRUE(found);
}

TEST(WorkloadRepository, FetchVariantSupersetServesPlainRequests) {
    WorkloadRepository repo;
    const auto with_fetch = repo.run("crc32", /*fetch=*/true);
    EXPECT_FALSE(with_fetch->result.fetch_stream.empty());
    EXPECT_EQ(repo.simulation_count(), 1u);
    // The plain request is satisfied from the with-fetch artifact.
    const auto plain = repo.run("crc32", /*fetch=*/false);
    EXPECT_EQ(plain.get(), with_fetch.get());
    EXPECT_EQ(repo.simulation_count(), 1u);
}

TEST(WorkloadRepository, UnknownKernelThrowsWithoutCaching) {
    WorkloadRepository repo;
    EXPECT_THROW(repo.run("no-such-kernel"), Error);
    EXPECT_EQ(repo.simulation_count(), 0u);
}

TEST(WorkloadRepository, ArtifactsMatchADirectSimulation) {
    WorkloadRepository repo;
    const auto artifact = repo.run("biquad");
    const RunResult direct = run_kernel(kernel_by_name("biquad"));
    EXPECT_EQ(artifact->result.output, direct.output);
    EXPECT_EQ(artifact->result.instructions, direct.instructions);
    EXPECT_EQ(artifact->result.data_trace.size(), direct.data_trace.size());
}

// -------------------------------------------------- determinism, 1 vs N jobs

void expect_identical(const FlowComparison& a, const FlowComparison& b) {
    EXPECT_EQ(a.monolithic.total(), b.monolithic.total());
    EXPECT_EQ(a.partitioned.energy.total(), b.partitioned.energy.total());
    EXPECT_EQ(a.clustered.energy.total(), b.clustered.energy.total());
    EXPECT_EQ(a.clustering_savings_pct(), b.clustering_savings_pct());
    EXPECT_EQ(a.partitioned.solution.arch.num_banks(), b.partitioned.solution.arch.num_banks());
    EXPECT_EQ(a.clustered.solution.arch.num_banks(), b.clustered.solution.arch.num_banks());
}

TEST(Determinism, CompareAllIsBitIdenticalAcrossJobCounts) {
    WorkloadRepository repo;
    const auto runs = repo.suite();
    std::vector<const MemTrace*> traces;
    for (const auto& run : runs) traces.push_back(&run->result.data_trace);

    FlowParams fp;
    fp.constraints.max_banks = 4;
    const MemoryOptimizationFlow flow(fp);

    const auto serial = flow.compare_all(traces, ClusterMethod::Frequency, 1);
    const auto threaded = flow.compare_all(traces, ClusterMethod::Frequency, 8);
    ASSERT_EQ(serial.size(), threaded.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        expect_identical(serial[i], threaded[i]);
        // And both match the plain single-trace entry point.
        MaterializedSource source(*traces[i]);
        const FlowComparison direct = flow.compare(source, ClusterMethod::Frequency);
        expect_identical(serial[i], direct);
    }
}

TEST(Determinism, StudySuiteIsBitIdenticalAcrossJobCounts) {
    // Two media kernels keep the test fast; study_kernel re-simulates.
    const std::vector<Kernel> kernels{kernel_by_name("fir"), kernel_by_name("rle")};
    const StudySuiteOutcome serial = study_suite(kernels, 1);
    const StudySuiteOutcome threaded = study_suite(kernels, 8);
    ASSERT_TRUE(serial.completed);
    ASSERT_TRUE(threaded.completed);
    ASSERT_EQ(serial.outcomes.size(), kernels.size());
    ASSERT_EQ(threaded.outcomes.size(), kernels.size());
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        const StudyOutcome& s = serial.outcomes[i];
        const StudyOutcome& t = threaded.outcomes[i];
        EXPECT_EQ(s.name, t.name);
        // The rendered report prints every double with 17 significant
        // digits, so equal bytes mean bit-identical results.
        EXPECT_EQ(s.json, t.json);
        EXPECT_EQ(s.clustering_savings_pct, t.clustering_savings_pct);
        EXPECT_EQ(s.compression_savings_pct, t.compression_savings_pct);
        EXPECT_EQ(s.encoding_reduction_pct, t.encoding_reduction_pct);

        // study_kernel itself under a MEMOPT_JOBS-style global override.
        const JobsGuard guard(8);
        EXPECT_EQ(to_outcome(study_kernel(kernels[i])).json, s.json);
    }
}

TEST(Determinism, GateSearchIsBitIdenticalAcrossJobCounts) {
    WorkloadRepository repo;
    const auto run = repo.run("qsort", /*fetch=*/true);
    const auto& stream = run->result.fetch_stream;

    TransformSearchResult serial_full, threaded_full;
    TransformSearchResult serial_one, threaded_one;
    {
        const JobsGuard guard(1);
        serial_full = search_transform(stream, {.max_gates = 8});
        serial_one = best_single_gate(stream);
    }
    {
        const JobsGuard guard(8);
        threaded_full = search_transform(stream, {.max_gates = 8});
        threaded_one = best_single_gate(stream);
    }
    EXPECT_EQ(serial_full.encoded_transitions, threaded_full.encoded_transitions);
    EXPECT_EQ(serial_full.transform.gate_count(), threaded_full.transform.gate_count());
    EXPECT_EQ(serial_one.encoded_transitions, threaded_one.encoded_transitions);
    EXPECT_EQ(serial_one.transform.gate_count(), threaded_one.transform.gate_count());
}

}  // namespace
}  // namespace memopt
