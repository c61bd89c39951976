#include "support/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>
#include <sys/resource.h>
#endif

#include "support/assert.hpp"
#include "support/metrics.hpp"

namespace memopt {

namespace {

constexpr std::size_t kMaxJobs = 256;

/// Set while a thread executes chunk work for some parallel region; nested
/// regions observe it and run inline.
thread_local bool t_in_parallel_region = false;

/// Shared-pool worker index of the calling thread; -1 everywhere else.
thread_local int t_worker_index = -1;

std::atomic<std::size_t> g_jobs_override{0};
std::atomic<bool> g_pool_created{false};

std::size_t env_jobs() {
    static const std::size_t parsed = [] {
        const char* env = std::getenv("MEMOPT_JOBS");
        if (env == nullptr || *env == '\0') return std::size_t{0};
        char* end = nullptr;
        const long value = std::strtol(env, &end, 10);
        if (end == env || *end != '\0' || value <= 0) return std::size_t{0};
        return std::min<std::size_t>(static_cast<std::size_t>(value), kMaxJobs);
    }();
    return parsed;
}

std::size_t hardware_jobs() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

/// glibc gives every thread that allocates an arena of its own, and each
/// arena beyond the main one reserves 64 MiB of address space up front.
/// That costs nothing until the process runs under an address-space limit
/// (ulimit -v), where a pool of J workers takes J * 64 MiB of the limit
/// before any work: the 10^7-access affinity partition of a 210 MiB .mtsc
/// at --jobs 4 peaked at 576-592 MiB of address space with the three
/// workers' arenas and at 384 MiB without them. So under any finite limit
/// the workers share the main arena, and every run under a limit pays for
/// that: BM_WindowedAffinity/512, whose tasks allocate and free a 1 MiB
/// triangle per call, ran 1.5x slower under a 4 GiB limit, while the other
/// affinity benchmarks and the 10^7-access partitions stayed within noise.
/// Without a limit each worker keeps its own arena.
void share_main_malloc_arena_under_address_limit() {
#if defined(__GLIBC__)
    rlimit limit{};
    if (getrlimit(RLIMIT_AS, &limit) == 0 && limit.rlim_cur != RLIM_INFINITY)
        mallopt(M_ARENA_MAX, 1);
#endif
}

/// Shared worker pool, created on first use by a region with jobs > 1.
/// Capacity is fixed at creation: enough workers for the largest plausible
/// region (hardware threads, MEMOPT_JOBS, and a floor of 4 so that
/// single-core containers still exercise real interleavings), minus the
/// participating caller. Regions never use more than jobs-1 of them.
ThreadPool& shared_pool() {
    static ThreadPool pool([] {
        share_main_malloc_arena_under_address_limit();
        const std::size_t want =
            std::max({hardware_jobs(), default_jobs(), std::size_t{4}});
        return std::clamp<std::size_t>(want, 2, 64) - 1;
    }());
    g_pool_created.store(true, std::memory_order_relaxed);
    return pool;
}

/// Shared state of one parallel_for region. Heap-allocated and owned
/// jointly by the caller and every helper task so that the completion
/// handshake never touches freed memory, no matter who finishes last.
struct ForRegion {
    explicit ForRegion(std::size_t size, const std::function<void(std::size_t)>& f)
        : n(size), fn(&f), errors(size) {}

    const std::size_t n;
    const std::function<void(std::size_t)>* fn;  ///< lives in the caller's frame
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors;  ///< slot i written only by i's runner

    Mutex mutex;
    std::condition_variable_any done_cv;
    std::size_t helpers_finished MEMOPT_GUARDED_BY(mutex) = 0;

    /// Drain indices until the counter is exhausted. Exceptions are parked
    /// in their index slot; the region rethrows the smallest one.
    void drain() {
        t_in_parallel_region = true;
        std::size_t i;
        while ((i = next.fetch_add(1, std::memory_order_relaxed)) < n) {
            try {
                (*fn)(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
        t_in_parallel_region = false;
    }
};

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
    workers_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i)
        workers_.emplace_back([this, i] {
            t_worker_index = static_cast<int>(i);
            worker_main();
        });
}

ThreadPool::~ThreadPool() {
    {
        MutexLock lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
    MEMOPT_ASSERT_MSG(task != nullptr, "ThreadPool::submit: empty task");
    // Observability wrapper: queue-wait latency (enqueue to first
    // instruction) and a tasks-run tally. Lock-free recording; the wrapper
    // never alters task semantics or ordering.
    static MetricCounter& tasks_run = MetricsRegistry::instance().counter("pool.tasks_run");
    static MetricTimer& queue_wait = MetricsRegistry::instance().timer("pool.queue_wait");
    auto wrapped = [task = std::move(task),
                    enqueued = std::chrono::steady_clock::now()] {
        queue_wait.record(std::chrono::steady_clock::now() - enqueued);
        tasks_run.add();
        task();
    };
    {
        MutexLock lock(mutex_);
        require(!stop_, "ThreadPool::submit: pool is shutting down");
        queue_.push_back(std::move(wrapped));
    }
    cv_.notify_one();
}

void ThreadPool::worker_main() {
    t_in_parallel_region = true;  // pool workers only ever run region chunks
    for (;;) {
        std::function<void()> task;
        {
            MutexLock lock(mutex_);
            // Manual wait loop: the predicate reads guarded members, which
            // the analysis can only verify in a scope it can see the lock
            // in (a predicate lambda is analyzed as a separate, unlocked
            // function). cv_ waits on the Mutex itself (BasicLockable).
            while (!stop_ && queue_.empty()) cv_.wait(mutex_);
            if (queue_.empty()) return;  // stop_ set and queue drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

std::size_t default_jobs() {
    const std::size_t override_jobs = g_jobs_override.load(std::memory_order_relaxed);
    if (override_jobs != 0) return override_jobs;
    const std::size_t env = env_jobs();
    if (env != 0) return env;
    return hardware_jobs();
}

void set_default_jobs(std::size_t jobs) {
    g_jobs_override.store(std::min(jobs, kMaxJobs), std::memory_order_relaxed);
}

bool shared_pool_created() noexcept {
    return g_pool_created.load(std::memory_order_relaxed);
}

bool in_parallel_region() noexcept { return t_in_parallel_region; }

int pool_worker_index() noexcept { return t_worker_index; }

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t jobs) {
    MEMOPT_ASSERT_MSG(fn != nullptr, "parallel_for: empty function");
    if (n == 0) return;

    const std::size_t resolved = jobs == 0 ? default_jobs() : std::min(jobs, kMaxJobs);
    if (resolved <= 1 || n == 1 || t_in_parallel_region) {
        // Serial bypass: inline on this thread, no pool, direct exceptions.
        for (std::size_t i = 0; i < n; ++i) fn(i);
        return;
    }

    auto region = std::make_shared<ForRegion>(n, fn);
    ThreadPool& pool = shared_pool();
    const std::size_t helpers = std::min(resolved - 1, n - 1);
    for (std::size_t h = 0; h < helpers; ++h) {
        pool.submit([region] {
            region->drain();
            {
                MutexLock lock(region->mutex);
                // memopt-lint: guarded -- region->mutex held just above
                ++region->helpers_finished;
            }
            region->done_cv.notify_one();
        });
    }

    region->drain();
    {
        MutexLock lock(region->mutex);
        while (region->helpers_finished != helpers) region->done_cv.wait(region->mutex);
    }

    // Move the error out of the region before rethrowing it: a helper may
    // drop the last reference to the region after this returns, and the
    // caller, which reads the exception, must then hold its last reference.
    // (The exception's reference count lives in the C++ runtime, where a
    // thread sanitizer cannot see it order a helper's release after the
    // caller's read.)
    for (std::exception_ptr& error : region->errors)
        if (error) std::rethrow_exception(std::exchange(error, nullptr));
}

}  // namespace memopt
