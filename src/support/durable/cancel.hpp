// Cooperative watchdog: deadline + signal driven cancellation.
//
// Long-run engines poll CancellationToken at natural unit boundaries —
// every trace chunk (the top of each concrete TraceSource's next(), and
// stream_accumulate's tasks before they map a chunk), campaign trial
// batches, study kernel completions — instead of being torn down
// asynchronously. On trigger the
// engine checkpoints what it has, the CLI emits a memopt.report.v1
// document with "partial": true plus the reason, and the process exits
// with code 3 (documented in DESIGN.md §9). Nothing is lost: rerunning
// with --resume picks up from the checkpoint and converges on the exact
// bytes an uninterrupted run would have produced.
//
// Two independent trip wires share one token:
//   - a wall-clock deadline armed by --deadline-sec, and
//   - SIGINT/SIGTERM, recorded by an async-signal-safe flag
//     (volatile std::sig_atomic_t) that the handler sets and check()
//     polls — the handler itself does nothing else.
//
// check() may be called from worker threads (chunk boundaries inside
// parallel regions), so trip state is atomic and the reason string is
// mutex-guarded. check() throws CancelledError; the exception unwinds
// through parallel_map/parallel_for via their normal smallest-index
// rethrow policy, so cancellation inside a parallel region behaves like
// any other worker exception and never deadlocks the pool.
#pragma once

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>

#include "support/assert.hpp"

namespace memopt {

/// Raised by CancellationToken::check() when a deadline or signal tripped.
/// Engines that catch it must checkpoint before letting it propagate.
class CancelledError : public Error {
public:
    using Error::Error;
};

class CancellationToken {
public:
    /// Arm a wall-clock deadline `seconds` from now. 0 trips immediately
    /// (deterministic hook for exit-code tests); negative disarms.
    /// Call before entering parallel regions.
    void set_deadline_sec(double seconds);

    /// Manual trip (tests, embedding callers).
    void request(const std::string& reason);

    /// True once any trip wire has fired. Latches the reason on first trip.
    bool triggered();

    /// Reason for the trip; empty while not triggered.
    std::string reason() const;

    /// Throw CancelledError when triggered; cheap no-op otherwise.
    void check();

    /// Disarm everything (tests; also clears a consumed signal flag).
    void reset();

    /// The process-wide token polled by engines. Signal handlers installed
    /// by install_cancellation_handlers() feed it.
    static CancellationToken& global();

private:
    std::atomic<bool> triggered_{false};
    bool deadline_armed_ = false;
    std::chrono::steady_clock::time_point deadline_{};
    mutable std::mutex reason_mutex_;
    std::string reason_;

    void latch(const char* why);
};

/// Route SIGINT and SIGTERM into the global token. Idempotent.
void install_cancellation_handlers();

}  // namespace memopt
