// Crash-safe artifact writes: temp file → flush/fsync → rename.
//
// A final artifact must never exist under its real name in a partial state.
// Every writer of a result the user will consume (traces, stream containers,
// --json documents, bench sink files, checkpoints) funnels through this
// module: bytes go to `<path>.tmp` in the same directory, are flushed and
// fsync'd, and the temp file is renamed over the destination. rename(2)
// within one filesystem is atomic, so a reader — or a crash at any
// instant — sees either the complete old file or the complete new file,
// never a truncation. memopt_lint rule R1 enforces the funnel: opening a
// final artifact path with a raw ofstream outside support/durable is a
// lint finding.
//
// The `.tmp` suffix is fixed and deterministic (no PID, no randomness):
// memopt's writers are single-process per artifact by construction, and a
// leftover temp from a crashed run is overwritten by the next run.
#pragma once

#include <fstream>
#include <functional>
#include <ios>
#include <string>

namespace memopt {

/// Write a final artifact crash-safely. `body` receives an output stream
/// positioned at the start of `<path>.tmp` (opened with `mode` plus
/// out|trunc) and may seek/write freely; when it returns, the stream is
/// flushed, fsync'd, and the temp file is renamed onto `path`.
///
/// Throws memopt::Error on the first failure to open, write, fsync or
/// rename the temp file. On that or any exception from `body`, the temp
/// file is removed and `path` is left untouched.
void atomic_write(const std::string& path, const std::function<void(std::ostream&)>& body,
                  std::ios_base::openmode mode = std::ios_base::openmode{});

/// Convenience overload: write a fully rendered document.
void atomic_write(const std::string& path, const std::string& contents,
                  std::ios_base::openmode mode = std::ios_base::openmode{});

/// Incremental crash-safe writer for long-lived sinks (bench JSON
/// exports): an ofstream that stages into `<path>.tmp` and renames onto the
/// final path on commit(). The destructor auto-commits an open, undecided
/// stream — a sink held until scope exit publishes on clean exit — but a
/// crash or discard() before that leaves the final path untouched.
/// Destructor commit failures warn on stderr (destructors must not throw);
/// call commit() explicitly where failure must be fatal.
class AtomicOstream final : public std::ofstream {
public:
    AtomicOstream() = default;
    AtomicOstream(AtomicOstream&& other) noexcept;
    AtomicOstream& operator=(AtomicOstream&& other) noexcept;
    ~AtomicOstream() override;

    /// Open `<path>.tmp` (mode | out | trunc). Returns is_open().
    bool open_staged(const std::string& path,
                     std::ios_base::openmode mode = std::ios_base::openmode{});

    /// Flush, fsync, rename onto the final path. Idempotent; false (with
    /// the temp file removed) when any step fails.
    bool commit();

    /// Close and delete the temp file; the final path is never touched.
    void discard();

    const std::string& target_path() const { return path_; }

private:
    std::string path_;
    bool decided_ = true;  ///< no commit/discard pending (nothing staged)
};

}  // namespace memopt
