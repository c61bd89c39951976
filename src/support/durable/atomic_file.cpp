#include "support/durable/atomic_file.hpp"

#include <cstdio>
#include <fstream>

#include "support/assert.hpp"

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace memopt {

namespace {

/// Force file contents to stable storage. No-op where fsync is unavailable;
/// rename atomicity still holds, only power-loss durability is weakened.
void sync_file(const std::string& path) {
#if !defined(_WIN32)
    const int fd = ::open(path.c_str(), O_WRONLY);
    if (fd < 0) throw Error("atomic_write: reopen for fsync failed: " + path);
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) throw Error("atomic_write: fsync failed: " + path);
#else
    (void)path;
#endif
}

/// Best-effort fsync of the directory entry so the rename itself survives
/// power loss. Failure is ignored: some filesystems reject directory fds.
void sync_parent_dir(const std::string& path) {
#if !defined(_WIN32)
    const std::size_t slash = path.find_last_of('/');
    const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
    const int fd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
#else
    (void)path;
#endif
}

}  // namespace

void atomic_write(const std::string& path, const std::function<void(std::ostream&)>& body,
                  std::ios_base::openmode mode) {
    const std::string tmp = path + ".tmp";
    try {
        {
            std::ofstream os(  // memopt-lint: durable-write
                tmp, mode | std::ios_base::out | std::ios_base::trunc);
            if (!os) throw Error("atomic_write: cannot open temp file: " + tmp);
            body(os);
            os.flush();
            if (!os) throw Error("atomic_write: write failed: " + tmp);
        }
        sync_file(tmp);
        if (std::rename(tmp.c_str(), path.c_str()) != 0) {
            throw Error("atomic_write: rename to final path failed: " + path);
        }
    } catch (...) {
        std::remove(tmp.c_str());
        throw;
    }
    sync_parent_dir(path);
}

void atomic_write(const std::string& path, const std::string& contents,
                  std::ios_base::openmode mode) {
    atomic_write(
        path, [&](std::ostream& os) { os.write(contents.data(), static_cast<std::streamsize>(contents.size())); },
        mode);
}

// ---------------------------------------------------------------------------
// AtomicOstream

AtomicOstream::AtomicOstream(AtomicOstream&& other) noexcept
    : std::ofstream(std::move(other)), path_(std::move(other.path_)),
      decided_(other.decided_) {
    other.decided_ = true;  // the moved-from shell owns nothing to publish
    other.path_.clear();
}

AtomicOstream& AtomicOstream::operator=(AtomicOstream&& other) noexcept {
    if (this != &other) {
        if (!decided_) discard();
        std::ofstream::operator=(std::move(other));
        path_ = std::move(other.path_);
        decided_ = other.decided_;
        other.decided_ = true;
        other.path_.clear();
    }
    return *this;
}

AtomicOstream::~AtomicOstream() {
    if (decided_) return;
    if (!commit()) {
        std::fprintf(stderr, "memopt: warning: failed to publish '%s' (kept staged data off)\n",
                     path_.c_str());
    }
}

bool AtomicOstream::open_staged(const std::string& path, std::ios_base::openmode mode) {
    if (!decided_) discard();
    path_ = path;
    open(path + ".tmp", mode | std::ios_base::out | std::ios_base::trunc);
    decided_ = !is_open();
    return is_open();
}

bool AtomicOstream::commit() {
    if (decided_) return true;
    decided_ = true;
    const std::string tmp = path_ + ".tmp";
    flush();
    const bool wrote_ok = good();
    close();
    if (!wrote_ok) {
        std::remove(tmp.c_str());
        return false;
    }
    try {
        sync_file(tmp);
    } catch (const Error&) {
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    sync_parent_dir(path_);
    return true;
}

void AtomicOstream::discard() {
    if (decided_) return;
    decided_ = true;
    close();
    std::remove((path_ + ".tmp").c_str());
}

}  // namespace memopt
