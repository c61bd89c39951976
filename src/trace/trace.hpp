// Memory-access traces: the common currency of the toolkit.
//
// Every optimization in this library (partitioning, clustering, compression,
// encoding) is profile-driven: it replays a trace of memory accesses
// produced either by the AR32 instruction-set simulator (src/sim) or by the
// synthetic generators (trace/synthetic.hpp), pulled chunk by chunk from a
// TraceSource (trace/source.hpp).
//
// This header holds the trace's three value types. Storage is columnar
// (structure-of-arrays): each access field lives in its own contiguous
// column, so replay loops that need a subset of the fields — the profile
// builder reads addr+kind, the affinity builder reads addr only, the
// bank-activity replay reads addr+cycle+kind — stream exactly those bytes
// instead of striding over 24-byte structs.
//  * TraceChunk   — non-owning column spans over consecutive accesses;
//  * ChunkBuffer  — the one owning column store;
//  * TraceSummary — access and read/write counts and the touched address
//                   range, kept by the one counting rule, add().
// An in-memory MemTrace is a ChunkBuffer plus a TraceSummary that counts
// every access it appends.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "support/assert.hpp"

namespace memopt {

/// Direction of a memory access.
enum class AccessKind : std::uint8_t { Read, Write };

/// One memory access. `size` is the access width in bytes (1, 2 or 4 for
/// AR32). `cycle` is the issue cycle, used by windowed affinity analysis;
/// synthetic traces may simply use the access index. `value` is the data
/// read or written (low `size` bytes significant); it lets the compressed-
/// memory simulation reconstruct exact line contents from a trace.
struct MemAccess {
    std::uint64_t addr = 0;
    std::uint64_t cycle = 0;
    std::uint32_t value = 0;
    std::uint8_t size = 4;
    AccessKind kind = AccessKind::Read;
};

/// Throws memopt::Error naming an access of `size` bytes at `addr` whose
/// last byte lies past 2^64 - 1. TraceSummary::add calls it for such an
/// access.
[[noreturn, gnu::cold, gnu::noinline]] void throw_access_past_top(std::uint64_t addr,
                                                                  unsigned size);

/// One chunk of a trace: SoA column spans plus the global index of the
/// chunk's first access. A chunk a TraceSource delivers stays valid until
/// the source's next next()/next_batch()/reset() call (longer for stable
/// sources — see TraceSource::stable_chunks()).
///
/// Invariant: all five columns have equal length (validated at
/// construction).
struct TraceChunk {
    std::uint64_t first_index = 0;
    std::span<const std::uint64_t> addrs;
    std::span<const std::uint64_t> cycles;
    std::span<const std::uint32_t> values;
    std::span<const std::uint8_t> sizes;
    std::span<const AccessKind> kinds;

    TraceChunk() = default;
    TraceChunk(std::uint64_t first, std::span<const std::uint64_t> a,
               std::span<const std::uint64_t> c, std::span<const std::uint32_t> v,
               std::span<const std::uint8_t> s, std::span<const AccessKind> k)
        : first_index(first), addrs(a), cycles(c), values(v), sizes(s), kinds(k) {
        require(c.size() == a.size() && v.size() == a.size() && s.size() == a.size() &&
                    k.size() == a.size(),
                "TraceChunk: column length mismatch");
    }

    std::size_t size() const { return addrs.size(); }
    bool empty() const { return addrs.empty(); }

    /// Accesses [offset, offset + count) as a chunk of their own.
    TraceChunk subchunk(std::size_t offset, std::size_t count) const {
        return TraceChunk(first_index + offset, addrs.subspan(offset, count),
                          cycles.subspan(offset, count), values.subspan(offset, count),
                          sizes.subspan(offset, count), kinds.subspan(offset, count));
    }
};

/// Cheap whole-trace statistics. `max_addr` is inclusive and covers the
/// access width (addr + size - 1); both bounds are 0 while `accesses` is.
struct TraceSummary {
    std::uint64_t accesses = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t min_addr = 0;
    std::uint64_t max_addr = 0;

    bool operator==(const TraceSummary&) const = default;

    /// The counting rule: count one access of `size` (1, 2, 4 or 8) bytes
    /// at `addr`. Throws memopt::Error through throw_access_past_top, and
    /// leaves the summary unchanged, when its last byte lies past 2^64 - 1.
    void add(std::uint64_t addr, unsigned size, AccessKind kind) {
        const std::uint64_t last = addr + size - 1;
        if (last < addr) [[unlikely]]
            throw_access_past_top(addr, size);
        min_addr = accesses == 0 ? addr : std::min(min_addr, addr);
        max_addr = accesses == 0 ? last : std::max(max_addr, last);
        // Counted without a branch: the kinds of a trace are seldom
        // predictable.
        const bool read = kind == AccessKind::Read;
        reads += read;
        writes += !read;
        ++accesses;
    }

    /// Count every access of `chunk` by the rule above. Throws like it on
    /// the chunk's first access past 2^64 - 1, leaving the summary
    /// unchanged.
    void add(const TraceChunk& chunk);
};

/// The one owning SoA column store: the staging buffer of non-stable
/// sources and of the ".mtsc" writer, the copy target of
/// TraceSource::next_batch(), and the columns of a MemTrace.
class ChunkBuffer {
public:
    bool operator==(const ChunkBuffer&) const = default;

    /// Start a fresh chunk whose first access has global index `first`.
    void begin(std::uint64_t first) {
        first_index_ = first;
        addrs_.clear();
        cycles_.clear();
        values_.clear();
        sizes_.clear();
        kinds_.clear();
    }

    void reserve(std::size_t n) {
        addrs_.reserve(n);
        cycles_.reserve(n);
        values_.reserve(n);
        sizes_.reserve(n);
        kinds_.reserve(n);
    }

    void push_back(const MemAccess& a) {
        addrs_.push_back(a.addr);
        cycles_.push_back(a.cycle);
        values_.push_back(a.value);
        sizes_.push_back(a.size);
        kinds_.push_back(a.kind);
    }

    /// Append a copy of every access of `chunk`.
    void append(const TraceChunk& chunk) {
        addrs_.insert(addrs_.end(), chunk.addrs.begin(), chunk.addrs.end());
        cycles_.insert(cycles_.end(), chunk.cycles.begin(), chunk.cycles.end());
        values_.insert(values_.end(), chunk.values.begin(), chunk.values.end());
        sizes_.insert(sizes_.end(), chunk.sizes.begin(), chunk.sizes.end());
        kinds_.insert(kinds_.end(), chunk.kinds.begin(), chunk.kinds.end());
    }

    /// Drop the first `n` (<= size()) buffered accesses; the buffer then
    /// starts at global index first + n.
    void erase_front(std::size_t n) {
        const auto d = static_cast<std::ptrdiff_t>(n);
        addrs_.erase(addrs_.begin(), addrs_.begin() + d);
        cycles_.erase(cycles_.begin(), cycles_.begin() + d);
        values_.erase(values_.begin(), values_.begin() + d);
        sizes_.erase(sizes_.begin(), sizes_.begin() + d);
        kinds_.erase(kinds_.begin(), kinds_.begin() + d);
        first_index_ += n;
    }

    std::size_t size() const { return addrs_.size(); }
    bool empty() const { return addrs_.empty(); }

    /// Non-owning chunk view over the buffered columns.
    TraceChunk view() const {
        return TraceChunk(first_index_, addrs_, cycles_, values_, sizes_, kinds_);
    }

private:
    std::uint64_t first_index_ = 0;
    std::vector<std::uint64_t> addrs_;
    std::vector<std::uint64_t> cycles_;
    std::vector<std::uint32_t> values_;
    std::vector<std::uint8_t> sizes_;
    std::vector<AccessKind> kinds_;
};

/// An ordered, in-memory sequence of memory accesses: a ChunkBuffer of
/// columns plus the TraceSummary of every access added.
class MemTrace {
public:
    MemTrace() = default;

    /// Append one access of 1, 2, 4 or 8 bytes. O(1). Throws memopt::Error
    /// (through throw_access_past_top), leaving the trace unchanged, when
    /// its last byte lies past 2^64 - 1.
    void add(const MemAccess& a);

    /// Append a read/write of `size` bytes at `addr` (convenience).
    void add_read(std::uint64_t addr, std::uint8_t size = 4, std::uint64_t cycle = 0);
    void add_write(std::uint64_t addr, std::uint8_t size = 4, std::uint64_t cycle = 0);

    /// The whole trace as one chunk, and its columns: the fast path for
    /// replay loops.
    TraceChunk view() const { return columns_.view(); }
    std::span<const std::uint64_t> addrs() const { return view().addrs; }
    std::span<const std::uint64_t> cycles() const { return view().cycles; }
    std::span<const std::uint32_t> values() const { return view().values; }
    std::span<const std::uint8_t> sizes() const { return view().sizes; }
    std::span<const AccessKind> kinds() const { return view().kinds; }

    /// The values written by the write accesses, in trace order.
    std::vector<std::uint32_t> write_values() const;

    /// Materialize access `i`.
    MemAccess at(std::size_t i) const;

    std::size_t size() const { return columns_.size(); }
    bool empty() const { return columns_.empty(); }

    /// The counts and address range of every access added.
    const TraceSummary& summary() const { return summary_; }

    /// Remove all accesses.
    void clear() { *this = MemTrace(); }

    /// Reserve storage for `n` accesses (in every column).
    void reserve(std::size_t n) { columns_.reserve(n); }

private:
    ChunkBuffer columns_;
    TraceSummary summary_;
};

}  // namespace memopt
