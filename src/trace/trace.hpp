// Memory-access traces: the common currency of the toolkit.
//
// Every optimization in this library (partitioning, clustering, compression,
// encoding) is profile-driven: it consumes a trace of memory accesses
// produced either by the AR32 instruction-set simulator (src/sim) or by the
// synthetic generators (trace/synthetic.hpp).
//
// Storage is columnar (structure-of-arrays): each access field lives in its
// own contiguous vector. Replay loops that only need a subset of the fields
// — the profile builder reads addr+kind, the affinity builder reads addr
// only, the bank-activity replay reads addr+cycle+kind — stream exactly those
// bytes instead of striding over 24-byte structs, which is what keeps the
// trace pipeline memory-bandwidth-friendly on multi-million-access traces.
// `at(i)` materializes one whole record.
#pragma once

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
/// last byte lies past 2^64 - 1. MemTrace::add and TraceSummary::add call
/// it for such an access.
[[noreturn, gnu::cold, gnu::noinline]] void throw_access_past_top(std::uint64_t addr,
                                                                  unsigned size);

/// An ordered sequence of memory accesses plus cheap summary statistics,
/// stored column-wise (see file comment).
///
/// Invariant: summary counters always match the stored sequence, and all
/// columns have equal length.
class MemTrace {
public:
    MemTrace() = default;

    /// Append one access. O(1). Throws memopt::Error (through
    /// throw_access_past_top) when its last byte lies past 2^64 - 1.
    void add(const MemAccess& a);

    /// Append a read/write of `size` bytes at `addr` (convenience).
    void add_read(std::uint64_t addr, std::uint8_t size = 4, std::uint64_t cycle = 0);
    void add_write(std::uint64_t addr, std::uint8_t size = 4, std::uint64_t cycle = 0);

    /// Contiguous column views — the fast path for replay loops.
    std::span<const std::uint64_t> addrs() const { return addrs_; }
    std::span<const std::uint64_t> cycles() const { return cycles_; }
    std::span<const std::uint32_t> values() const { return values_; }
    std::span<const std::uint8_t> sizes() const { return sizes_; }
    std::span<const AccessKind> kinds() const { return kinds_; }

    /// The values written by the write accesses, in trace order.
    std::vector<std::uint32_t> write_values() const;

    /// Materialize access `i`.
    MemAccess at(std::size_t i) const {
        MEMOPT_ASSERT(i < addrs_.size());
        return MemAccess{addrs_[i], cycles_[i], values_[i], sizes_[i], kinds_[i]};
    }

    std::size_t size() const { return addrs_.size(); }
    bool empty() const { return addrs_.empty(); }
    std::uint64_t read_count() const { return reads_; }
    std::uint64_t write_count() const { return writes_; }

    /// Lowest / highest byte address touched. Requires a non-empty trace.
    std::uint64_t min_addr() const;
    std::uint64_t max_addr() const;

    /// Remove all accesses.
    void clear();

    /// Reserve storage for `n` accesses (in every column).
    void reserve(std::size_t n);

private:
    std::vector<std::uint64_t> addrs_;
    std::vector<std::uint64_t> cycles_;
    std::vector<std::uint32_t> values_;
    std::vector<std::uint8_t> sizes_;
    std::vector<AccessKind> kinds_;
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
    std::uint64_t min_addr_ = 0;
    std::uint64_t max_addr_ = 0;
};

}  // namespace memopt
