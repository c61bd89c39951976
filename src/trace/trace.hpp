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
// `accesses()` provides an AoS-compatible view for call sites that want
// whole records.
#pragma once

#include <cstdint>
#include <iterator>
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

class MemTrace;

/// Random-access AoS-style view over a MemTrace: indexing and iteration
/// materialize MemAccess records on the fly from the trace's columns.
/// Cheap to copy (one pointer); valid as long as the trace is alive and
/// unmodified.
class AccessView {
public:
    class iterator {
    public:
        using iterator_category = std::random_access_iterator_tag;
        using value_type = MemAccess;
        using difference_type = std::ptrdiff_t;
        using pointer = const MemAccess*;
        using reference = MemAccess;  // materialized by value

        iterator() = default;
        iterator(const MemTrace* trace, std::size_t i) : trace_(trace), i_(i) {}

        MemAccess operator*() const;
        MemAccess operator[](difference_type d) const;
        iterator& operator++() { ++i_; return *this; }
        iterator operator++(int) { iterator t = *this; ++i_; return t; }
        iterator& operator--() { --i_; return *this; }
        iterator operator--(int) { iterator t = *this; --i_; return t; }
        iterator& operator+=(difference_type d) { i_ += static_cast<std::size_t>(d); return *this; }
        iterator& operator-=(difference_type d) { i_ -= static_cast<std::size_t>(d); return *this; }
        friend iterator operator+(iterator it, difference_type d) { return it += d; }
        friend iterator operator+(difference_type d, iterator it) { return it += d; }
        friend iterator operator-(iterator it, difference_type d) { return it -= d; }
        friend difference_type operator-(const iterator& a, const iterator& b) {
            return static_cast<difference_type>(a.i_) - static_cast<difference_type>(b.i_);
        }
        friend bool operator==(const iterator& a, const iterator& b) { return a.i_ == b.i_; }
        friend bool operator!=(const iterator& a, const iterator& b) { return a.i_ != b.i_; }
        friend bool operator<(const iterator& a, const iterator& b) { return a.i_ < b.i_; }
        friend bool operator<=(const iterator& a, const iterator& b) { return a.i_ <= b.i_; }
        friend bool operator>(const iterator& a, const iterator& b) { return a.i_ > b.i_; }
        friend bool operator>=(const iterator& a, const iterator& b) { return a.i_ >= b.i_; }

    private:
        const MemTrace* trace_ = nullptr;
        std::size_t i_ = 0;
    };

    explicit AccessView(const MemTrace* trace) : trace_(trace) {}

    std::size_t size() const;
    bool empty() const { return size() == 0; }
    MemAccess operator[](std::size_t i) const;
    MemAccess front() const { return (*this)[0]; }
    MemAccess back() const { return (*this)[size() - 1]; }
    iterator begin() const { return iterator(trace_, 0); }
    iterator end() const { return iterator(trace_, size()); }

private:
    const MemTrace* trace_;
};

/// An ordered sequence of memory accesses plus cheap summary statistics,
/// stored column-wise (see file comment).
///
/// Invariant: summary counters always match the stored sequence, and all
/// columns have equal length.
class MemTrace {
public:
    MemTrace() = default;

    /// Append one access. O(1).
    void add(const MemAccess& a);

    /// Append a read/write of `size` bytes at `addr` (convenience).
    void add_read(std::uint64_t addr, std::uint8_t size = 4, std::uint64_t cycle = 0);
    void add_write(std::uint64_t addr, std::uint8_t size = 4, std::uint64_t cycle = 0);

    /// Bulk construction from pre-built columns (all the same length).
    /// Summary statistics are recomputed; sizes are validated.
    static MemTrace from_columns(std::vector<std::uint64_t> addrs,
                                 std::vector<std::uint64_t> cycles,
                                 std::vector<std::uint32_t> values,
                                 std::vector<std::uint8_t> sizes,
                                 std::vector<AccessKind> kinds);

    /// All accesses in program order (AoS-compatible materializing view).
    AccessView accesses() const { return AccessView(this); }

    /// Contiguous column views — the fast path for replay loops.
    std::span<const std::uint64_t> addrs() const { return addrs_; }
    std::span<const std::uint64_t> cycles() const { return cycles_; }
    std::span<const std::uint32_t> values() const { return values_; }
    std::span<const std::uint8_t> sizes() const { return sizes_; }
    std::span<const AccessKind> kinds() const { return kinds_; }

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

    /// Smallest power-of-two span (in bytes) that covers all touched
    /// addresses starting from address zero. Requires a non-empty trace.
    std::uint64_t address_span_pow2() const;

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

inline MemAccess AccessView::iterator::operator*() const { return trace_->at(i_); }
inline MemAccess AccessView::iterator::operator[](difference_type d) const {
    return trace_->at(i_ + static_cast<std::size_t>(d));
}
inline std::size_t AccessView::size() const { return trace_->size(); }
inline MemAccess AccessView::operator[](std::size_t i) const { return trace_->at(i); }

/// Round `v` up to the next power of two (v=0 -> 1).
std::uint64_t ceil_pow2(std::uint64_t v);

/// True if `v` is a power of two (v > 0).
bool is_pow2(std::uint64_t v);

/// Integer log2 of a power of two.
unsigned log2_exact(std::uint64_t v);

}  // namespace memopt
