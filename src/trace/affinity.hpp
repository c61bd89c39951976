// Temporal affinity between profile blocks.
//
// Affinity clustering (DATE'03 1B-1 flavour) needs to know which blocks are
// accessed close together in time: placing such blocks in the same bank lets
// the other banks stay idle for long stretches. This module computes a
// windowed co-access affinity matrix (a window of 2 counts consecutive-
// access block transitions), plus a fused single-pass builder that produces
// the block profile and the affinity matrix from one streaming replay of
// the trace.
//
// Storage is adaptive behind one interface: small block counts use the
// dense upper-triangular array (O(n^2/2) doubles); large block counts use a
// compressed-sparse-row (CSR) adjacency, because a windowed trace replay
// touches O(accesses * window) pairs but typically only a tiny fraction of
// the n^2 possible ones. Both representations produce bit-identical query
// results for the integer-valued co-access counts the builders emit.
//
// The builders count pairs as uint64_t in an AffinityAccumulator: the dense
// triangle for small block counts, a flat open-addressing table of packed
// pair keys above that. Each access costs O(window) expected-O(1) table
// updates, finalize() sorts the P distinct pairs once (O(P log P)), and
// memory follows P, not n^2.
//
// Long traces are replayed sharded across the process thread pool
// (support/parallel.hpp): each shard replays a contiguous slice of the
// trace (pre-warming its sliding window from the preceding accesses) and
// the per-shard partial counts are reduced in shard order. Counts are
// integers, so the reduction is exact and results are bit-identical at any
// job count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/profile.hpp"
#include "trace/trace.hpp"

namespace memopt {

class TraceSource;

/// Block counts at or below this use the dense triangular representation;
/// larger matrices are finalized to CSR.
inline constexpr std::size_t kAffinityDenseMaxBlocks = 1024;

/// Symmetric block-affinity matrix. Dense upper-triangle storage for small
/// block counts, CSR adjacency for large ones — same queries, bit-identical
/// results for integer-valued weights (see file comment).
class AffinityMatrix {
public:
    /// Zero matrix over `num_blocks` blocks (always dense; mutable via add).
    explicit AffinityMatrix(std::size_t num_blocks);

    std::size_t num_blocks() const { return n_; }

    /// True when backed by the immutable CSR representation.
    bool is_sparse() const { return sparse_; }

    /// Number of stored unordered block pairs with non-zero affinity
    /// (diagonal included when present). O(n^2) for dense, O(1) for sparse.
    std::size_t stored_pairs() const;

    /// Affinity between blocks a and b (symmetric; diagonal allowed).
    double at(std::size_t a, std::size_t b) const;

    /// Add `w` to the affinity between a and b. Dense matrices only; a
    /// sparse matrix is immutable once finalized.
    void add(std::size_t a, std::size_t b, double w);

    /// Sum of affinities from `a` to every block in `members`.
    double affinity_to_set(std::size_t a, const std::vector<std::size_t>& members) const;

    /// Total affinity mass (sum over unordered pairs, diagonal included once).
    double total() const;

    /// Largest off-diagonal entry, at least 0.0 (the greedy chain's
    /// normalization constant).
    double max_offdiagonal() const;

    /// Invoke fn(b, w) for every block b != a with non-zero affinity w to
    /// `a`, in ascending block order. O(degree) for sparse, O(n) for dense.
    template <typename Fn>
    void for_each_neighbor(std::size_t a, Fn&& fn) const {
        require(a < n_, "AffinityMatrix::for_each_neighbor out of range");
        if (sparse_) {
            for (std::size_t e = row_ptr_[a]; e < row_ptr_[a + 1]; ++e) {
                const std::size_t b = col_[e];
                if (b != a) fn(b, val_[e]);
            }
        } else {
            for (std::size_t b = 0; b < n_; ++b) {
                if (b == a) continue;
                const double w = tri_[tri_index(a, b)];
                if (w != 0.0) fn(b, w);
            }
        }
    }

private:
    friend class AffinityAccumulator;

    std::size_t tri_index(std::size_t a, std::size_t b) const;
    /// CSR lookup: value at (a, b) or 0.0.
    double sparse_at(std::size_t a, std::size_t b) const;

    std::size_t n_;
    bool sparse_ = false;
    std::vector<double> tri_;  // dense: upper-triangular storage, row-major

    // sparse: CSR over the full symmetric adjacency (each off-diagonal pair
    // stored in both rows; diagonal stored once), columns ascending per row.
    std::vector<std::size_t> row_ptr_;  // n_ + 1
    std::vector<std::uint32_t> col_;
    std::vector<double> val_;
};

/// Co-access pair counter: the builders' shard-local sink. Counts unordered
/// (a, b) pairs (a == b allowed) as uint64_t and finalizes into the matrix
/// representation matching the block count.
///
/// Up to kAffinityDenseMaxBlocks blocks the counts live in the dense
/// triangle. Above it they live in a flat open-addressing table: packed
/// (min << 32 | max) keys, linear probing over a power-of-two capacity that
/// doubles whenever an insert would push the load factor above 3/4. Slot
/// order depends on the insertion order, so finalize() sorts the occupied
/// entries by key before it emits CSR.
class AffinityAccumulator {
public:
    /// Requires 0 < num_blocks < 2^32 (Error otherwise): a key packs two
    /// 32-bit block ids, and the all-ones key marks an empty slot.
    explicit AffinityAccumulator(std::size_t num_blocks);

    std::size_t num_blocks() const { return n_; }

    /// Count one co-access of blocks a and b.
    void add(std::size_t a, std::size_t b);

    /// Fold `other`'s counts into this accumulator. Call in shard order for
    /// a deterministic reduction.
    void merge(const AffinityAccumulator& other);

    /// Finalize into a matrix: dense for num_blocks <= dense_max_blocks,
    /// CSR above. Leaves the accumulator empty.
    AffinityMatrix finalize(std::size_t dense_max_blocks = kAffinityDenseMaxBlocks);

private:
    struct Slot {
        std::uint64_t key;
        std::uint64_t count;
    };

    /// Add `count` to the table entry of `key`, inserting it if absent.
    void add_to_slot(std::uint64_t key, std::uint64_t count);
    void grow();

    std::size_t n_;
    bool dense_;
    std::vector<std::uint64_t> tri_;  // dense counts, upper triangle
    std::vector<Slot> slots_;         // sparse counts, flat hash table
    std::size_t occupied_ = 0;        // non-empty slots
    unsigned hash_shift_ = 0;         // 64 - log2(slots_.size())
};

/// Build a windowed co-access affinity from one chunked replay of `source`
/// in O(chunk) memory, using the block geometry of `profile`: for a sliding
/// window of `window` consecutive accesses, every unordered pair of
/// distinct blocks that co-occurs in the window gains affinity 1 (counted
/// once per window position where the pair is formed with the newest
/// access). `window >= 2`; a window of 2 counts the transitions between
/// consecutive accesses. Accesses outside the profile span are rejected
/// (Error). Long traces are sharded over `jobs` threads (0 =
/// default_jobs()); results are bit-identical at any job count and chunk
/// size.
AffinityMatrix windowed_affinity(TraceSource& source, const BlockProfile& profile,
                                 std::size_t window, std::size_t jobs = 0);

/// A block profile and its windowed affinity, built together.
struct ProfileAffinity {
    BlockProfile profile;
    AffinityMatrix affinity;
};

/// Fused single pass: stream `source` once in O(chunk) memory,
/// producing both the block profile (reads/writes per block; geometry from
/// the source's summary) and the windowed co-access affinity. Equivalent
/// to BlockProfile::from_source + windowed_affinity — bit-identical
/// outputs — at roughly half the trace-replay cost. Long traces are
/// sharded over `jobs` threads with an in-order reduction.
ProfileAffinity build_profile_and_affinity(TraceSource& source, std::uint64_t block_size,
                                           std::size_t window, std::size_t jobs = 0);

}  // namespace memopt
