// Temporal affinity between profile blocks.
//
// Affinity clustering (DATE'03 1B-1 flavour) needs to know which blocks are
// accessed close together in time: placing such blocks in the same bank lets
// the other banks stay idle for long stretches. This module computes a
// windowed co-access affinity matrix (a window of 2 counts consecutive-
// access block transitions) from one streaming replay of the trace, over
// the block geometry of its BlockProfile.
//
// The matrix is a compressed-sparse-row (CSR) adjacency of uint32_t
// co-access counts: a windowed trace replay touches O(accesses * window)
// pairs, typically a tiny fraction of the n^2 possible ones, and the greedy
// chain walks each block's neighbours.
//
// The builder counts pairs as uint64_t in an AffinityAccumulator: a dense
// triangle for small block counts, flat open-addressing tables of packed
// pair keys above that. Each access costs O(window) expected-O(1) counter
// updates, finalize() sorts the P distinct pairs once (O(P log P)), and
// memory follows P, not n^2.
//
// The builder runs one sliding-window kernel per chunk through
// stream_accumulate (trace/source.hpp), and the accumulator's layout picks
// the mapping. The dense triangle shards the trace: each chunk's window is
// pre-warmed from the accesses preceding it, and the per-task triangles sum
// in task order. The tables partition the pair keys: every task replays
// every chunk but keeps only the keys of its partition, so the J tables
// hold each pair once at any job count, and finalize() merges their sorted
// runs straight into the CSR. Counts are integers, so results are
// bit-identical at any job count and chunk size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "trace/profile.hpp"
#include "trace/source.hpp"
#include "trace/trace.hpp"

namespace memopt {

/// Block counts at or below this count pairs in AffinityAccumulator's
/// dense triangle; larger ones use its hash tables.
inline constexpr std::size_t kAffinityDenseMaxBlocks = 1024;

/// Symmetric block-affinity matrix in CSR form. AffinityAccumulator::
/// finalize() builds it; it is immutable afterwards.
class AffinityMatrix {
public:
    /// The n-block matrix with no affinity between any blocks.
    explicit AffinityMatrix(std::size_t num_blocks);

    std::size_t num_blocks() const { return n_; }

    /// Number of stored unordered block pairs with non-zero affinity
    /// (diagonal included when present). O(n log degree).
    std::size_t stored_pairs() const;

    /// Co-access count of blocks a and b (symmetric; diagonal allowed).
    double at(std::size_t a, std::size_t b) const;

    /// Total affinity mass (sum over unordered pairs, diagonal included once).
    double total() const;

    /// Largest off-diagonal entry, at least 0.0 (the greedy chain's
    /// normalization constant).
    double max_offdiagonal() const;

    /// Invoke fn(b, w) for every block b != a with a non-zero co-access
    /// count w (std::uint32_t) to `a`, in ascending block order. O(degree).
    template <typename Fn>
    void for_each_neighbor(std::size_t a, Fn&& fn) const {
        require(a < n_, "AffinityMatrix::for_each_neighbor out of range");
        for (std::size_t e = row_ptr_[a]; e < row_ptr_[a + 1]; ++e) {
            const std::size_t b = col_[e];
            if (b != a) fn(b, val_[e]);
        }
    }

private:
    friend class AffinityAccumulator;

    std::size_t n_;
    // The full symmetric adjacency: each off-diagonal pair is stored in both
    // rows, the diagonal once, and every row's columns ascend.
    std::vector<std::size_t> row_ptr_;  // n_ + 1
    std::vector<std::uint32_t> col_;
    std::vector<std::uint32_t> val_;
};

/// Co-access pair counter: windowed_affinity's task-local sink. Counts
/// unordered (a, b) pairs (a == b allowed) as uint64_t and finalizes into
/// the CSR matrix.
///
/// Up to kAffinityDenseMaxBlocks blocks the counts live in the dense
/// triangle, and the accumulator counts every pair. Above it they live in
/// one flat open-addressing table per key partition: packed
/// (min << 32 | max) keys, linear probing over a power-of-two capacity
/// that doubles whenever an insert would push the load factor above 3/4.
/// An accumulator counts the pairs of one key partition (all of them by
/// default) and drops the others; merge() joins the tables of other
/// partitions into it. Slot order depends on the insertion order, so
/// finalize() sorts each table by key before it emits CSR.
class AffinityAccumulator {
public:
    /// Counts the pairs of key partition `part` (every pair by default).
    /// Requires 0 < num_blocks < 2^32 (Error otherwise): a key packs two
    /// 32-bit block ids, and the all-ones key marks an empty slot. The
    /// dense triangle counts whole: it requires part.count == 1.
    explicit AffinityAccumulator(std::size_t num_blocks, KeyPartition part = {});

    /// The stream_accumulate mapping for `num_blocks`: trace shards for the
    /// dense triangle, whose per-task copies are small and sum cheaply; key
    /// partitions for the tables, which then hold each pair once.
    static StreamMapping mapping(std::size_t num_blocks) {
        return num_blocks <= kAffinityDenseMaxBlocks ? StreamMapping::Shards
                                                     : StreamMapping::Keys;
    }

    std::size_t num_blocks() const { return n_; }

    /// Count `count` co-accesses of blocks a and b, unless their pair falls
    /// outside the accumulator's key partition.
    void add(std::size_t a, std::size_t b, std::uint64_t count = 1);

    /// Count one co-access of `block` with each block of `window` other
    /// than itself: the pairs one access forms with the accesses before
    /// it. Same counts as add() per slot; the pairs of the accumulator's
    /// key partition are picked without a branch per slot.
    void add_window(std::span<const std::size_t> window, std::size_t block);

    /// Fold `other`'s counts into this accumulator, consuming `other`.
    /// Dense triangles add up; the tables of disjoint key partitions join
    /// without a probe (overlapping partitions are an Error), and the
    /// accumulator goes on counting its own partition only. Call in task
    /// order for a deterministic reduction.
    void merge(AffinityAccumulator&& other);

    /// Finalize into the CSR matrix, compacting and sorting the tables in
    /// parallel over `jobs` threads (0 = default_jobs()). Throws Error if a
    /// pair's count exceeds 2^32 - 1, the CSR weight limit. Consumes the
    /// counts: the accumulator must not count again.
    AffinityMatrix finalize(std::size_t jobs = 0);

private:
    struct Slot {
        std::uint64_t key;
        std::uint64_t count;
    };

    /// The counts of one key partition. Aligned to a cache line: the task
    /// states each write their own table's `occupied` on every new pair,
    /// and must not share a line.
    struct alignas(64) PairTable {
        std::vector<Slot> slots;  // empty: a partition neither counted nor joined
        std::size_t occupied = 0;  // non-empty slots
        unsigned hash_shift = 0;   // 64 - log2(slots.size())

        /// Add `count` to the entry of `key`, inserting it if absent.
        void add(std::uint64_t key, std::uint64_t count);
        void grow();
    };

    std::size_t n_;
    bool dense_;
    KeyPartition part_;               // the partition add() and add_window() count
    std::vector<std::uint64_t> tri_;  // dense counts, upper triangle
    std::vector<PairTable> tables_;   // sparse counts, one table per key partition
    std::vector<std::uint64_t> window_keys_;  // add_window's gathered keys
};

/// Build a windowed co-access affinity from one chunked replay of `source`
/// in O(chunk) memory, using the block geometry of `profile`: for a sliding
/// window of `window` consecutive accesses, every unordered pair of
/// distinct blocks that co-occurs in the window gains affinity 1 (counted
/// once per window position where the pair is formed with the newest
/// access). `window >= 2`; a window of 2 counts the transitions between
/// consecutive accesses. Accesses outside the profile span are rejected
/// (Error). Long traces are counted over `jobs` threads (0 =
/// default_jobs()) in trace shards or key partitions, as
/// AffinityAccumulator::mapping() picks; results are bit-identical at any
/// job count and chunk size.
AffinityMatrix windowed_affinity(TraceSource& source, const BlockProfile& profile,
                                 std::size_t window, std::size_t jobs = 0);

}  // namespace memopt
