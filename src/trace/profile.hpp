// Block-granularity access profiles.
//
// The partitioning and clustering engines operate on an address profile:
// the address space is divided into equal, power-of-two sized blocks, and
// the profile records the number of reads and writes falling into each
// block. This mirrors the "memory access profile" of DATE'03 1B-1.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "trace/trace.hpp"

namespace memopt {

class TraceSource;
struct TraceSummary;

/// Block geometry of a profile over a trace: `num_blocks` blocks of
/// 2^shift bytes cover [0, span), where span is the smallest power-of-two
/// multiple of the block size above the trace's highest address.
struct ProfileGeometry {
    std::size_t num_blocks;
    unsigned shift;  ///< log2(block_size): the block of `addr` is addr >> shift
};

/// The geometry BlockProfile::from_source sizes its counters from.
/// block_size must be a power of two. Throws memopt::Error, before the
/// caller allocates anything, when the span has no power-of-two ceiling in
/// 64 bits or the block count reaches 2^32 (AffinityAccumulator's block id
/// limit); the message names the highest address, the span, the block
/// size and the block count.
ProfileGeometry profile_geometry(const TraceSummary& summary, std::uint64_t block_size);

/// Per-block access counters.
struct BlockCounts {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;

    std::uint64_t total() const { return reads + writes; }
};

/// An address profile at block granularity.
///
/// Invariants: block_size is a power of two; the profile covers the address
/// range [0, num_blocks * block_size).
class BlockProfile {
public:
    /// Construct an empty profile covering `num_blocks` blocks of
    /// `block_size` bytes each. block_size must be a power of two,
    /// num_blocks > 0.
    BlockProfile(std::uint64_t block_size, std::size_t num_blocks);

    /// Build a profile from one chunked replay of `source` in O(chunk)
    /// memory (plus the profile itself); wrap an in-memory trace in a
    /// MaterializedSource. The covered span is profile_geometry() of the
    /// source's summary (which throws for spans too large to profile).
    /// block_size must be a power of two. Long traces are
    /// replayed sharded over `jobs` threads (0 = default_jobs()) with an
    /// in-order reduction; counts are integer sums, so the result is
    /// bit-identical at any job count and chunk size.
    static BlockProfile from_source(TraceSource& source, std::uint64_t block_size,
                                    std::size_t jobs = 0);

    std::uint64_t block_size() const { return block_size_; }
    std::size_t num_blocks() const { return counts_.size(); }
    std::uint64_t span_bytes() const { return block_size_ * counts_.size(); }

    const BlockCounts& counts(std::size_t block) const;

    /// Directly add counts to a block (used by synthetic profile builders).
    void add_counts(std::size_t block, std::uint64_t reads, std::uint64_t writes);

    std::uint64_t total_accesses() const { return total_accesses_; }

    /// Blocks ordered by descending total access count (stable for ties).
    std::vector<std::size_t> blocks_by_access_desc() const;

    /// Fraction of all accesses that fall into the `k` hottest blocks.
    /// Returns 1.0 for k >= num_blocks; requires at least one access.
    double hot_fraction(std::size_t k) const;

    /// Spatial-locality score in [0,1]: 1 when all accesses are packed into
    /// the smallest possible prefix of contiguous blocks, lower when the hot
    /// blocks are scattered. Defined as the ratio between the actual
    /// "profile concentration" and the best achievable one:
    ///   concentration(P) = sum_i a_i * a_i  over contiguous-window sums —
    /// here approximated by comparing the energy-weighted span of the
    /// hottest blocks against their count (see implementation notes).
    double spatial_locality() const;

    /// Returns a copy of this profile with blocks permuted by `perm`,
    /// where perm[old_block] = new_block. `perm` must be a bijection on
    /// [0, num_blocks).
    BlockProfile permuted(std::span<const std::size_t> perm) const;

    /// Merge several profiles into one (multi-application memory synthesis:
    /// the bank architecture is shared, so the combined profile is the
    /// weighted sum of the per-application profiles). All inputs must share
    /// the block size; the result spans the largest input. `weights` scales
    /// each profile's counts (rounded to the nearest integer); pass an empty
    /// span for all-ones.
    static BlockProfile merge(std::span<const BlockProfile> profiles,
                              std::span<const double> weights = {});

private:
    std::uint64_t block_size_;
    std::vector<BlockCounts> counts_;
    std::uint64_t total_accesses_ = 0;
};

}  // namespace memopt
