#include "trace/profile.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "support/bits.hpp"
#include "support/parallel.hpp"
#include "support/string_util.hpp"
#include "trace/source.hpp"

namespace memopt {

BlockProfile::BlockProfile(std::uint64_t block_size, std::size_t num_blocks)
    : block_size_(block_size) {
    require(is_pow2(block_size), "BlockProfile: block_size must be a power of two");
    require(num_blocks > 0, "BlockProfile: num_blocks must be > 0");
    counts_.assign(num_blocks, BlockCounts{});
}

ProfileGeometry profile_geometry(const TraceSummary& summary, std::uint64_t block_size) {
    const unsigned shift = log2_exact(block_size);
    // The span 2^span_log2 is the power-of-two ceiling of max_addr + 1,
    // and at least one block.
    const unsigned span_log2 =
        std::max(static_cast<unsigned>(std::bit_width(summary.max_addr)), shift);
    if (span_log2 >= 64 || span_log2 - shift >= 32)
        throw Error(format("profile: highest address 0x%llx needs a span of 2^%u bytes, "
                           "2^%u blocks of %llu bytes; a profile spans less than 2^64 bytes "
                           "in fewer than 2^32 blocks",
                           static_cast<unsigned long long>(summary.max_addr), span_log2,
                           span_log2 - shift, static_cast<unsigned long long>(block_size)));
    return {std::size_t{1} << (span_log2 - shift), shift};
}

BlockProfile BlockProfile::from_source(TraceSource& source, std::uint64_t block_size,
                                       std::size_t jobs) {
    require(is_pow2(block_size), "from_source: block_size must be a power of two");
    const TraceSummary& sum = source.summary();
    require(sum.accesses > 0, "from_source: empty trace");
    const auto [num_blocks, shift] = profile_geometry(sum, block_size);

    // Chunked columnar replay: only the addr and kind columns are read.
    // The span covers the summary's max_addr, and the TraceSource contract
    // guarantees every delivered access lies within the summary range
    // (file-backed sources validate each block's addresses against the
    // header summary before first delivery), so no per-access bounds check
    // is needed. Counts are integer sums reduced in task order, so the
    // result is bit-identical at any job count.
    struct Counts {
        std::vector<std::uint64_t> reads, writes;
    };
    const Counts total = stream_accumulate(
        source, 0, jobs, StreamMapping::Shards,
        [&](KeyPartition) {
            return Counts{std::vector<std::uint64_t>(num_blocks, 0),
                          std::vector<std::uint64_t>(num_blocks, 0)};
        },
        [&](Counts& c, const TraceChunk& chunk, std::span<const std::uint64_t>) {
            for (std::size_t i = 0; i < chunk.size(); ++i) {
                const auto block = static_cast<std::size_t>(chunk.addrs[i] >> shift);
                if (chunk.kinds[i] == AccessKind::Read) ++c.reads[block];
                else ++c.writes[block];
            }
        },
        [&](Counts& into, const Counts& from) {
            for (std::size_t b = 0; b < num_blocks; ++b) {
                into.reads[b] += from.reads[b];
                into.writes[b] += from.writes[b];
            }
        });

    BlockProfile profile(block_size, num_blocks);
    for (std::size_t b = 0; b < num_blocks; ++b) {
        if (total.reads[b] != 0 || total.writes[b] != 0)
            profile.add_counts(b, total.reads[b], total.writes[b]);
    }
    return profile;
}

const BlockCounts& BlockProfile::counts(std::size_t block) const {
    require(block < counts_.size(), "counts: block out of range");
    return counts_[block];
}

void BlockProfile::add_counts(std::size_t block, std::uint64_t reads, std::uint64_t writes) {
    require(block < counts_.size(), "add_counts: block out of range");
    counts_[block].reads += reads;
    counts_[block].writes += writes;
    total_accesses_ += reads + writes;
}

std::vector<std::size_t> BlockProfile::blocks_by_access_desc() const {
    std::vector<std::size_t> order(counts_.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return counts_[a].total() > counts_[b].total();
    });
    return order;
}

double BlockProfile::hot_fraction(std::size_t k) const {
    require(total_accesses() > 0, "hot_fraction on empty profile");
    if (k >= counts_.size()) return 1.0;
    const auto order = blocks_by_access_desc();
    std::uint64_t hot = 0;
    for (std::size_t i = 0; i < k; ++i) hot += counts_[order[i]].total();
    return static_cast<double>(hot) / static_cast<double>(total_accesses());
}

double BlockProfile::spatial_locality() const {
    // Measure how compact the access mass is: compute, for the minimum
    // number of blocks k90 that hold >= 90% of all accesses when free to
    // choose any blocks, the smallest contiguous window that actually holds
    // 90% of accesses. locality = k90 / window_size. A profile whose hot
    // blocks are contiguous scores ~1; scattered hot blocks score << 1.
    require(total_accesses() > 0, "spatial_locality on empty profile");
    const double target = 0.9 * static_cast<double>(total_accesses());

    // k90: minimal #blocks (unordered) reaching the target.
    const auto order = blocks_by_access_desc();
    std::uint64_t acc = 0;
    std::size_t k90 = 0;
    for (std::size_t i = 0; i < order.size() && static_cast<double>(acc) < target; ++i) {
        acc += counts_[order[i]].total();
        ++k90;
    }

    // Smallest contiguous window reaching the target (two-pointer sweep).
    std::size_t best_window = counts_.size();
    std::uint64_t window_sum = 0;
    std::size_t left = 0;
    for (std::size_t right = 0; right < counts_.size(); ++right) {
        window_sum += counts_[right].total();
        while (static_cast<double>(window_sum) >= target) {
            best_window = std::min(best_window, right - left + 1);
            window_sum -= counts_[left].total();
            ++left;
        }
    }
    MEMOPT_ASSERT(best_window >= k90);
    return static_cast<double>(k90) / static_cast<double>(best_window);
}

BlockProfile BlockProfile::merge(std::span<const BlockProfile> profiles,
                                 std::span<const double> weights) {
    require(!profiles.empty(), "merge: no profiles");
    require(weights.empty() || weights.size() == profiles.size(),
            "merge: weight count must match profile count");
    const std::uint64_t block_size = profiles.front().block_size();
    std::size_t num_blocks = 0;
    for (const BlockProfile& p : profiles) {
        require(p.block_size() == block_size, "merge: block size mismatch");
        num_blocks = std::max(num_blocks, p.num_blocks());
    }
    BlockProfile out(block_size, num_blocks);
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        const double w = weights.empty() ? 1.0 : weights[i];
        require(w >= 0.0, "merge: negative weight");
        for (std::size_t b = 0; b < profiles[i].num_blocks(); ++b) {
            const BlockCounts& c = profiles[i].counts(b);
            out.add_counts(b, static_cast<std::uint64_t>(static_cast<double>(c.reads) * w + 0.5),
                           static_cast<std::uint64_t>(static_cast<double>(c.writes) * w + 0.5));
        }
    }
    return out;
}

BlockProfile BlockProfile::permuted(std::span<const std::size_t> perm) const {
    require(perm.size() == counts_.size(), "permuted: permutation size mismatch");
    BlockProfile out(block_size_, counts_.size());
    std::vector<bool> seen(counts_.size(), false);
    for (std::size_t old_block = 0; old_block < perm.size(); ++old_block) {
        const std::size_t new_block = perm[old_block];
        require(new_block < counts_.size(), "permuted: target block out of range");
        require(!seen[new_block], "permuted: permutation is not a bijection");
        seen[new_block] = true;
        out.add_counts(new_block, counts_[old_block].reads, counts_[old_block].writes);
    }
    return out;
}

}  // namespace memopt
