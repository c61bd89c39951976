#include "cluster/affinity_cluster.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "support/assert.hpp"

namespace memopt {

namespace {

/// Indexed binary max-heap of blocks ordered by (score desc, block asc):
/// the top is the block a linear argmax with a first-index tie-break picks.
/// pos_ maps a block to its heap slot (kAbsent when not in the heap), so a
/// block whose score changed is re-keyed in place in O(log n).
class BlockHeap {
public:
    struct Entry {
        double score;
        std::size_t block;
    };

    /// Heapify `entries` (distinct blocks < num_blocks).
    BlockHeap(std::vector<Entry> entries, std::size_t num_blocks)
        : heap_(std::move(entries)), pos_(num_blocks, kAbsent) {
        for (std::size_t i = 0; i < heap_.size(); ++i) pos_[heap_[i].block] = i;
        for (std::size_t i = heap_.size() / 2; i-- > 0;) sift_down(i);
    }

    bool empty() const { return heap_.empty(); }
    bool contains(std::size_t block) const { return pos_[block] != kAbsent; }

    /// Remove and return the best block.
    std::size_t pop() {
        MEMOPT_ASSERT(!heap_.empty());
        const std::size_t top = heap_.front().block;
        pos_[top] = kAbsent;
        const Entry last = heap_.back();
        heap_.pop_back();
        if (!heap_.empty()) {
            heap_.front() = last;
            sift_down(0);
        }
        return top;
    }

    /// Re-key `block` (which must be in the heap) to `score`.
    void update(std::size_t block, double score) {
        const std::size_t i = pos_[block];
        MEMOPT_ASSERT(i != kAbsent);
        heap_[i].score = score;
        if (i > 0 && before(heap_[i], heap_[(i - 1) / 2])) sift_up(i);
        else sift_down(i);
    }

private:
    static constexpr std::size_t kAbsent = SIZE_MAX;

    static bool before(const Entry& a, const Entry& b) {
        return a.score > b.score || (a.score == b.score && a.block < b.block);
    }

    void place(std::size_t i, const Entry& e) {
        heap_[i] = e;
        pos_[e.block] = i;
    }

    void sift_up(std::size_t i) {
        const Entry e = heap_[i];
        while (i > 0) {
            const std::size_t parent = (i - 1) / 2;
            if (!before(e, heap_[parent])) break;
            place(i, heap_[parent]);
            i = parent;
        }
        place(i, e);
    }

    void sift_down(std::size_t i) {
        const Entry e = heap_[i];
        const std::size_t size = heap_.size();
        for (std::size_t child = 2 * i + 1; child < size; child = 2 * i + 1) {
            if (child + 1 < size && before(heap_[child + 1], heap_[child])) ++child;
            if (!before(heap_[child], e)) break;
            place(i, heap_[child]);
            i = child;
        }
        place(i, e);
    }

    std::vector<Entry> heap_;
    std::vector<std::size_t> pos_;
};

}  // namespace

AddressMap affinity_clustering(const BlockProfile& profile, const AffinityMatrix& affinity,
                               const AffinityClusterParams& params) {
    require(affinity.num_blocks() == profile.num_blocks(),
            "affinity_clustering: affinity matrix does not match profile");
    require(params.tail_window >= 1, "affinity_clustering: tail_window must be >= 1");
    const std::size_t n = profile.num_blocks();

    // Normalization constants.
    std::uint64_t max_count = 0;
    for (std::size_t b = 0; b < n; ++b)
        max_count = std::max(max_count, profile.counts(b).total());
    const double max_affinity = affinity.max_offdiagonal();

    const auto heat = [&](std::size_t b) {
        return max_count == 0
                   ? 0.0
                   : static_cast<double>(profile.counts(b).total()) / static_cast<double>(max_count);
    };

    // Hot blocks are chained greedily; cold (zero-access) blocks keep their
    // original relative order at the tail.
    std::vector<std::size_t> hot;
    std::vector<std::size_t> cold;
    for (std::size_t b = 0; b < n; ++b) {
        (profile.counts(b).total() > 0 ? hot : cold).push_back(b);
    }

    std::vector<std::size_t> chain;
    chain.reserve(hot.size());

    if (!hot.empty()) {
        // Seed: hottest block (stable for ties).
        std::size_t seed = hot.front();
        for (std::size_t b : hot) {
            if (profile.counts(b).total() > profile.counts(seed).total()) seed = b;
        }

        // attraction[b] is the affinity of b to the blocks currently inside
        // the tail window. Each placement and eviction changes it only for
        // the member's neighbours, so only those are re-scored and re-keyed
        // in the heap: O((n + sum of degrees) * log n) for the whole chain.
        // Affinity weights are integer co-access counts, so the running
        // add/subtract bookkeeping is exact, every score equals a fresh
        // evaluation, and the heap's (score desc, block asc) top is the
        // block a linear scan over the unplaced hot blocks would pick.
        std::vector<double> attraction(n, 0.0);
        const auto score = [&](std::size_t b) {
            double aff = attraction[b];
            if (max_affinity > 0.0) aff /= max_affinity * static_cast<double>(params.tail_window);
            return aff + params.frequency_weight * heat(b);
        };
        std::vector<BlockHeap::Entry> unplaced;
        unplaced.reserve(hot.size() - 1);
        for (std::size_t b : hot) {
            if (b != seed) unplaced.push_back({score(b), b});
        }
        BlockHeap heap(std::move(unplaced), n);

        auto tail_update = [&](std::size_t member, double sign) {
            affinity.for_each_neighbor(member, [&](std::size_t b, double w) {
                attraction[b] += sign * w;
                if (heap.contains(b)) heap.update(b, score(b));
            });
        };

        chain.push_back(seed);
        tail_update(seed, 1.0);

        while (!heap.empty()) {
            chain.push_back(heap.pop());
            tail_update(chain.back(), 1.0);
            if (chain.size() > params.tail_window)
                tail_update(chain[chain.size() - 1 - params.tail_window], -1.0);
        }
    }

    std::vector<std::size_t> perm(n, SIZE_MAX);
    std::size_t position = 0;
    for (std::size_t b : chain) perm[b] = position++;
    for (std::size_t b : cold) perm[b] = position++;
    MEMOPT_ASSERT(position == n);
    return AddressMap(profile.block_size(), std::move(perm));
}

}  // namespace memopt
