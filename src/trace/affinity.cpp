#include "trace/affinity.hpp"

#include <algorithm>
#include <utility>

#include "support/assert.hpp"
#include "support/bits.hpp"
#include "support/parallel.hpp"
#include "trace/source.hpp"

namespace memopt {

namespace {

std::size_t block_of_checked(std::uint64_t addr, unsigned shift, std::size_t num_blocks) {
    const auto block = static_cast<std::size_t>(addr >> shift);
    require(block < num_blocks, "block_of: address outside profile span");
    return block;
}

/// Sliding co-access window over a chunked replay: pre-warmed from the
/// up-to-`window - 1` addresses preceding the chunk (`context`), so the
/// pairs a chunk forms are exactly the ones the serial replay forms at the
/// same positions — chunk boundaries are invisible in the pair multiset.
/// `on_access(i, block)` sees each access of the chunk before it pairs.
template <typename OnAccess>
void windowed_chunk(const TraceChunk& chunk, std::span<const std::uint64_t> context,
                    std::size_t window, unsigned shift, std::size_t num_blocks,
                    AffinityAccumulator& acc, const OnAccess& on_access) {
    const std::size_t cap = window - 1;
    std::vector<std::size_t> ring(cap);
    std::size_t count = 0;  // occupied slots
    std::size_t next = 0;   // slot holding the oldest entry once full
    auto push = [&](std::size_t block) {
        ring[next] = block;
        next = (next + 1) % cap;
        if (count < cap) ++count;
    };
    const std::size_t skip = context.size() > cap ? context.size() - cap : 0;
    for (std::size_t i = skip; i < context.size(); ++i)
        push(block_of_checked(context[i], shift, num_blocks));
    for (std::size_t i = 0; i < chunk.size(); ++i) {
        const std::size_t block = block_of_checked(chunk.addrs[i], shift, num_blocks);
        on_access(i, block);
        for (std::size_t k = 0; k < count; ++k) {
            if (ring[k] != block) acc.add(ring[k], block);
        }
        push(block);
    }
}

}  // namespace

// ---------------------------------------------------------------------------
// AffinityMatrix

AffinityMatrix::AffinityMatrix(std::size_t num_blocks)
    : n_(num_blocks), row_ptr_(num_blocks + 1, 0) {
    require(num_blocks > 0, "AffinityMatrix: num_blocks must be > 0");
}

std::size_t AffinityMatrix::stored_pairs() const {
    std::size_t diagonal = 0;
    for (std::size_t a = 0; a < n_; ++a) {
        if (at(a, a) != 0.0) ++diagonal;
    }
    return (col_.size() - diagonal) / 2 + diagonal;
}

double AffinityMatrix::at(std::size_t a, std::size_t b) const {
    require(a < n_ && b < n_, "AffinityMatrix::at out of range");
    const auto first = col_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[a]);
    const auto last = col_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[a + 1]);
    const auto it = std::lower_bound(first, last, static_cast<std::uint32_t>(b));
    if (it == last || *it != b) return 0.0;
    return val_[static_cast<std::size_t>(it - col_.begin())];
}

double AffinityMatrix::total() const {
    double sum = 0.0;
    for (std::size_t a = 0; a < n_; ++a) {
        for (std::size_t e = row_ptr_[a]; e < row_ptr_[a + 1]; ++e) {
            if (col_[e] >= a) sum += val_[e];
        }
    }
    return sum;
}

double AffinityMatrix::max_offdiagonal() const {
    double best = 0.0;
    for (std::size_t a = 0; a < n_; ++a) {
        for (std::size_t e = row_ptr_[a]; e < row_ptr_[a + 1]; ++e) {
            if (col_[e] > a) best = std::max(best, val_[e]);
        }
    }
    return best;
}

// ---------------------------------------------------------------------------
// AffinityAccumulator

namespace {

constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};
constexpr unsigned kInitialSlotsLog2 = 10;

}  // namespace

AffinityAccumulator::AffinityAccumulator(std::size_t num_blocks)
    : n_(num_blocks), dense_(num_blocks <= kAffinityDenseMaxBlocks) {
    require(num_blocks > 0, "AffinityAccumulator: num_blocks must be > 0");
    // Block ids below 2^32 - 1 keep every packed key below kEmptyKey.
    require(static_cast<std::uint64_t>(num_blocks) < (std::uint64_t{1} << 32),
            "AffinityAccumulator: num_blocks must be < 2^32");
    if (dense_) {
        tri_.assign(n_ * (n_ + 1) / 2, 0);
    } else {
        slots_.assign(std::size_t{1} << kInitialSlotsLog2, Slot{kEmptyKey, 0});
        hash_shift_ = 64 - kInitialSlotsLog2;
    }
}

void AffinityAccumulator::add(std::size_t a, std::size_t b) {
    if (a > b) std::swap(a, b);
    MEMOPT_ASSERT(b < n_);
    if (dense_) ++tri_[a * n_ - a * (a + 1) / 2 + b];
    else add_to_slot((static_cast<std::uint64_t>(a) << 32) | b, 1);
}

void AffinityAccumulator::add_to_slot(std::uint64_t key, std::uint64_t count) {
    // Fibonacci hashing: the top bits of key * 2^64/phi pick the home slot.
    const std::size_t mask = slots_.size() - 1;
    auto i = static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> hash_shift_);
    while (slots_[i].key != key && slots_[i].key != kEmptyKey) i = (i + 1) & mask;
    if (slots_[i].key == key) {
        slots_[i].count += count;
    } else if (4 * (occupied_ + 1) > 3 * slots_.size()) {
        grow();
        add_to_slot(key, count);
    } else {
        slots_[i] = Slot{key, count};
        ++occupied_;
    }
}

void AffinityAccumulator::grow() {
    const std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(2 * slots_.size(), Slot{kEmptyKey, 0}));
    --hash_shift_;
    occupied_ = 0;
    for (const Slot& s : old) {
        if (s.key != kEmptyKey) add_to_slot(s.key, s.count);
    }
}

void AffinityAccumulator::merge(const AffinityAccumulator& other) {
    require(other.n_ == n_ && other.dense_ == dense_,
            "AffinityAccumulator::merge: shape mismatch");
    if (dense_) {
        for (std::size_t i = 0; i < tri_.size(); ++i) tri_[i] += other.tri_[i];
    } else {
        // Grow for the worst-case union first. other's slots come out in
        // home-slot order, and a table that had to grow midway would take
        // them at its old size, stacking them into one long probe run.
        while (4 * (occupied_ + other.occupied_) > 3 * slots_.size()) grow();
        for (const Slot& s : other.slots_) {
            if (s.key != kEmptyKey) add_to_slot(s.key, s.count);
        }
    }
}

AffinityMatrix AffinityAccumulator::finalize() {
    // Collect the upper-triangle pairs sorted by (row, col), then scatter
    // each into both adjacency rows. Processing pairs in ascending (a, b)
    // order fills every row's columns in ascending order: row r first
    // receives its below-diagonal neighbours (from pairs whose larger
    // element is r, arriving as the smaller element ascends), then its
    // above-diagonal neighbours (from its own row's pairs).
    std::vector<Slot> sorted;
    if (dense_) {
        const std::vector<std::uint64_t> tri = std::exchange(tri_, {});
        for (std::size_t a = 0; a < n_; ++a) {
            const std::size_t row_base = a * n_ - a * (a + 1) / 2;
            for (std::size_t b = a; b < n_; ++b) {
                if (tri[row_base + b] != 0)
                    sorted.push_back(
                        Slot{(static_cast<std::uint64_t>(a) << 32) | b, tri[row_base + b]});
            }
        }
    } else {
        // Compact the table in place and hand its empty slots back before
        // the CSR arrays are allocated; the sort erases the slot order.
        sorted = std::exchange(slots_, {});
        occupied_ = 0;
        std::erase_if(sorted, [](const Slot& s) { return s.key == kEmptyKey; });
        sorted.shrink_to_fit();
        std::sort(sorted.begin(), sorted.end(),
                  [](const Slot& x, const Slot& y) { return x.key < y.key; });
    }

    AffinityMatrix m(n_);
    for (const Slot& s : sorted) {
        const auto a = static_cast<std::size_t>(s.key >> 32);
        const auto b = static_cast<std::size_t>(s.key & 0xFFFFFFFFu);
        ++m.row_ptr_[a + 1];
        if (a != b) ++m.row_ptr_[b + 1];
    }
    for (std::size_t a = 0; a < n_; ++a) m.row_ptr_[a + 1] += m.row_ptr_[a];
    const std::size_t nnz = m.row_ptr_[n_];
    m.col_.assign(nnz, 0);
    m.val_.assign(nnz, 0.0);
    std::vector<std::size_t> cursor(m.row_ptr_.begin(), m.row_ptr_.end() - 1);
    for (const Slot& s : sorted) {
        const auto a = static_cast<std::size_t>(s.key >> 32);
        const auto b = static_cast<std::size_t>(s.key & 0xFFFFFFFFu);
        const auto w = static_cast<double>(s.count);
        m.col_[cursor[a]] = static_cast<std::uint32_t>(b);
        m.val_[cursor[a]] = w;
        ++cursor[a];
        if (a != b) {
            m.col_[cursor[b]] = static_cast<std::uint32_t>(a);
            m.val_[cursor[b]] = w;
            ++cursor[b];
        }
    }
    return m;
}

// ---------------------------------------------------------------------------
// Builders

AffinityMatrix windowed_affinity(TraceSource& source, const BlockProfile& profile,
                                 std::size_t window, std::size_t jobs) {
    require(window >= 2, "windowed_affinity: window must be >= 2");
    const unsigned shift = log2_exact(profile.block_size());
    const std::size_t num_blocks = profile.num_blocks();
    AffinityAccumulator acc = stream_accumulate(
        source, window - 1, jobs, [&] { return AffinityAccumulator(num_blocks); },
        [&](AffinityAccumulator& out, const TraceChunk& chunk,
            std::span<const std::uint64_t> context) {
            windowed_chunk(chunk, context, window, shift, num_blocks, out,
                           [](std::size_t, std::size_t) {});
        },
        [](AffinityAccumulator& into, const AffinityAccumulator& from) { into.merge(from); });
    return acc.finalize();
}

ProfileAffinity build_profile_and_affinity(TraceSource& source, std::uint64_t block_size,
                                           std::size_t window, std::size_t jobs) {
    require(is_pow2(block_size), "build_profile_and_affinity: block_size must be a power of two");
    require(window >= 2, "build_profile_and_affinity: window must be >= 2");
    const TraceSummary& sum = source.summary();
    require(sum.accesses > 0, "build_profile_and_affinity: empty trace");

    const std::uint64_t span = std::max<std::uint64_t>(sum.span_pow2(), block_size);
    const auto num_blocks = static_cast<std::size_t>(span / block_size);
    const unsigned shift = log2_exact(block_size);

    // One fused chunked pass: block counts and window pairs together, so
    // the trace's addr column is streamed once instead of twice. All sums
    // are integer-valued and reduced in task order — bit-identical at any
    // job count and to the unfused builders.
    struct Shard {
        std::vector<std::uint64_t> reads;
        std::vector<std::uint64_t> writes;
        AffinityAccumulator acc;
    };
    Shard merged = stream_accumulate(
        source, window - 1, jobs,
        [&] {
            return Shard{std::vector<std::uint64_t>(num_blocks, 0),
                         std::vector<std::uint64_t>(num_blocks, 0),
                         AffinityAccumulator(num_blocks)};
        },
        [&](Shard& shard, const TraceChunk& chunk, std::span<const std::uint64_t> context) {
            windowed_chunk(chunk, context, window, shift, num_blocks, shard.acc,
                           [&](std::size_t i, std::size_t block) {
                               if (chunk.kinds[i] == AccessKind::Read) ++shard.reads[block];
                               else ++shard.writes[block];
                           });
        },
        [&](Shard& into, const Shard& from) {
            for (std::size_t b = 0; b < num_blocks; ++b) {
                into.reads[b] += from.reads[b];
                into.writes[b] += from.writes[b];
            }
            into.acc.merge(from.acc);
        });

    BlockProfile profile(block_size, num_blocks);
    for (std::size_t b = 0; b < num_blocks; ++b) {
        if (merged.reads[b] != 0 || merged.writes[b] != 0)
            profile.add_counts(b, merged.reads[b], merged.writes[b]);
    }
    return ProfileAffinity{std::move(profile), merged.acc.finalize()};
}

}  // namespace memopt
