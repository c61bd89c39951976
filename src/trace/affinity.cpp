#include "trace/affinity.hpp"

#include <algorithm>
#include <functional>
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
void windowed_chunk(const TraceChunk& chunk, std::span<const std::uint64_t> context,
                    std::size_t window, unsigned shift, std::size_t num_blocks,
                    AffinityAccumulator& acc) {
    const std::size_t cap = window - 1;
    std::vector<std::size_t> ring(cap);
    std::size_t count = 0;  // occupied slots
    std::size_t next = 0;   // slot holding the oldest entry once full
    auto push = [&](std::size_t block) {
        ring[next] = block;
        if (++next == cap) next = 0;
        if (count < cap) ++count;
    };
    const std::size_t skip = context.size() > cap ? context.size() - cap : 0;
    for (std::size_t i = skip; i < context.size(); ++i)
        push(block_of_checked(context[i], shift, num_blocks));
    for (std::size_t i = 0; i < chunk.size(); ++i) {
        const std::size_t block = block_of_checked(chunk.addrs[i], shift, num_blocks);
        acc.add_window(std::span<const std::size_t>(ring.data(), count), block);
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
    std::uint64_t sum = 0;
    for (std::size_t a = 0; a < n_; ++a) {
        for (std::size_t e = row_ptr_[a]; e < row_ptr_[a + 1]; ++e) {
            if (col_[e] >= a) sum += val_[e];
        }
    }
    return static_cast<double>(sum);
}

double AffinityMatrix::max_offdiagonal() const {
    std::uint32_t best = 0;
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

/// Key partition of a packed pair key among `count`: the top 32 bits of a
/// multiplicative hash, scaled onto [0, count). Its multiplier is not the
/// table's, so the keys of one partition still spread over all home slots.
std::size_t partition_of(std::uint64_t key, std::size_t count) {
    return static_cast<std::size_t>(((key * 0xBF58476D1CE4E5B9ull) >> 32) * count >> 32);
}

}  // namespace

AffinityAccumulator::AffinityAccumulator(std::size_t num_blocks, KeyPartition part)
    : n_(num_blocks), dense_(num_blocks <= kAffinityDenseMaxBlocks), part_(part) {
    require(num_blocks > 0, "AffinityAccumulator: num_blocks must be > 0");
    // Block ids below 2^32 - 1 keep every packed key below kEmptyKey.
    require(static_cast<std::uint64_t>(num_blocks) < (std::uint64_t{1} << 32),
            "AffinityAccumulator: num_blocks must be < 2^32");
    require(part.index < part.count, "AffinityAccumulator: key partition out of range");
    if (dense_) {
        require(part.count == 1, "AffinityAccumulator: the dense triangle counts every pair");
        tri_.assign(n_ * (n_ + 1) / 2, 0);
    } else {
        tables_.resize(part.count);
        PairTable& table = tables_[part.index];
        table.slots.assign(std::size_t{1} << kInitialSlotsLog2, Slot{kEmptyKey, 0});
        table.hash_shift = 64 - kInitialSlotsLog2;
    }
}

void AffinityAccumulator::add(std::size_t a, std::size_t b, std::uint64_t count) {
    if (a > b) std::swap(a, b);
    MEMOPT_ASSERT(b < n_);
    if (dense_) {
        tri_[a * n_ - a * (a + 1) / 2 + b] += count;
        return;
    }
    const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
    if (partition_of(key, part_.count) == part_.index) tables_[part_.index].add(key, count);
}

void AffinityAccumulator::add_window(std::span<const std::size_t> window, std::size_t block) {
    MEMOPT_ASSERT(block < n_);
    if (dense_) {
        for (const std::size_t other : window) {
            MEMOPT_ASSERT(other < n_);
            const std::size_t a = std::min(other, block);
            const std::size_t b = std::max(other, block);
            if (a != b) ++tri_[a * n_ - a * (a + 1) / 2 + b];
        }
        return;
    }
    // Gather the keys of the accumulator's partition, then insert them. The
    // gather has no branch per slot: whether a pair spans two blocks, and
    // whether it falls in the partition (1 in J for a task's state), are
    // unpredictable. The partition test is arithmetic on the key and loads
    // nothing, so one partition of one costs what a plain insert loop does.
    PairTable& table = tables_[part_.index];
    if (window_keys_.size() < window.size()) window_keys_.resize(window.size());
    std::uint64_t* const keys = window_keys_.data();
    std::size_t kept = 0;
    for (const std::size_t other : window) {
        MEMOPT_ASSERT(other < n_);
        const std::uint64_t lo = std::min(other, block);
        const std::uint64_t hi = std::max(other, block);
        const std::uint64_t key = (lo << 32) | hi;
        keys[kept] = key;
        kept += static_cast<std::size_t>(lo != hi) &
                static_cast<std::size_t>(partition_of(key, part_.count) == part_.index);
    }
    for (std::size_t k = 0; k < kept; ++k) table.add(keys[k], 1);
}

void AffinityAccumulator::PairTable::add(std::uint64_t key, std::uint64_t count) {
    // Fibonacci hashing: the top bits of key * 2^64/phi pick the home slot.
    const std::size_t mask = slots.size() - 1;
    auto i = static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> hash_shift);
    while (slots[i].key != key && slots[i].key != kEmptyKey) i = (i + 1) & mask;
    if (slots[i].key == key) {
        slots[i].count += count;
    } else if (4 * (occupied + 1) > 3 * slots.size()) {
        grow();
        add(key, count);
    } else {
        slots[i] = Slot{key, count};
        ++occupied;
    }
}

void AffinityAccumulator::PairTable::grow() {
    const std::vector<Slot> old =
        std::exchange(slots, std::vector<Slot>(2 * slots.size(), Slot{kEmptyKey, 0}));
    --hash_shift;
    occupied = 0;
    for (const Slot& s : old) {
        if (s.key != kEmptyKey) add(s.key, s.count);
    }
}

void AffinityAccumulator::merge(AffinityAccumulator&& other) {
    require(other.n_ == n_ && other.tables_.size() == tables_.size(),
            "AffinityAccumulator::merge: shape mismatch");
    if (dense_) {
        for (std::size_t i = 0; i < tri_.size(); ++i) tri_[i] += other.tri_[i];
        return;
    }
    for (std::size_t p = 0; p < tables_.size(); ++p) {
        if (other.tables_[p].slots.empty()) continue;
        require(tables_[p].slots.empty(), "AffinityAccumulator::merge: key partitions overlap");
        tables_[p] = std::move(other.tables_[p]);
    }
}

AffinityMatrix AffinityAccumulator::finalize(std::size_t jobs) {
    // Runs of distinct pairs in ascending key order: the triangle walk
    // yields one, and each held key partition another.
    std::vector<std::vector<Slot>> runs;
    if (dense_) {
        const std::vector<std::uint64_t> tri = std::exchange(tri_, {});
        std::vector<Slot>& run = runs.emplace_back();
        for (std::size_t a = 0; a < n_; ++a) {
            const std::size_t row_base = a * n_ - a * (a + 1) / 2;
            for (std::size_t b = a; b < n_; ++b) {
                const std::uint64_t count = tri[row_base + b];
                if (count != 0)
                    run.push_back(Slot{(static_cast<std::uint64_t>(a) << 32) | b, count});
            }
        }
    } else {
        for (PairTable& table : tables_) {
            if (!table.slots.empty()) runs.push_back(std::exchange(table, PairTable{}).slots);
        }
        // Compact and sort every table in place, in parallel; the sort
        // erases the slot order. Then hand each table's empty slots back,
        // one table at a time, before the CSR arrays are allocated.
        parallel_for(
            runs.size(),
            [&](std::size_t r) {
                std::erase_if(runs[r], [](const Slot& s) { return s.key == kEmptyKey; });
                std::sort(runs[r].begin(), runs[r].end(),
                          [](const Slot& x, const Slot& y) { return x.key < y.key; });
            },
            jobs);
        for (std::vector<Slot>& run : runs) run.shrink_to_fit();
    }

    // Degrees first, then a merge of the runs in ascending (a, b) order that
    // scatters each pair into both adjacency rows. That order fills every
    // row's columns in ascending order: row r first receives its
    // below-diagonal neighbours (from pairs whose larger element is r,
    // arriving as the smaller element ascends), then its above-diagonal
    // neighbours (from its own row's pairs).
    AffinityMatrix m(n_);
    for (const std::vector<Slot>& run : runs) {
        for (const Slot& s : run) {
            require(s.count <= UINT32_MAX,
                    "AffinityAccumulator::finalize: a pair's co-access count exceeds 2^32 - 1");
            const auto a = static_cast<std::size_t>(s.key >> 32);
            const auto b = static_cast<std::size_t>(s.key & 0xFFFFFFFFu);
            ++m.row_ptr_[a + 1];
            if (a != b) ++m.row_ptr_[b + 1];
        }
    }
    for (std::size_t a = 0; a < n_; ++a) m.row_ptr_[a + 1] += m.row_ptr_[a];
    const std::size_t nnz = m.row_ptr_[n_];
    m.col_.assign(nnz, 0);
    m.val_.assign(nnz, 0);
    std::vector<std::size_t> cursor(m.row_ptr_.begin(), m.row_ptr_.end() - 1);
    // A min-heap of (next key, run) over the runs not yet drained.
    std::vector<std::pair<std::uint64_t, std::size_t>> heads;
    std::vector<std::size_t> next(runs.size(), 0);
    for (std::size_t r = 0; r < runs.size(); ++r) {
        if (!runs[r].empty()) heads.emplace_back(runs[r].front().key, r);
    }
    std::make_heap(heads.begin(), heads.end(), std::greater<>{});
    while (!heads.empty()) {
        std::pop_heap(heads.begin(), heads.end(), std::greater<>{});
        const std::size_t r = heads.back().second;
        const Slot& s = runs[r][next[r]++];
        const auto a = static_cast<std::size_t>(s.key >> 32);
        const auto b = static_cast<std::size_t>(s.key & 0xFFFFFFFFu);
        const auto w = static_cast<std::uint32_t>(s.count);
        m.col_[cursor[a]] = static_cast<std::uint32_t>(b);
        m.val_[cursor[a]] = w;
        ++cursor[a];
        if (a != b) {
            m.col_[cursor[b]] = static_cast<std::uint32_t>(a);
            m.val_[cursor[b]] = w;
            ++cursor[b];
        }
        if (next[r] < runs[r].size()) {
            heads.back().first = runs[r][next[r]].key;
            std::push_heap(heads.begin(), heads.end(), std::greater<>{});
        } else {
            heads.pop_back();
            runs[r] = {};
        }
    }
    return m;
}

// ---------------------------------------------------------------------------
// Builder

AffinityMatrix windowed_affinity(TraceSource& source, const BlockProfile& profile,
                                 std::size_t window, std::size_t jobs) {
    require(window >= 2, "windowed_affinity: window must be >= 2");
    const unsigned shift = log2_exact(profile.block_size());
    const std::size_t num_blocks = profile.num_blocks();
    AffinityAccumulator acc = stream_accumulate(
        source, window - 1, jobs, AffinityAccumulator::mapping(num_blocks),
        [&](KeyPartition part) { return AffinityAccumulator(num_blocks, part); },
        [&](AffinityAccumulator& out, const TraceChunk& chunk,
            std::span<const std::uint64_t> context) {
            windowed_chunk(chunk, context, window, shift, num_blocks, out);
        },
        [](AffinityAccumulator& into, AffinityAccumulator& from) {
            into.merge(std::move(from));
        });
    return acc.finalize(jobs);
}

}  // namespace memopt
