// Streaming trace sources: the pull-based, chunked replay abstraction.
//
// A TraceSource delivers a trace as a sequence of TraceChunks — SoA column
// spans over up to ~64Ki accesses — instead of requiring the whole MemTrace
// to be resident. Every replay loop in the toolkit (profile builder,
// affinity builders, sleepy-bank replay, compressed-memory simulation,
// cache hierarchy, the end-to-end flow) consumes a TraceSource, which is
// what lets a 10^8–10^9-access trace run end to end in O(chunk) memory.
//
// Every replay consumer has a single TraceSource& entry point; an
// in-memory MemTrace enters through a MaterializedSource at the call site.
// Three concrete sources exist:
//  * MaterializedSource  — zero-copy span slices over an in-memory MemTrace;
//  * SyntheticSource     — generates chunks on the fly from the
//                          deterministic generators in trace/synthetic.hpp
//                          without ever materializing the trace
//                          (trace/synthetic.hpp);
//  * MmapBinarySource    — memory-mapped zero-copy reader for the ".mtsc"
//                          block container (trace/stream_file.hpp).
//
// Determinism contract: a source replays the exact same access sequence on
// every pass (reset() rewinds to access 0), and all chunked accumulations
// in this repository reduce integer-valued sums — so results are
// bit-identical across sources and chunk sizes at any job count (the same
// property the PR-4 sharded replays rely on).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "support/assert.hpp"
#include "support/durable/cancel.hpp"
#include "support/parallel.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace.hpp"

namespace memopt {

/// Default chunk granularity (accesses per TraceChunk). 64Ki accesses keep
/// a chunk's columns (~1.4 MiB) comfortably inside L2-resident working sets
/// while amortizing per-chunk dispatch, and match the sharding floor of the
/// parallel replay loops.
inline constexpr std::size_t kDefaultTraceChunk = std::size_t{1} << 16;

/// One chunk of a trace: SoA column spans plus the global index of the
/// chunk's first access. Spans stay valid until the producing source's next
/// next()/reset() call (longer for stable sources — see
/// TraceSource::stable_chunks()).
///
/// Invariant: all five columns have equal length (validated at
/// construction, mirroring MemTrace::from_columns).
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
};

/// Cheap whole-trace statistics, matching the counters MemTrace maintains.
/// `max_addr` is inclusive and covers the access width (addr + size - 1).
struct TraceSummary {
    std::uint64_t accesses = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t min_addr = 0;
    std::uint64_t max_addr = 0;

    /// Smallest power-of-two span covering all touched addresses from zero
    /// (the profile-geometry value; equals MemTrace::address_span_pow2()).
    std::uint64_t span_pow2() const { return ceil_pow2(max_addr + 1); }
};

/// Abstract pull-based chunked trace stream. Single-pass cursor semantics:
/// next() yields consecutive chunks in program order until exhausted;
/// reset() rewinds to access 0 for another identical pass.
class TraceSource {
public:
    virtual ~TraceSource() = default;

    /// Total number of accesses the full replay delivers.
    virtual std::uint64_t size() const = 0;

    /// True when chunk spans remain valid across next()/reset() calls for
    /// the lifetime of the source (zero-copy backing storage). Stable
    /// sources can be replayed in parallel without copying chunks.
    virtual bool stable_chunks() const { return false; }

    /// Produce the next chunk. Returns false (and leaves `chunk` empty)
    /// once the trace is exhausted.
    virtual bool next(TraceChunk& chunk) = 0;

    /// Rewind to access 0. The subsequent pass delivers the identical
    /// access sequence.
    virtual void reset() = 0;

    /// Whole-trace statistics. Computed with one streaming pass on first
    /// use (then cached) unless the source seeded them at construction;
    /// bit-identical to the counters of the materialized trace.
    ///
    /// Contract: every access the source delivers lies within the
    /// summary's [min_addr, max_addr] range (inclusive of the access
    /// width), so consumers may size address-indexed buffers from the
    /// summary without per-access bounds checks. Sources whose summary
    /// comes from an external header (e.g. MmapBinarySource) must enforce
    /// this during content validation rather than trust the payload.
    const TraceSummary& summary();

protected:
    /// Seed the cached summary (sources that know it without a pass).
    void set_summary(const TraceSummary& s) { summary_ = s; }

private:
    std::optional<TraceSummary> summary_;
};

/// Owning SoA chunk storage: the staging buffer non-stable sources fill and
/// the copy target of the parallel streaming driver.
class ChunkBuffer {
public:
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

    /// Deep-copy `chunk` into this buffer.
    void assign(const TraceChunk& chunk) {
        first_index_ = chunk.first_index;
        addrs_.assign(chunk.addrs.begin(), chunk.addrs.end());
        cycles_.assign(chunk.cycles.begin(), chunk.cycles.end());
        values_.assign(chunk.values.begin(), chunk.values.end());
        sizes_.assign(chunk.sizes.begin(), chunk.sizes.end());
        kinds_.assign(chunk.kinds.begin(), chunk.kinds.end());
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

/// Zero-copy source over an in-memory MemTrace: chunks are subspans of the
/// trace's columns (stable for the source's lifetime), and the summary is
/// seeded from the trace's own counters — no extra pass, no extra memory.
class MaterializedSource final : public TraceSource {
public:
    /// Non-owning view; `trace` must outlive the source.
    explicit MaterializedSource(const MemTrace& trace,
                                std::size_t chunk_accesses = kDefaultTraceChunk);

    /// Shared-ownership variant (repository artifacts, loaded files): the
    /// source keeps the trace alive.
    explicit MaterializedSource(std::shared_ptr<const MemTrace> trace,
                                std::size_t chunk_accesses = kDefaultTraceChunk);

    std::uint64_t size() const override { return trace_->size(); }
    bool stable_chunks() const override { return true; }
    bool next(TraceChunk& chunk) override;
    void reset() override { pos_ = 0; }

private:
    void seed_summary();

    std::shared_ptr<const MemTrace> owned_;  ///< may be null (non-owning ctor)
    const MemTrace* trace_;
    std::size_t chunk_;
    std::uint64_t pos_ = 0;
};

/// Generates chunks on the fly from a deterministic synthetic generator —
/// a 10^9-access trace costs O(chunk) memory. Chunk contents are
/// bit-identical to the materialized generator output by construction (the
/// same SyntheticGenerator produces both).
class SyntheticSource final : public TraceSource {
public:
    explicit SyntheticSource(const SyntheticSpec& spec,
                             std::size_t chunk_accesses = kDefaultTraceChunk);

    std::uint64_t size() const override { return gen_.size(); }
    bool next(TraceChunk& chunk) override;
    void reset() override;

private:
    SyntheticGenerator gen_;
    ChunkBuffer buffer_;
    std::size_t chunk_;
    std::uint64_t pos_ = 0;
};

namespace stream_detail {

/// Tasks shorter than this replay serially (same floor as the sharded
/// materialized replays: below ~64Ki accesses dispatch overhead wins).
inline constexpr std::size_t kMinAccessesPerTask = std::size_t{1} << 16;

inline std::size_t stream_task_count(std::uint64_t accesses, std::size_t jobs) {
    if (jobs == 0) jobs = default_jobs();
    if (jobs <= 1 || accesses < 2 * kMinAccessesPerTask) return 1;
    return static_cast<std::size_t>(
        std::min<std::uint64_t>(jobs, accesses / kMinAccessesPerTask));
}

/// Keep `tail` equal to the last `context` addresses seen after appending
/// `addrs` to the stream.
inline void update_tail(std::vector<std::uint64_t>& tail, std::span<const std::uint64_t> addrs,
                        std::size_t context) {
    if (context == 0) return;
    if (addrs.size() >= context) {
        tail.assign(addrs.end() - static_cast<std::ptrdiff_t>(context), addrs.end());
        return;
    }
    const std::size_t keep = std::min(tail.size(), context - addrs.size());
    tail.erase(tail.begin(), tail.end() - static_cast<std::ptrdiff_t>(keep));
    tail.insert(tail.end(), addrs.begin(), addrs.end());
}

/// The up-to-`context` addresses immediately preceding chunks[k] (gathered
/// backward across chunk boundaries; empty for k == 0).
inline std::vector<std::uint64_t> gather_context(const std::vector<TraceChunk>& chunks,
                                                 std::size_t k, std::size_t context) {
    std::vector<std::uint64_t> out;
    if (context == 0 || k == 0) return out;
    std::vector<std::span<const std::uint64_t>> tails;
    std::size_t need = context;
    std::size_t j = k;
    while (need > 0 && j > 0) {
        --j;
        const auto& a = chunks[j].addrs;
        const std::size_t take = std::min(need, a.size());
        tails.push_back(a.subspan(a.size() - take, take));
        need -= take;
    }
    for (auto it = tails.rbegin(); it != tails.rend(); ++it)
        out.insert(out.end(), it->begin(), it->end());
    return out;
}

}  // namespace stream_detail

/// Chunked map/reduce replay engine shared by the sharded replay consumers
/// (profiling and the affinity matrices).
///
/// Streams `source` once, calling `map_chunk(state, chunk, context)` for
/// every chunk, where `context` holds the up-to-`context_size` addresses
/// immediately preceding the chunk (for window pre-warming; pass 0 when the
/// mapper is context-free). `merge(into, from)` folds partial states
/// together; the reduction happens in a fixed task order.
///
/// Parallelism: stable sources replay their zero-copy chunks sharded into
/// contiguous task ranges; non-stable sources pull chunk copies
/// sequentially and map batches of them concurrently onto persistent
/// per-slot states. Either way, partial sums must be exact under
/// reordering — every accumulation in this repository reduces
/// integer-valued sums, so results are bit-identical at any job count.
///
/// Cancellation: the global CancellationToken is polled at every chunk
/// boundary on all three execution paths, so a deadline or SIGINT/SIGTERM
/// interrupts a billion-access replay within one chunk (~64Ki accesses).
/// The resulting CancelledError unwinds through parallel_map like any
/// worker exception; partial state is discarded by the caller.
template <typename MakeState, typename MapChunk, typename Merge>
auto stream_accumulate(TraceSource& source, std::size_t context_size, std::size_t jobs,
                       const MakeState& make_state, const MapChunk& map_chunk,
                       const Merge& merge) {
    using State = std::invoke_result_t<MakeState>;
    source.reset();
    std::size_t tasks = stream_detail::stream_task_count(source.size(), jobs);

    if (source.stable_chunks() && tasks > 1) {
        std::vector<TraceChunk> chunks;
        TraceChunk c;
        while (source.next(c)) {
            if (!c.empty()) chunks.push_back(c);
        }
        tasks = std::min(tasks, chunks.size());
        if (tasks > 1) {
            std::vector<std::size_t> ids(tasks);
            for (std::size_t s = 0; s < tasks; ++s) ids[s] = s;
            std::vector<State> parts = parallel_map(
                ids,
                [&](std::size_t s) {
                    State state = make_state();
                    const std::size_t begin = chunks.size() * s / tasks;
                    const std::size_t end = chunks.size() * (s + 1) / tasks;
                    for (std::size_t k = begin; k < end; ++k) {
                        CancellationToken::global().check();
                        const std::vector<std::uint64_t> ctx =
                            stream_detail::gather_context(chunks, k, context_size);
                        map_chunk(state, chunks[k], std::span<const std::uint64_t>(ctx));
                    }
                    return state;
                },
                jobs);
            State out = std::move(parts.front());
            for (std::size_t s = 1; s < parts.size(); ++s) merge(out, parts[s]);
            return out;
        }
        State state = make_state();
        for (std::size_t k = 0; k < chunks.size(); ++k) {
            CancellationToken::global().check();
            const std::vector<std::uint64_t> ctx =
                stream_detail::gather_context(chunks, k, context_size);
            map_chunk(state, chunks[k], std::span<const std::uint64_t>(ctx));
        }
        return state;
    }

    if (tasks <= 1) {
        State state = make_state();
        std::vector<std::uint64_t> tail;
        TraceChunk c;
        while (source.next(c)) {
            CancellationToken::global().check();
            if (c.empty()) continue;
            map_chunk(state, c, std::span<const std::uint64_t>(tail));
            stream_detail::update_tail(tail, c.addrs, context_size);
        }
        return state;
    }

    // Non-stable parallel path: per-slot persistent states; each batch
    // pulls up to `tasks` chunk copies (sequential, preserving context
    // tails across batches) and maps them concurrently.
    std::vector<State> states;
    states.reserve(tasks);
    for (std::size_t s = 0; s < tasks; ++s) states.push_back(make_state());
    std::vector<ChunkBuffer> buffers(tasks);
    std::vector<std::vector<std::uint64_t>> contexts(tasks);
    std::vector<std::uint64_t> tail;
    bool more = true;
    while (more) {
        std::size_t filled = 0;
        TraceChunk c;
        while (filled < tasks && (more = source.next(c))) {
            CancellationToken::global().check();
            if (c.empty()) continue;
            buffers[filled].assign(c);
            contexts[filled] = tail;
            stream_detail::update_tail(tail, c.addrs, context_size);
            ++filled;
        }
        if (filled == 0) break;
        std::vector<std::size_t> ids(filled);
        for (std::size_t s = 0; s < filled; ++s) ids[s] = s;
        parallel_map(
            ids,
            [&](std::size_t s) {
                map_chunk(states[s], buffers[s].view(),
                          std::span<const std::uint64_t>(contexts[s]));
                return 0;
            },
            jobs);
    }
    State out = std::move(states.front());
    for (std::size_t s = 1; s < states.size(); ++s) merge(out, states[s]);
    return out;
}

}  // namespace memopt
