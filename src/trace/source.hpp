// Streaming trace sources: the pull-based, chunked replay abstraction.
//
// A TraceSource delivers a trace as a sequence of TraceChunks — SoA column
// spans over up to ~64Ki accesses (trace/trace.hpp) — instead of requiring
// the whole MemTrace to be resident. Every replay loop in the toolkit
// (profile builder, affinity builders, bank-activity replay,
// compressed-memory simulation, cache hierarchy, the end-to-end flow)
// consumes a TraceSource, which is what lets a 10^8–10^9-access trace run
// end to end in O(chunk) memory.
//
// Every replay consumer has a single TraceSource& entry point; an
// in-memory MemTrace enters through a MaterializedSource at the call site.
// Every source's summary() comes from the one counting rule,
// TraceSummary::add: seeded from the trace's own summary, from the .mtsc
// header (which the writer folded with that rule), or folded chunk by
// chunk in one pass on first use. Three concrete sources exist:
//  * MaterializedSource  — zero-copy chunk slices over an in-memory MemTrace;
//  * SyntheticSource     — generates chunks on the fly into a ChunkBuffer
//                          from the deterministic generators in
//                          trace/synthetic.hpp without ever materializing
//                          the trace;
//  * MmapBinarySource    — reader for the ".mtsc" block container that maps
//                          one window of blocks at a time
//                          (trace/stream_file.hpp).
// A source hands out chunks one at a time through next(), or several at
// once through next_batch(), whose spans all stay valid until the next
// call. The base class serves next_batch() from next(); the .mtsc reader
// overrides it to map one window over the batch's blocks and verify and
// decode them in parallel. Each concrete source polls the global
// CancellationToken at the top of every next() call, and the .mtsc reader
// at the top of every next_batch() call too, so a deadline or
// SIGINT/SIGTERM stops any replay within one batch.
//
// The parallel replays (profiling and the affinity builders) share one
// engine, stream_accumulate: one loop pulls batches of one chunk per task
// and maps each batch onto task-local states in one of two ways. Trace
// shards give each task a contiguous range of the batch, and the states
// sum in task order. Key partitions give every task the whole batch, and
// each state keeps only the keys of its own partition, so the states are
// disjoint and join without a reduction (the affinity pair table above
// kAffinityDenseMaxBlocks blocks).
//
// Determinism contract: a source replays the exact same access sequence on
// every pass (reset() rewinds to access 0), and all chunked accumulations
// in this repository reduce integer-valued sums — so results are
// bit-identical across sources and chunk sizes at any job count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

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

/// Abstract pull-based chunked trace stream. Single-pass cursor semantics:
/// next() and next_batch() yield consecutive chunks in program order until
/// exhausted; reset() rewinds to access 0 for another identical pass.
class TraceSource {
public:
    virtual ~TraceSource() = default;

    /// Total number of accesses the full replay delivers.
    virtual std::uint64_t size() const = 0;

    /// True when chunk spans remain valid across next()/reset() calls for
    /// the lifetime of the source (zero-copy backing storage). The default
    /// next_batch() hands such chunks out without copying them.
    virtual bool stable_chunks() const { return false; }

    /// Produce the next chunk. Returns false (and leaves `chunk` empty)
    /// once the trace is exhausted.
    virtual bool next(TraceChunk& chunk) = 0;

    /// Replace `batch` with the next up-to-`max_chunks` (> 0) non-empty
    /// chunks of the pass, the ones next() would deliver. Returns false
    /// (and leaves `batch` empty) once the trace is exhausted. Every span
    /// of the batch stays valid until the next next_batch(), next() or
    /// reset() call. `jobs` bounds the threads the source may use to
    /// produce the batch (0 = default_jobs()).
    ///
    /// The default pulls next() serially on the calling thread. Unless the
    /// source has stable_chunks(), a chunk that another chunk may follow in
    /// the batch is copied into a buffer this base class owns, so a batch
    /// of one copies nothing.
    virtual bool next_batch(std::vector<TraceChunk>& batch, std::size_t max_chunks,
                            std::size_t jobs = 0);

    /// Rewind to access 0. The subsequent pass delivers the identical
    /// access sequence.
    virtual void reset() = 0;

    /// Whole-trace statistics. Folded chunk by chunk in one streaming pass
    /// on first use (then cached) unless the source seeded them at
    /// construction; equal to the materialized trace's summary().
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
    std::vector<ChunkBuffer> batch_copies_;  ///< the default next_batch()'s copies
};

/// Zero-copy source over an in-memory MemTrace: chunks are slices of the
/// trace's columns (stable for the source's lifetime), and the summary is
/// seeded from the trace's own — no extra pass, no extra memory.
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

}  // namespace stream_detail

/// How stream_accumulate spreads each batch over its task states.
enum class StreamMapping {
    /// Task s maps a contiguous range of the batch's chunks. The states
    /// count disjoint stretches of the trace, and merge() sums them.
    Shards,
    /// Every task maps every chunk of the batch under its partition index.
    /// The states count disjoint parts of the consumer's key space, and
    /// merge() joins them.
    Keys,
};

/// The part of a consumer's key space one stream_accumulate state counts:
/// partition `index` of `count`. Under StreamMapping::Shards every state
/// counts the whole space, {0, 1}.
struct KeyPartition {
    std::size_t index = 0;
    std::size_t count = 1;
};

/// Chunked map/reduce replay engine shared by the sharded replay consumers
/// (profiling and the affinity builders).
///
/// Streams `source` once. Each task state comes from
/// `make_state(KeyPartition)`, and `map_chunk(state, chunk, context)` maps
/// a non-empty chunk into it. `context` holds the up-to-`context_size`
/// addresses immediately preceding the chunk (for window pre-warming; pass
/// 0 when the mapper is context-free). `merge(into, from)` folds the task
/// states together in task order.
///
/// One loop serves every source and both mappings. It pulls batches of up
/// to one chunk per task through TraceSource::next_batch() (which may
/// verify or decode the batch's chunks on `jobs` threads) and cuts each
/// chunk's context from the rolling tail. Under StreamMapping::Shards,
/// contiguous ranges of the batch map onto min(tasks, batch size) states
/// in parallel. Under StreamMapping::Keys, all tasks map the whole batch,
/// state s under partition {s, tasks}, so the state of partition 0 sees
/// every access. With one task the two mappings coincide. Each state is
/// moved into a local on its task's thread while it maps: the states sit
/// side by side in one vector, and mapping them in place would share cache
/// lines across threads. Every accumulation in this repository reduces
/// integer-valued sums or joins disjoint keys, so results are bit-identical
/// at any job count.
///
/// Cancellation: the global CancellationToken is polled before every chunk
/// is mapped, so a deadline or SIGINT/SIGTERM interrupts a billion-access
/// replay within one chunk (~64Ki accesses) even over a source whose own
/// polls run only once per batch, or never. The resulting CancelledError
/// unwinds through parallel_for like any worker exception; partial state
/// is discarded by the caller.
template <typename MakeState, typename MapChunk, typename Merge>
auto stream_accumulate(TraceSource& source, std::size_t context_size, std::size_t jobs,
                       StreamMapping mapping, const MakeState& make_state,
                       const MapChunk& map_chunk, const Merge& merge) {
    using State = std::invoke_result_t<MakeState, KeyPartition>;
    source.reset();
    const std::size_t tasks = stream_detail::stream_task_count(source.size(), jobs);
    const bool keyed = mapping == StreamMapping::Keys;
    std::vector<TraceChunk> batch;
    std::vector<std::vector<std::uint64_t>> contexts;
    std::vector<std::uint64_t> tail;
    std::vector<std::optional<State>> states;
    while (source.next_batch(batch, tasks, jobs)) {
        contexts.resize(batch.size());
        for (std::size_t k = 0; k < batch.size(); ++k) {
            contexts[k] = tail;
            stream_detail::update_tail(tail, batch[k].addrs, context_size);
        }
        const std::size_t parts = keyed ? tasks : std::min(tasks, batch.size());
        if (states.size() < parts) states.resize(parts);
        parallel_for(
            parts,
            [&](std::size_t s) {
                std::optional<State> state = std::move(states[s]);
                if (!state)
                    state.emplace(make_state(keyed ? KeyPartition{s, tasks} : KeyPartition{}));
                const std::size_t first = keyed ? 0 : batch.size() * s / parts;
                const std::size_t last = keyed ? batch.size() : batch.size() * (s + 1) / parts;
                for (std::size_t k = first; k < last; ++k) {
                    CancellationToken::global().check();
                    map_chunk(*state, batch[k], std::span<const std::uint64_t>(contexts[k]));
                }
                states[s] = std::move(state);
            },
            jobs);
    }
    if (states.empty()) return make_state(KeyPartition{});
    State out = std::move(*states.front());
    for (std::size_t s = 1; s < states.size(); ++s) merge(out, *states[s]);
    return out;
}

}  // namespace memopt
