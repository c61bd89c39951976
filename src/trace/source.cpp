#include "trace/source.hpp"

#include <algorithm>

namespace memopt {

void TraceSummary::add(const TraceChunk& chunk) {
    // A local copy: stores to the members could alias the chunk's
    // uint64_t columns and would pin them in memory through the loop.
    TraceSummary s = *this;
    bool past_top = false;
    for (std::size_t i = 0; i < chunk.size(); ++i) {
        const std::uint64_t lo = chunk.addrs[i];
        const std::uint64_t hi = lo + chunk.sizes[i] - 1;
        past_top |= hi < lo && chunk.sizes[i] != 0;
        if (s.accesses == 0) {
            s.min_addr = lo;
            s.max_addr = hi;
        } else {
            s.min_addr = std::min(s.min_addr, lo);
            s.max_addr = std::max(s.max_addr, hi);
        }
        if (chunk.kinds[i] == AccessKind::Read) ++s.reads;
        else ++s.writes;
        ++s.accesses;
    }
    if (past_top) [[unlikely]] {
        for (std::size_t i = 0;; ++i)
            if (chunk.sizes[i] != 0 && chunk.addrs[i] + chunk.sizes[i] - 1 < chunk.addrs[i])
                throw_access_past_top(chunk.addrs[i], chunk.sizes[i]);
    }
    *this = s;
}

bool TraceSource::next_batch(std::vector<TraceChunk>& batch, std::size_t max_chunks,
                             std::size_t /*jobs*/) {
    require(max_chunks > 0, "TraceSource::next_batch: max_chunks must be > 0");
    batch.clear();
    const bool copy = !stable_chunks();
    TraceChunk c;
    while (batch.size() < max_chunks && next(c)) {
        if (c.empty()) continue;
        if (copy && batch.size() + 1 < max_chunks) {
            if (batch_copies_.size() <= batch.size()) batch_copies_.resize(batch.size() + 1);
            batch_copies_[batch.size()].assign(c);
            c = batch_copies_[batch.size()].view();
        }
        batch.push_back(c);
    }
    return !batch.empty();
}

const TraceSummary& TraceSource::summary() {
    if (summary_.has_value()) return *summary_;
    // One streaming pass (max_addr covers the access width).
    TraceSummary s;
    reset();
    TraceChunk chunk;
    while (next(chunk)) s.add(chunk);
    reset();
    summary_ = s;
    return *summary_;
}

// ---------------------------------------------------------------------------
// MaterializedSource

MaterializedSource::MaterializedSource(const MemTrace& trace, std::size_t chunk_accesses)
    : trace_(&trace), chunk_(chunk_accesses) {
    require(chunk_ > 0, "MaterializedSource: chunk_accesses must be > 0");
    seed_summary();
}

MaterializedSource::MaterializedSource(std::shared_ptr<const MemTrace> trace,
                                       std::size_t chunk_accesses)
    : owned_(std::move(trace)), trace_(owned_.get()), chunk_(chunk_accesses) {
    require(trace_ != nullptr, "MaterializedSource: null trace");
    require(chunk_ > 0, "MaterializedSource: chunk_accesses must be > 0");
    seed_summary();
}

void MaterializedSource::seed_summary() {
    TraceSummary s;
    s.accesses = trace_->size();
    s.reads = trace_->read_count();
    s.writes = trace_->write_count();
    if (!trace_->empty()) {
        s.min_addr = trace_->min_addr();
        s.max_addr = trace_->max_addr();
    }
    set_summary(s);
}

bool MaterializedSource::next(TraceChunk& chunk) {
    CancellationToken::global().check();
    const std::uint64_t n = trace_->size();
    if (pos_ >= n) {
        chunk = TraceChunk{};
        return false;
    }
    const auto begin = static_cast<std::size_t>(pos_);
    const std::size_t count = static_cast<std::size_t>(
        std::min<std::uint64_t>(chunk_, n - pos_));
    chunk = TraceChunk(pos_, trace_->addrs().subspan(begin, count),
                       trace_->cycles().subspan(begin, count),
                       trace_->values().subspan(begin, count),
                       trace_->sizes().subspan(begin, count),
                       trace_->kinds().subspan(begin, count));
    pos_ += count;
    return true;
}

// ---------------------------------------------------------------------------
// SyntheticSource

SyntheticSource::SyntheticSource(const SyntheticSpec& spec, std::size_t chunk_accesses)
    : gen_(spec), chunk_(chunk_accesses) {
    require(chunk_ > 0, "SyntheticSource: chunk_accesses must be > 0");
    buffer_.reserve(std::min<std::uint64_t>(chunk_, gen_.size()));
}

bool SyntheticSource::next(TraceChunk& chunk) {
    CancellationToken::global().check();
    if (pos_ >= gen_.size()) {
        chunk = TraceChunk{};
        return false;
    }
    buffer_.begin(pos_);
    const std::uint64_t count = std::min<std::uint64_t>(chunk_, gen_.size() - pos_);
    for (std::uint64_t i = 0; i < count; ++i) buffer_.push_back(gen_.next());
    pos_ += count;
    chunk = buffer_.view();
    return true;
}

void SyntheticSource::reset() {
    gen_.reset();
    pos_ = 0;
}

}  // namespace memopt
