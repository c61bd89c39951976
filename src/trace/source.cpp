#include "trace/source.hpp"

#include <algorithm>

namespace memopt {

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
            ChunkBuffer& buffer = batch_copies_[batch.size()];
            buffer.begin(c.first_index);
            buffer.append(c);
            c = buffer.view();
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
    set_summary(trace.summary());
}

MaterializedSource::MaterializedSource(std::shared_ptr<const MemTrace> trace,
                                       std::size_t chunk_accesses)
    : owned_(std::move(trace)), trace_(owned_.get()), chunk_(chunk_accesses) {
    require(trace_ != nullptr, "MaterializedSource: null trace");
    require(chunk_ > 0, "MaterializedSource: chunk_accesses must be > 0");
    set_summary(trace_->summary());
}

bool MaterializedSource::next(TraceChunk& chunk) {
    CancellationToken::global().check();
    const std::uint64_t n = trace_->size();
    if (pos_ >= n) {
        chunk = TraceChunk{};
        return false;
    }
    const std::size_t count = static_cast<std::size_t>(
        std::min<std::uint64_t>(chunk_, n - pos_));
    chunk = trace_->view().subchunk(static_cast<std::size_t>(pos_), count);
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
