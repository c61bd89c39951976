#include "cache/cache.hpp"

#include <algorithm>

#include "support/assert.hpp"
#include "support/bits.hpp"
#include "support/json.hpp"

namespace memopt {

CacheModel::CacheModel(const CacheConfig& config) : config_(config) {
    require(is_pow2(config.size_bytes), "CacheConfig: size must be a power of two");
    require(is_pow2(config.line_bytes) && config.line_bytes >= 4,
            "CacheConfig: line size must be a power of two >= 4");
    require(config.associativity >= 1, "CacheConfig: associativity must be >= 1");
    const std::uint64_t line_capacity = config.size_bytes / config.line_bytes;
    require(line_capacity >= config.associativity,
            "CacheConfig: fewer lines than ways");
    require(line_capacity % config.associativity == 0,
            "CacheConfig: lines not divisible by associativity");
    sets_ = static_cast<std::size_t>(line_capacity / config.associativity);
    require(is_pow2(sets_), "CacheConfig: set count must be a power of two");
    // Power-of-two lines and sets make the associativity one too.
    line_shift_ = log2_exact(config.line_bytes);
    way_shift_ = log2_exact(config.associativity);
    set_mask_ = sets_ - 1;
    ways_.assign(sets_ * config.associativity, Way{});
}

std::uint64_t CacheModel::line_base(std::uint64_t addr) const {
    return addr & ~static_cast<std::uint64_t>(config_.line_bytes - 1);
}

CacheModel::Way* CacheModel::set_of(std::uint64_t addr) {
    return &ways_[((addr >> line_shift_) & set_mask_) << way_shift_];
}

CacheModel::Way* CacheModel::find_way(std::uint64_t addr) {
    const std::uint64_t key = line_base(addr) | kDirty;
    Way* const set = set_of(addr);
    for (unsigned w = 0; w < config_.associativity; ++w)
        if ((set[w].tag | kDirty) == key) return &set[w];
    return nullptr;
}

const CacheModel::Way* CacheModel::find_way(std::uint64_t addr) const {
    return const_cast<CacheModel*>(this)->find_way(addr);
}

bool CacheModel::contains(std::uint64_t addr) const { return find_way(addr) != nullptr; }

std::optional<bool> CacheModel::probe(std::uint64_t addr) const {
    const Way* way = find_way(addr);
    if (way == nullptr) return std::nullopt;
    return (way->tag & kDirty) != 0;
}

std::optional<bool> CacheModel::invalidate(std::uint64_t addr) {
    Way* way = find_way(addr);
    if (way == nullptr) return std::nullopt;
    const bool dirty = (way->tag & kDirty) != 0;
    *way = Way{};
    return dirty;
}

bool CacheModel::downgrade(std::uint64_t addr) {
    Way* way = find_way(addr);
    if (way == nullptr || (way->tag & kDirty) == 0) return false;
    way->tag &= ~kDirty;
    return true;
}

std::size_t CacheModel::resident_lines() const {
    std::size_t count = 0;
    for (const Way& way : ways_)
        if (way.lru != 0) ++count;
    return count;
}

CacheAccessResult CacheModel::access(std::uint64_t addr, AccessKind kind) {
    const std::uint64_t line = line_base(addr);
    const std::uint64_t key = line | kDirty;
    Way* const set = set_of(addr);

    // One pass over the whole set: the hit way, and the first way with the
    // smallest stamp as the victim (stamps of valid ways are distinct, and
    // an invalid way's 0 is below all of them).
    unsigned hit = config_.associativity;
    unsigned victim = 0;
    std::uint64_t oldest = set[0].lru;
    for (unsigned w = 0; w < config_.associativity; ++w) {
        // Selects, not branches: on a random stream each way's outcome is a
        // coin flip.
        const std::uint64_t lru = set[w].lru;
        const bool older = lru < oldest;
        hit = (set[w].tag | kDirty) == key ? w : hit;
        victim = older ? w : victim;
        oldest = older ? lru : oldest;
    }

    ++tick_;
    const bool write = kind == AccessKind::Write;
    CacheAccessResult result;
    if (hit != config_.associativity) {
        Way& way = set[hit];
        result.hit = true;
        result.was_dirty = (way.tag & kDirty) != 0;
        if (write) way.tag |= kDirty;
        way.lru = tick_;
        ++(write ? stats_.write_hits : stats_.read_hits);
        return result;
    }

    ++(write ? stats_.write_misses : stats_.read_misses);
    Way& way = set[victim];
    if (way.lru != 0) {
        const std::uint64_t victim_line = way.tag & ~kDirty;
        result.evicted_line = victim_line;
        if ((way.tag & kDirty) != 0) {
            ++stats_.writebacks;
            result.writeback_line = victim_line;
        }
    }
    ++stats_.fills;
    result.fill_line = line;
    way.tag = write ? key : line;
    way.lru = tick_;
    return result;
}

std::vector<std::uint64_t> CacheModel::flush() {
    std::vector<std::uint64_t> dirty_lines;
    for (Way& way : ways_) {  // set by set, ways in order
        if (way.lru != 0 && (way.tag & kDirty) != 0) {
            way.tag &= ~kDirty;
            dirty_lines.push_back(way.tag);
            ++stats_.writebacks;
        }
    }
    return dirty_lines;
}

void CacheModel::reset() {
    std::fill(ways_.begin(), ways_.end(), Way{});
    tick_ = 0;
    stats_ = CacheStats{};
}

void to_json(JsonWriter& w, const CacheStats& s) {
    w.begin_object();
    w.member("read_hits", s.read_hits);
    w.member("read_misses", s.read_misses);
    w.member("write_hits", s.write_hits);
    w.member("write_misses", s.write_misses);
    w.member("fills", s.fills);
    w.member("writebacks", s.writebacks);
    w.member("miss_rate", s.miss_rate());
    w.end_object();
}

}  // namespace memopt
