#include "cache/cache.hpp"

#include <algorithm>

#include "support/assert.hpp"
#include "support/bits.hpp"

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
    ways_.assign(sets_ * config.associativity, Way{});
}

std::uint64_t CacheModel::line_base(std::uint64_t addr) const {
    return addr & ~static_cast<std::uint64_t>(config_.line_bytes - 1);
}

std::size_t CacheModel::set_of(std::uint64_t addr) const {
    return static_cast<std::size_t>((addr / config_.line_bytes) & (sets_ - 1));
}

std::uint64_t CacheModel::tag_of(std::uint64_t addr) const {
    return addr / config_.line_bytes / sets_;
}

CacheModel::Way* CacheModel::find_way(std::uint64_t addr) {
    const std::size_t set = set_of(addr);
    const std::uint64_t tag = tag_of(addr);
    Way* base = &ways_[set * config_.associativity];
    for (unsigned w = 0; w < config_.associativity; ++w) {
        if (base[w].valid && base[w].tag == tag) return &base[w];
    }
    return nullptr;
}

const CacheModel::Way* CacheModel::find_way(std::uint64_t addr) const {
    return const_cast<CacheModel*>(this)->find_way(addr);
}

bool CacheModel::contains(std::uint64_t addr) const { return find_way(addr) != nullptr; }

std::optional<bool> CacheModel::probe(std::uint64_t addr) const {
    const Way* way = find_way(addr);
    if (way == nullptr) return std::nullopt;
    return way->dirty;
}

std::optional<bool> CacheModel::invalidate(std::uint64_t addr) {
    Way* way = find_way(addr);
    if (way == nullptr) return std::nullopt;
    const bool dirty = way->dirty;
    *way = Way{};
    return dirty;
}

bool CacheModel::downgrade(std::uint64_t addr) {
    Way* way = find_way(addr);
    if (way == nullptr || !way->dirty) return false;
    way->dirty = false;
    return true;
}

std::size_t CacheModel::resident_lines() const {
    std::size_t count = 0;
    for (const Way& way : ways_)
        if (way.valid) ++count;
    return count;
}

CacheAccessResult CacheModel::access(std::uint64_t addr, AccessKind kind) {
    CacheAccessResult result;
    const std::size_t set = set_of(addr);
    const std::uint64_t tag = tag_of(addr);
    Way* base = &ways_[set * config_.associativity];
    ++tick_;

    // Hit path.
    for (unsigned w = 0; w < config_.associativity; ++w) {
        Way& way = base[w];
        if (way.valid && way.tag == tag) {
            way.lru = tick_;
            if (kind == AccessKind::Read) {
                ++stats_.read_hits;
            } else {
                ++stats_.write_hits;
                way.dirty = true;
            }
            result.hit = true;
            return result;
        }
    }

    // Miss path.
    if (kind == AccessKind::Read) {
        ++stats_.read_misses;
    } else {
        ++stats_.write_misses;
    }

    // Choose the victim: an invalid way if any, else the least recently used.
    Way* victim = nullptr;
    for (unsigned w = 0; w < config_.associativity && victim == nullptr; ++w) {
        if (!base[w].valid) victim = &base[w];
    }
    if (victim == nullptr) {
        victim = base;
        for (unsigned w = 1; w < config_.associativity; ++w) {
            if (base[w].lru < victim->lru) victim = &base[w];
        }
    }

    if (victim->valid) {
        // Reconstruct the victim's base address from tag and set.
        const std::uint64_t victim_addr =
            (victim->tag * sets_ + set) * config_.line_bytes;
        result.evicted_line = victim_addr;
        if (victim->dirty) {
            ++stats_.writebacks;
            result.writeback_line = victim_addr;
        }
    }

    ++stats_.fills;
    result.fill_line = line_base(addr);
    victim->valid = true;
    victim->dirty = kind == AccessKind::Write;
    victim->tag = tag;
    victim->lru = tick_;
    return result;
}

std::vector<std::uint64_t> CacheModel::flush() {
    std::vector<std::uint64_t> dirty_lines;
    for (std::size_t set = 0; set < sets_; ++set) {
        for (unsigned w = 0; w < config_.associativity; ++w) {
            Way& way = ways_[set * config_.associativity + w];
            if (way.valid && way.dirty) {
                dirty_lines.push_back((way.tag * sets_ + set) * config_.line_bytes);
                ++stats_.writebacks;
                way.dirty = false;
            }
        }
    }
    return dirty_lines;
}

void CacheModel::reset() {
    std::fill(ways_.begin(), ways_.end(), Way{});
    tick_ = 0;
    stats_ = CacheStats{};
}

}  // namespace memopt
