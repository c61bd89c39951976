// Reference models of the coherent multi-core replay: the oracles of
// test_coherence_reference.
//
// ReferenceCacheModel and ReferenceMsiDirectory are the plain designs the
// product's CacheModel and MsiDirectory replaced: 32-byte ways scanned with
// an early exit (hit pass, then a victim pass), and a std::unordered_map
// directory with one node per tracked line. ReferenceMultiCore joins them
// as the controller first did: a residency probe before every L1 access,
// an invalidation loop over every core, and a serial refill of each core's
// chunk as soon as it is used up. The product must match all three counter
// for counter and line for line.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "cache/coherence.hpp"
#include "cache/mcache.hpp"
#include "energy/coherence_model.hpp"
#include "energy/dram_model.hpp"
#include "energy/report.hpp"
#include "energy/sram_model.hpp"
#include "support/assert.hpp"
#include "support/bits.hpp"
#include "trace/source.hpp"

namespace memopt {

/// True-LRU write-back/write-allocate cache, one struct per way.
class ReferenceCacheModel {
public:
    explicit ReferenceCacheModel(const CacheConfig& config) : config_(config) {
        require(is_pow2(config.size_bytes), "CacheConfig: size must be a power of two");
        require(is_pow2(config.line_bytes) && config.line_bytes >= 4,
                "CacheConfig: line size must be a power of two >= 4");
        require(config.associativity >= 1, "CacheConfig: associativity must be >= 1");
        const std::uint64_t line_capacity = config.size_bytes / config.line_bytes;
        require(line_capacity >= config.associativity, "CacheConfig: fewer lines than ways");
        require(line_capacity % config.associativity == 0,
                "CacheConfig: lines not divisible by associativity");
        sets_ = static_cast<std::size_t>(line_capacity / config.associativity);
        require(is_pow2(sets_), "CacheConfig: set count must be a power of two");
        ways_.assign(sets_ * config.associativity, Way{});
    }

    const CacheConfig& config() const { return config_; }
    const CacheStats& stats() const { return stats_; }

    CacheAccessResult access(std::uint64_t addr, AccessKind kind) {
        CacheAccessResult result;
        const std::size_t set = set_of(addr);
        const std::uint64_t tag = tag_of(addr);
        Way* base = &ways_[set * config_.associativity];
        ++tick_;

        for (unsigned w = 0; w < config_.associativity; ++w) {
            Way& way = base[w];
            if (way.valid && way.tag == tag) {
                result.hit = true;
                result.was_dirty = way.dirty;
                way.lru = tick_;
                if (kind == AccessKind::Read) {
                    ++stats_.read_hits;
                } else {
                    ++stats_.write_hits;
                    way.dirty = true;
                }
                return result;
            }
        }

        if (kind == AccessKind::Read) {
            ++stats_.read_misses;
        } else {
            ++stats_.write_misses;
        }
        // The victim: an invalid way if any, else the least recently used.
        Way* victim = nullptr;
        for (unsigned w = 0; w < config_.associativity && victim == nullptr; ++w)
            if (!base[w].valid) victim = &base[w];
        if (victim == nullptr) {
            victim = base;
            for (unsigned w = 1; w < config_.associativity; ++w)
                if (base[w].lru < victim->lru) victim = &base[w];
        }
        if (victim->valid) {
            const std::uint64_t victim_addr = (victim->tag * sets_ + set) * config_.line_bytes;
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

    std::vector<std::uint64_t> flush() {
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

    std::optional<bool> probe(std::uint64_t addr) const {
        const Way* way = find_way(addr);
        if (way == nullptr) return std::nullopt;
        return way->dirty;
    }

    std::optional<bool> invalidate(std::uint64_t addr) {
        Way* way = find_way(addr);
        if (way == nullptr) return std::nullopt;
        const bool dirty = way->dirty;
        *way = Way{};
        return dirty;
    }

    bool downgrade(std::uint64_t addr) {
        Way* way = find_way(addr);
        if (way == nullptr || !way->dirty) return false;
        way->dirty = false;
        return true;
    }

    std::size_t resident_lines() const {
        return static_cast<std::size_t>(
            std::count_if(ways_.begin(), ways_.end(), [](const Way& w) { return w.valid; }));
    }

    void reset() {
        std::fill(ways_.begin(), ways_.end(), Way{});
        tick_ = 0;
        stats_ = CacheStats{};
    }

    std::uint64_t line_base(std::uint64_t addr) const {
        return addr & ~static_cast<std::uint64_t>(config_.line_bytes - 1);
    }

private:
    struct Way {
        std::uint64_t tag = 0;
        std::uint64_t lru = 0;  // larger = more recently used
        bool valid = false;
        bool dirty = false;
    };

    std::size_t set_of(std::uint64_t addr) const {
        return static_cast<std::size_t>((addr / config_.line_bytes) & (sets_ - 1));
    }
    std::uint64_t tag_of(std::uint64_t addr) const { return addr / config_.line_bytes / sets_; }
    Way* find_way(std::uint64_t addr) {
        Way* base = &ways_[set_of(addr) * config_.associativity];
        for (unsigned w = 0; w < config_.associativity; ++w)
            if (base[w].valid && base[w].tag == tag_of(addr)) return &base[w];
        return nullptr;
    }
    const Way* find_way(std::uint64_t addr) const {
        return const_cast<ReferenceCacheModel*>(this)->find_way(addr);
    }

    CacheConfig config_;
    std::size_t sets_;
    std::vector<Way> ways_;
    std::uint64_t tick_ = 0;
    CacheStats stats_;
};

/// The MSI directory as a hash map from line address to entry; an entry
/// is erased when its last sharer leaves.
class ReferenceMsiDirectory {
public:
    const CoherenceStats& stats() const { return stats_; }

    CoherenceActions on_read_miss(unsigned core, std::uint64_t line) {
        ++stats_.lookups;
        CoherenceActions actions;
        actions.fetch = true;
        DirectoryLine& entry = entries_[line];
        MEMOPT_ASSERT((entry.sharers & bit(core)) == 0);
        if (entry.state == MsiState::Modified) {
            actions.writeback_owner = owner_of(entry);
            ++stats_.downgrades;
        }
        entry.state = MsiState::Shared;
        entry.sharers |= bit(core);
        return actions;
    }

    CoherenceActions on_write(unsigned core, std::uint64_t line) {
        ++stats_.lookups;
        CoherenceActions actions;
        DirectoryLine& entry = entries_[line];
        const bool holder = (entry.sharers & bit(core)) != 0;
        if (entry.state == MsiState::Modified) {
            MEMOPT_ASSERT(!holder);
            actions.writeback_owner = owner_of(entry);
            actions.invalidate = entry.sharers;
            ++stats_.owner_flushes;
        } else if (entry.state == MsiState::Shared) {
            actions.invalidate = entry.sharers & ~bit(core);
            if (holder) ++stats_.upgrades;
        }
        stats_.invalidations += static_cast<std::uint64_t>(std::popcount(actions.invalidate));
        actions.fetch = !holder;
        entry.state = MsiState::Modified;
        entry.sharers = bit(core);
        return actions;
    }

    void on_evict(unsigned core, std::uint64_t line) {
        ++stats_.evictions;
        const auto it = entries_.find(line);
        MEMOPT_ASSERT(it != entries_.end() && (it->second.sharers & bit(core)) != 0);
        it->second.sharers &= ~bit(core);
        if (it->second.sharers == 0) entries_.erase(it);
    }

    void on_flush(unsigned core, std::uint64_t line) {
        const auto it = entries_.find(line);
        MEMOPT_ASSERT(it != entries_.end() && it->second.sharers == bit(core));
        it->second.state = MsiState::Shared;
    }

    /// Every tracked line, sorted by address.
    std::vector<std::pair<std::uint64_t, DirectoryLine>> snapshot() const {
        // memopt-lint: order-independent -- the sort below erases the
        // traversal order; keys are unique.
        std::vector<std::pair<std::uint64_t, DirectoryLine>> out(entries_.begin(),
                                                                 entries_.end());
        std::sort(out.begin(), out.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        return out;
    }

private:
    static std::uint64_t bit(unsigned core) { return std::uint64_t{1} << core; }
    unsigned owner_of(const DirectoryLine& entry) const {
        MEMOPT_ASSERT(std::popcount(entry.sharers) == 1);
        return static_cast<unsigned>(std::countr_zero(entry.sharers));
    }

    std::unordered_map<std::uint64_t, DirectoryLine> entries_;
    CoherenceStats stats_;
};

/// The coherent N-core machine over the reference models, with the
/// accessors to_json reads from MultiCoreCacheSystem.
class ReferenceMultiCore {
public:
    explicit ReferenceMultiCore(const MultiCoreConfig& config)
        : config_(config) {
        for (unsigned c = 0; c < config.cores; ++c) l1s_.emplace_back(config.l1);
        for (unsigned b = 0; b < config.l2_banks; ++b) l2_banks_.emplace_back(config.l2_bank);
    }

    const MultiCoreConfig& config() const { return config_; }
    unsigned cores() const { return config_.cores; }
    const ReferenceCacheModel& l1(unsigned core) const { return l1s_[core]; }
    const ReferenceCacheModel& l2_bank(unsigned bank) const { return l2_banks_[bank]; }
    const ReferenceMsiDirectory& directory() const { return directory_; }
    const MemoryTraffic& traffic() const { return traffic_; }

    void access(unsigned core, std::uint64_t addr, AccessKind kind) {
        ReferenceCacheModel& l1 = l1s_[core];
        const std::uint64_t line = l1.line_base(addr);
        const std::optional<bool> prior_dirty = l1.probe(addr);
        const CacheAccessResult r = l1.access(addr, kind);
        if (r.evicted_line) {
            directory_.on_evict(core, *r.evicted_line);
            if (r.writeback_line) l2_access(*r.writeback_line, AccessKind::Write);
        }
        if (r.hit) {
            if (kind == AccessKind::Write && !*prior_dirty)
                apply_actions(line, directory_.on_write(core, line));
            return;
        }
        apply_actions(line, kind == AccessKind::Read ? directory_.on_read_miss(core, line)
                                                     : directory_.on_write(core, line));
    }

    void replay(std::span<const std::unique_ptr<TraceSource>> sources) {
        struct Cursor {
            TraceChunk chunk;
            std::size_t i = 0;
            bool done = false;
        };
        std::vector<Cursor> cursors(sources.size());
        const auto advance = [&](unsigned c) {
            Cursor& cur = cursors[c];
            while (!cur.done && cur.i >= cur.chunk.size()) {
                cur.i = 0;
                if (!sources[c]->next(cur.chunk)) cur.done = true;
            }
        };
        for (unsigned c = 0; c < sources.size(); ++c) {
            sources[c]->reset();
            advance(c);
        }
        const std::uint64_t line = config_.l1.line_bytes;
        for (bool live = true; live;) {
            live = false;
            for (unsigned c = 0; c < sources.size(); ++c) {
                Cursor& cur = cursors[c];
                if (cur.done) continue;
                const std::uint64_t addr = cur.chunk.addrs[cur.i];
                const AccessKind kind = cur.chunk.kinds[cur.i];
                const std::uint64_t last =
                    addr + std::max<std::uint64_t>(cur.chunk.sizes[cur.i], 1) - 1;
                access(c, addr, kind);
                for (std::uint64_t l = addr / line + 1; l <= last / line; ++l)
                    access(c, l * line, kind);
                ++cur.i;
                advance(c);
                live = true;
            }
        }
    }

    void flush() {
        for (unsigned c = 0; c < config_.cores; ++c) {
            for (const std::uint64_t line : l1s_[c].flush()) {
                directory_.on_flush(c, line);
                l2_access(line, AccessKind::Write);
            }
        }
        for (ReferenceCacheModel& bank : l2_banks_) traffic_.line_writes += bank.flush().size();
    }

    EnergyBreakdown energy() const {
        EnergyBreakdown out;
        const unsigned line_bytes = config_.l1.line_bytes;
        const double words_per_line = static_cast<double>(line_bytes) / 4.0;
        const auto array = [&](const CacheConfig& geometry, const CacheStats& s) {
            const SramEnergyModel model(geometry.size_bytes);
            return model.read_energy() * static_cast<double>(s.read_hits + s.read_misses) +
                   model.write_energy() * static_cast<double>(s.write_hits + s.write_misses) +
                   model.write_energy() * words_per_line * static_cast<double>(s.fills);
        };
        const CacheStats l1 = totals(l1s_);
        const CacheStats l2 = totals(l2_banks_);
        out.add("l1", array(config_.l1, l1));
        out.add("l2", array(config_.l2_bank, l2));
        out.add("bank_select",
                bank_select_energy(config_.l2_banks) * static_cast<double>(l2.accesses()));
        const CoherenceEnergyModel coherence;
        const CoherenceStats& cs = directory_.stats();
        out.add("directory", coherence.lookup_energy(cs.lookups));
        out.add("coherence", coherence.message_energy(cs.messages()) +
                                 coherence.transfer_energy(cs.dirty_transfers() * line_bytes));
        out.add("main_memory", DramEnergyModel{}.burst_energy(line_bytes) *
                                   static_cast<double>(traffic_.line_fetches +
                                                       traffic_.line_writes));
        return out;
    }

private:
    static CacheStats totals(const std::vector<ReferenceCacheModel>& caches) {
        CacheStats total;
        for (const ReferenceCacheModel& cache : caches) {
            const CacheStats& s = cache.stats();
            total.read_hits += s.read_hits;
            total.read_misses += s.read_misses;
            total.write_hits += s.write_hits;
            total.write_misses += s.write_misses;
            total.fills += s.fills;
            total.writebacks += s.writebacks;
        }
        return total;
    }

    void l2_access(std::uint64_t line, AccessKind kind) {
        const unsigned bank =
            static_cast<unsigned>((line / config_.l1.line_bytes) % config_.l2_banks);
        const CacheAccessResult r = l2_banks_[bank].access(line, kind);
        if (r.fill_line) ++traffic_.line_fetches;
        if (r.writeback_line) ++traffic_.line_writes;
    }

    void apply_actions(std::uint64_t line, const CoherenceActions& actions) {
        if (actions.writeback_owner) {
            const bool was_dirty = l1s_[*actions.writeback_owner].downgrade(line);
            MEMOPT_ASSERT(was_dirty);
            l2_access(line, AccessKind::Write);
        }
        for (unsigned j = 0; j < config_.cores; ++j) {
            if ((actions.invalidate >> j) & 1) {
                const std::optional<bool> dirty = l1s_[j].invalidate(line);
                MEMOPT_ASSERT(dirty.has_value());
            }
        }
        if (actions.fetch) l2_access(line, AccessKind::Read);
    }

    MultiCoreConfig config_;
    std::vector<ReferenceCacheModel> l1s_;
    std::vector<ReferenceCacheModel> l2_banks_;
    ReferenceMsiDirectory directory_;
    MemoryTraffic traffic_;
};

}  // namespace memopt
