// Set-associative cache model.
//
// A trace-driven geometric cache simulator: it tracks tags, validity,
// dirtiness and LRU state, and reports hit/miss/fill/write-back events per
// access. The policy is fixed: true LRU replacement, write-back with
// write-allocate. It does not store data — data reconstruction is layered
// on top by the compressed-memory simulation (cache/memsys), which
// replays access values from the trace.
//
// Way layout: 16 bytes, a tag word and an LRU stamp. The tag word is the
// resident line's base address with the dirty flag in bit 0 (a line is at
// least 4 bytes, so a base address never sets the low two bits). The
// stamp is the tick of the line's last access, and 0 marks an invalid way,
// whose tag word is all ones so that no base address matches it. Every
// geometry is a power of two, so the set of an address and the first way
// of a set are found by shift and mask. access() scans its set once,
// without an early exit: the pass finds the hit way and the victim (the
// first way with the smallest stamp: an invalid way, else the least
// recently used line).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "trace/trace.hpp"

namespace memopt {

class JsonWriter;

/// Cache geometry. size_bytes, line_bytes and associativity must make a
/// consistent power-of-two geometry (sets = size / (line * assoc) >= 1).
struct CacheConfig {
    std::uint64_t size_bytes = 8 * 1024;
    unsigned line_bytes = 32;
    unsigned associativity = 4;
};

/// Counters accumulated by the model.
struct CacheStats {
    std::uint64_t read_hits = 0;
    std::uint64_t read_misses = 0;
    std::uint64_t write_hits = 0;
    std::uint64_t write_misses = 0;
    std::uint64_t fills = 0;           ///< lines fetched from the next level
    std::uint64_t writebacks = 0;      ///< dirty lines evicted to the next level

    bool operator==(const CacheStats&) const = default;

    CacheStats& operator+=(const CacheStats& o) {
        read_hits += o.read_hits;
        read_misses += o.read_misses;
        write_hits += o.write_hits;
        write_misses += o.write_misses;
        fills += o.fills;
        writebacks += o.writebacks;
        return *this;
    }

    std::uint64_t accesses() const {
        return read_hits + read_misses + write_hits + write_misses;
    }
    std::uint64_t misses() const { return read_misses + write_misses; }
    double miss_rate() const {
        return accesses() == 0 ? 0.0 : static_cast<double>(misses()) / static_cast<double>(accesses());
    }
};

/// Write `s` as one JSON object: the six counters, then miss_rate.
void to_json(JsonWriter& w, const CacheStats& s);

/// Outcome of one access: what traffic it caused toward the next level.
struct CacheAccessResult {
    bool hit = false;
    /// On a hit, the line's dirty flag from before this access (false on a
    /// miss): a coherence controller reads its Modified state here.
    bool was_dirty = false;
    std::optional<std::uint64_t> fill_line;       ///< line base addr fetched
    std::optional<std::uint64_t> writeback_line;  ///< dirty line base addr evicted
    /// Base address of any valid line the fill replaced, dirty or clean.
    /// writeback_line covers only the dirty case; coherence controllers
    /// need clean replacements too to keep sharer sets precise.
    std::optional<std::uint64_t> evicted_line;
};

/// The cache model (true LRU replacement, write-back/write-allocate).
class CacheModel {
public:
    explicit CacheModel(const CacheConfig& config);

    const CacheConfig& config() const { return config_; }
    const CacheStats& stats() const { return stats_; }
    std::size_t num_sets() const { return sets_; }

    /// Simulate one access.
    CacheAccessResult access(std::uint64_t addr, AccessKind kind);

    /// Evict every dirty line (end-of-run flush); returns their base
    /// addresses and counts them as writebacks.
    std::vector<std::uint64_t> flush();

    /// True if the line containing `addr` is resident.
    bool contains(std::uint64_t addr) const;

    /// Residency probe: nullopt when the line containing `addr` is absent,
    /// otherwise its dirty flag. Touches neither statistics nor
    /// replacement state (unlike access()).
    std::optional<bool> probe(std::uint64_t addr) const;

    /// Remove the line containing `addr` (remote invalidation). Returns
    /// the line's dirtiness before removal, or nullopt when it was not
    /// resident. Statistics untouched: the coherence controller owns the
    /// accounting of protocol-induced traffic.
    std::optional<bool> invalidate(std::uint64_t addr);

    /// Clear the dirty flag of the line containing `addr` (remote-read
    /// downgrade: the owner keeps a now-clean copy). Returns true when the
    /// line was resident and dirty, i.e. a write-back of its data is due.
    bool downgrade(std::uint64_t addr);

    /// Number of valid lines currently resident.
    std::size_t resident_lines() const;

    /// Reset tags and statistics: a replay after reset() is bit-identical
    /// to a fresh model.
    void reset();

    /// Line base address of `addr` under this geometry.
    std::uint64_t line_base(std::uint64_t addr) const;

private:
    static constexpr std::uint64_t kDirty = 1;
    static constexpr std::uint64_t kNoLine = ~std::uint64_t{0};

    struct Way {
        std::uint64_t tag = kNoLine;  // line base | kDirty when dirty
        std::uint64_t lru = 0;        // larger = more recently used; 0 = invalid
    };

    Way* set_of(std::uint64_t addr);
    Way* find_way(std::uint64_t addr);
    const Way* find_way(std::uint64_t addr) const;

    CacheConfig config_;
    std::size_t sets_;
    unsigned line_shift_;     // log2(line_bytes)
    unsigned way_shift_;      // log2(associativity)
    std::uint64_t set_mask_;  // sets_ - 1
    std::vector<Way> ways_;   // sets_ * associativity, row-major by set
    std::uint64_t tick_ = 0;
    CacheStats stats_;
};

}  // namespace memopt
