// Two-level cache hierarchy: the oracle of the multi-core cache system.
//
// Chains an L1 and an L2 CacheModel: L1 fills and write-backs become L2
// accesses; L2 fills and write-backs are main-memory bursts. A one-core
// MultiCoreCacheSystem must match it exactly
// (MultiCore.SingleCoreMatchesCacheHierarchy in test_mcache.cpp).
#pragma once

#include <algorithm>
#include <cstdint>

#include "cache/cache.hpp"
#include "cache/mcache.hpp"
#include "support/assert.hpp"
#include "trace/source.hpp"

namespace memopt {

/// L1 + L2 hierarchy driven by a CPU access stream.
class CacheHierarchy {
public:
    /// L2 line size must be >= L1 line size.
    CacheHierarchy(const CacheConfig& l1, const CacheConfig& l2) : l1_(l1), l2_(l2) {
        require(l2.line_bytes >= l1.line_bytes, "CacheHierarchy: L2 line must be >= L1 line");
        require(l2.size_bytes >= l1.size_bytes,
                "CacheHierarchy: L2 must be at least as large as L1");
    }

    /// Simulate one CPU access; updates both levels and the traffic counts.
    void access(std::uint64_t addr, AccessKind kind) {
        const CacheAccessResult r = l1_.access(addr, kind);
        // A dirty L1 eviction becomes an L2 write of the victim line.
        if (r.writeback_line) l2_access(*r.writeback_line, AccessKind::Write);
        // An L1 fill becomes an L2 read of the missing line.
        if (r.fill_line) l2_access(*r.fill_line, AccessKind::Read);
    }

    /// Replay a whole chunked trace stream through the hierarchy (does not
    /// flush). Accesses whose [addr, addr+size) span straddles an L1 line
    /// boundary are split and charged once per touched line.
    void replay(TraceSource& source) {
        source.reset();
        const std::uint64_t line = l1_.config().line_bytes;
        TraceChunk chunk;
        while (source.next(chunk)) {
            for (std::size_t i = 0; i < chunk.size(); ++i) {
                const std::uint64_t addr = chunk.addrs[i];
                const AccessKind kind = chunk.kinds[i];
                const std::uint64_t last = addr + std::max<std::uint64_t>(chunk.sizes[i], 1) - 1;
                access(addr, kind);
                for (std::uint64_t l = addr / line + 1; l <= last / line; ++l)
                    access(l * line, kind);
            }
        }
    }

    /// Flush both levels (dirty L1 lines propagate into L2 first).
    void flush() {
        for (std::uint64_t line : l1_.flush()) l2_access(line, AccessKind::Write);
        traffic_.line_writes += l2_.flush().size();
    }

    const CacheModel& l1() const { return l1_; }
    const CacheModel& l2() const { return l2_; }
    const MemoryTraffic& traffic() const { return traffic_; }

private:
    void l2_access(std::uint64_t addr, AccessKind kind) {
        const CacheAccessResult r = l2_.access(addr, kind);
        if (r.fill_line) ++traffic_.line_fetches;
        if (r.writeback_line) ++traffic_.line_writes;
    }

    CacheModel l1_;
    CacheModel l2_;
    MemoryTraffic traffic_;
};

}  // namespace memopt
