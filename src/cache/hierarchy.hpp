// Two-level cache hierarchy.
//
// Chains an L1 and an L2 CacheModel: L1 fills and write-backs become L2
// accesses; L2 fills and write-backs are main-memory bursts. Used by the
// compression line-size sweeps and by tests that check inclusion-free
// multi-level behaviour.
#pragma once

#include <cstdint>

#include "cache/cache.hpp"

namespace memopt {

class TraceSource;

/// Traffic seen by main memory after the hierarchy filters the trace.
struct MemoryTraffic {
    std::uint64_t line_fetches = 0;   ///< L2-line reads from memory
    std::uint64_t line_writes = 0;    ///< L2-line write-backs to memory
    std::uint64_t word_writes = 0;    ///< write-through words reaching memory
};

/// L1 + L2 hierarchy driven by a CPU access stream.
class CacheHierarchy {
public:
    /// L2 line size must be >= L1 line size.
    CacheHierarchy(const CacheConfig& l1, const CacheConfig& l2);

    /// Simulate one CPU access; updates both levels and the traffic counts.
    void access(std::uint64_t addr, AccessKind kind);

    /// Replay a whole chunked trace stream through the hierarchy (does not
    /// flush). Sequential and stateful, so chunking is invisible:
    /// bit-identical to calling access() per covered line. Accesses whose
    /// [addr, addr+size) span straddles an L1 line boundary are split and
    /// charged once per touched line.
    void replay(TraceSource& source);

    /// Flush both levels (dirty L1 lines propagate into L2 first).
    void flush();

    const CacheModel& l1() const { return l1_; }
    const CacheModel& l2() const { return l2_; }
    const MemoryTraffic& traffic() const { return traffic_; }

private:
    void l2_access(std::uint64_t addr, AccessKind kind);

    CacheModel l1_;
    CacheModel l2_;
    MemoryTraffic traffic_;
};

}  // namespace memopt
