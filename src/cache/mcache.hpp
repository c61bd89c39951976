// Multi-core coherent cache system: private L1s + banked shared L2 + MSI.
//
// N cores each own a private write-back/write-allocate L1 CacheModel. They
// share a banked L2: `l2_banks` address-interleaved CacheModel instances
// (home bank = line index mod bank count — consecutive lines stripe across
// banks, the same interleaving the partitioned-memory experiments assume).
// A directory-based MSI protocol (cache/coherence.hpp) keeps the L1s
// coherent; its messages and dirty-line flushes are counted as coherence
// traffic and priced by CoherenceEnergyModel into the EnergyBreakdown next
// to the L1/L2/DRAM terms.
//
// Determinism contract: replay() interleaves the per-core trace streams by
// round-robin arbitration in fixed core order (core 0 access k, core 1
// access k, ... ), one access per core per turn, independent of chunk
// geometry and of --jobs. Between turns, every core whose chunk ran out
// pulls its next one; once the chunks just used up hold a task's worth of
// accesses (stream_detail::kMinAccessesPerTask; the whole traces, for the
// first fill), those refills run concurrently. Each refill advances only its own core's source, and every
// source delivers a fixed sequence, so each turn sees the same accesses at
// any job count. The simulation itself is a single serialized machine, so
// results are bit-identical at any job count by construction — the
// jobs-invariance test in tests/test_mcache.cpp polices the wiring over
// every source kind.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cache/cache.hpp"
#include "cache/coherence.hpp"
#include "energy/report.hpp"

namespace memopt {

class JsonWriter;
class TraceSource;

/// Traffic seen by main memory after the caches filter the trace.
struct MemoryTraffic {
    std::uint64_t line_fetches = 0;  ///< L2-line reads from memory
    std::uint64_t line_writes = 0;   ///< L2-line write-backs to memory
    std::uint64_t word_writes = 0;   ///< always 0: every cache is write-back
};

/// Geometry of the multi-core system. L2 bank line size must equal the L1
/// line size (the directory tracks L1-line-sized blocks).
struct MultiCoreConfig {
    unsigned cores = 4;
    CacheConfig l1;       ///< private per-core L1 geometry
    CacheConfig l2_bank;  ///< geometry of ONE shared L2 bank
    unsigned l2_banks = 4;

    MultiCoreConfig() {
        l1.size_bytes = 8 * 1024;
        l1.line_bytes = 32;
        l1.associativity = 4;
        l2_bank.size_bytes = 64 * 1024;
        l2_bank.line_bytes = 32;
        l2_bank.associativity = 8;
    }
};

/// The coherent N-core cache machine.
class MultiCoreCacheSystem {
public:
    explicit MultiCoreCacheSystem(const MultiCoreConfig& config);

    const MultiCoreConfig& config() const { return config_; }
    unsigned cores() const { return config_.cores; }

    /// Simulate one access of `core`. Line-granular: callers replaying
    /// sized accesses split line-straddlers first (replay() does).
    void access(unsigned core, std::uint64_t addr, AccessKind kind);

    /// Replay one trace stream per core, interleaved by fixed round-robin
    /// arbitration (see file comment). `sources.size()` must equal the
    /// core count, and the sources must be distinct objects (their chunks
    /// may be refilled concurrently); accesses straddling an L1 line
    /// boundary are split per covered line. A source's error is rethrown,
    /// the lowest core's first. Does not flush.
    void replay(std::span<const std::unique_ptr<TraceSource>> sources);

    /// Write every dirty line back (L1s in core order, then L2 banks) and
    /// downgrade the directory's Modified entries to Shared.
    void flush();

    const CacheModel& l1(unsigned core) const { return l1s_[core]; }
    const CacheModel& l2_bank(unsigned bank) const { return l2_banks_[bank]; }
    const MsiDirectory& directory() const { return directory_; }
    const MemoryTraffic& traffic() const { return traffic_; }

    /// Home bank of the line containing `addr`.
    unsigned bank_of(std::uint64_t addr) const;

    /// Element-wise sums of the per-core L1 / per-bank L2 counters.
    CacheStats l1_totals() const;
    CacheStats l2_totals() const;

    /// Full energy breakdown: per-access L1/L2 array energy, bank-select
    /// overhead, directory lookups, coherence messages + dirty transfers
    /// (priced by CoherenceEnergyModel), and the off-chip traffic behind
    /// the L2.
    EnergyBreakdown energy() const;

private:
    void apply_actions(std::uint64_t line, const CoherenceActions& actions);
    void l2_access(std::uint64_t line, AccessKind kind);

    MultiCoreConfig config_;
    std::vector<CacheModel> l1s_;
    std::vector<CacheModel> l2_banks_;
    MsiDirectory directory_;
    unsigned line_shift_;  // log2 of the L1 line size
    MemoryTraffic traffic_;
};

/// Serialize the whole machine: config, per-core L1 stats, per-bank L2
/// stats, coherence counters, memory traffic, energy breakdown.
void to_json(JsonWriter& w, const MultiCoreCacheSystem& system);

}  // namespace memopt
