// Directory-based MSI coherence protocol.
//
// The directory is the serialization point of the simulated multi-core
// machine (cache/mcache.hpp): it tracks, per L1-line-sized block, the
// protocol state (Modified / Shared / Invalid) and a sharer bitset over the
// cores. Every L1 miss and every store-to-Shared upgrade consults it; the
// actions it returns — invalidate remote copies, flush the Modified owner —
// are what the controller applies to the private L1 models and counts as
// coherence traffic (energy/coherence_model.hpp prices the messages).
//
// The structures mirror the sparse-directory MSI organization of CMP
// simulators (a Graphite-style pr_l1_sh_l2 subsystem), reduced to the
// geometric counters this toolkit models. Like a hardware sparse
// directory, it is a fixed-size table: an entry exists exactly while some
// L1 holds the line, so it never tracks more lines than the L1s hold
// together (cores x L1 lines, the bound its constructor takes). The table
// is open-addressed with linear probing and has a power-of-two capacity of
// at least twice the bound, allocated once at construction. An empty slot
// is one with no sharers, and the last sharer's eviction empties its slot
// by backward-shift deletion, so the table needs no tombstones and never
// grows.
//
// Transition table (directory view; `c` = requesting core):
//
//   state     event           next state  actions
//   --------  --------------  ----------  --------------------------------
//   Invalid   read miss (c)   Shared{c}   fetch line from home L2 bank
//   Invalid   write miss (c)  Mod{c}      fetch line from home L2 bank
//   Shared    read miss (c)   Shared+{c}  fetch line from home L2 bank
//   Shared    write (c in)    Mod{c}      invalidate other sharers (upgrade)
//   Shared    write (c out)   Mod{c}      invalidate all sharers, fetch
//   Modified  read miss (c)   Shared      downgrade owner (flush to L2),
//             (c != owner)    {owner,c}   fetch
//   Modified  write miss (c)  Mod{c}      flush + invalidate owner, fetch
//             (c != owner)
//   any       evict (c)       -c; Invalid sharer drop (Modified owner drop
//                             when empty   invalidates the entry)
//
// Reads and writes that hit a line the core already holds in a sufficient
// state (Shared/Modified for loads, Modified for stores) are
// coherence-silent and never reach the directory, as in hardware.
//
// Determinism: every query mutates exactly one entry (a deletion may also
// move later entries of its probe run, which no query can observe); no
// iteration order is observable outside the sorted snapshot() helper. All
// counters are exact integer sums, so replays are bit-identical at any job
// count.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace memopt {

/// Protocol state of one line in the directory.
enum class MsiState : std::uint8_t {
    Invalid,   ///< no cached copy exists (entry absent)
    Shared,    ///< >= 1 clean copies, read-only
    Modified,  ///< exactly one dirty copy, read-write
};

/// Directory record of one tracked line.
struct DirectoryLine {
    MsiState state = MsiState::Invalid;
    std::uint64_t sharers = 0;  ///< bit c set = core c holds the line in L1
};

/// What the controller must apply before the requesting core may proceed.
struct CoherenceActions {
    std::uint64_t invalidate = 0;  ///< bitset of cores whose copy must be killed
    /// Modified owner whose dirty line must be flushed to the home L2 bank
    /// first (a downgrade on a remote read, a kill on a remote write — the
    /// write case also sets the owner's bit in `invalidate`).
    std::optional<unsigned> writeback_owner;
    bool fetch = false;  ///< the requester must fetch the line from its home bank
};

/// Protocol event counters. All messages are also priced as energy by
/// CoherenceEnergyModel (energy/coherence_model.hpp).
struct CoherenceStats {
    std::uint64_t lookups = 0;        ///< directory consultations (misses + upgrades)
    std::uint64_t upgrades = 0;       ///< Shared -> Modified on a local write
    std::uint64_t downgrades = 0;     ///< Modified -> Shared owner flush (remote read)
    std::uint64_t owner_flushes = 0;  ///< Modified owner killed by a remote write
    std::uint64_t invalidations = 0;  ///< invalidation messages sent to remote copies
    std::uint64_t evictions = 0;      ///< sharer drops from L1 replacements

    /// Control messages on the coherence interconnect.
    std::uint64_t messages() const { return invalidations + downgrades; }
    /// Dirty-line payloads pushed to L2 by the protocol (not by capacity).
    std::uint64_t dirty_transfers() const { return downgrades + owner_flushes; }
};

/// The MSI directory. Supports up to 64 cores (sharer bitset width).
class MsiDirectory {
public:
    /// `max_lines` bounds the lines tracked at once, in [1, 2^32]. Tracking
    /// one more is a protocol violation (MEMOPT_ASSERT).
    MsiDirectory(unsigned cores, std::size_t max_lines);

    unsigned cores() const { return cores_; }
    const CoherenceStats& stats() const { return stats_; }

    /// Core `core` misses on a load of `line`. Must not be called while
    /// the core is already a sharer (L1 evictions are reported, so the
    /// directory and the L1 models never disagree on residency).
    CoherenceActions on_read_miss(unsigned core, std::uint64_t line);

    /// Core `core` stores to `line`: either a write miss (core not a
    /// sharer; actions include fetch) or an upgrade of a Shared copy the
    /// core already holds (no fetch). Calls on Modified-by-`core` lines
    /// are protocol violations — those store hits are coherence-silent.
    CoherenceActions on_write(unsigned core, std::uint64_t line);

    /// Core `core` replaced `line` in its L1 (clean or dirty victim).
    void on_evict(unsigned core, std::uint64_t line);

    /// End-of-run flush notification: the owner wrote `line` back but keeps
    /// a clean copy, so a Modified entry downgrades to Shared.
    void on_flush(unsigned core, std::uint64_t line);

    /// Directory view of one line (Invalid default for untracked lines).
    DirectoryLine line(std::uint64_t line_addr) const;

    /// Number of tracked (non-Invalid) lines.
    std::size_t tracked_lines() const { return size_; }

    /// Sum of sharer-bitset popcounts over all tracked lines (equals the
    /// total resident-line count across the private L1s).
    std::uint64_t total_sharers() const;

    /// Deterministic (address-sorted) snapshot of every tracked line, for
    /// invariant checks and reports.
    std::vector<std::pair<std::uint64_t, DirectoryLine>> snapshot() const;

private:
    struct Slot {
        std::uint64_t line = 0;
        DirectoryLine entry;  ///< sharers == 0: the slot is empty
    };

    unsigned owner_of(const DirectoryLine& entry) const;
    /// First slot of the probe run of `line`.
    std::size_t home_of(std::uint64_t line) const;
    /// Slot of `line`, or the empty slot that ends its probe run.
    std::size_t find(std::uint64_t line) const;
    /// Start tracking `line` in the empty slot `find` returned for it.
    DirectoryLine& insert(std::size_t slot, std::uint64_t line);
    /// Empty `slot`, shifting later entries of its probe run back.
    void erase(std::size_t slot);

    unsigned cores_;
    std::size_t max_lines_;
    std::size_t size_ = 0;
    unsigned hash_shift_;      // 64 - log2(capacity)
    std::vector<Slot> slots_;  // capacity = slots_.size(), a power of two
    CoherenceStats stats_;
};

}  // namespace memopt
