#include "cache/coherence.hpp"

#include <algorithm>
#include <bit>

#include "support/assert.hpp"

namespace memopt {

namespace {
std::uint64_t core_bit(unsigned core) { return std::uint64_t{1} << core; }
}  // namespace

MsiDirectory::MsiDirectory(unsigned cores) : cores_(cores) {
    require(cores >= 1 && cores <= 64,
            "MsiDirectory: core count must be in [1, 64] (sharer bitset width)");
}

unsigned MsiDirectory::owner_of(const DirectoryLine& entry) const {
    MEMOPT_ASSERT_MSG(entry.state == MsiState::Modified &&
                          std::popcount(entry.sharers) == 1,
                      "MsiDirectory: Modified line must have exactly one sharer");
    return static_cast<unsigned>(std::countr_zero(entry.sharers));
}

CoherenceActions MsiDirectory::on_read_miss(unsigned core, std::uint64_t line) {
    MEMOPT_ASSERT(core < cores_);
    ++stats_.lookups;
    CoherenceActions actions;
    actions.fetch = true;  // a load miss always refills from the home bank
    DirectoryLine& entry = entries_[line];
    MEMOPT_ASSERT_MSG((entry.sharers & core_bit(core)) == 0,
                      "MsiDirectory: read miss from a core already sharing the line");
    if (entry.state == MsiState::Modified) {
        // Remote read of a dirty line: the owner flushes to the home bank
        // and keeps a clean copy; both cores end up Shared.
        const unsigned owner = owner_of(entry);
        actions.writeback_owner = owner;
        ++stats_.downgrades;
        entry.state = MsiState::Shared;
    } else {
        entry.state = MsiState::Shared;  // Invalid or already Shared
    }
    entry.sharers |= core_bit(core);
    return actions;
}

CoherenceActions MsiDirectory::on_write(unsigned core, std::uint64_t line) {
    MEMOPT_ASSERT(core < cores_);
    ++stats_.lookups;
    CoherenceActions actions;
    DirectoryLine& entry = entries_[line];
    const bool holder = (entry.sharers & core_bit(core)) != 0;
    if (entry.state == MsiState::Modified) {
        MEMOPT_ASSERT_MSG(!holder,
                          "MsiDirectory: write to an owned Modified line is silent");
        // Remote write to a dirty line: flush the owner's data, then kill
        // its copy; ownership transfers to the writer.
        const unsigned owner = owner_of(entry);
        actions.writeback_owner = owner;
        actions.invalidate = entry.sharers;
        ++stats_.owner_flushes;
    } else if (entry.state == MsiState::Shared) {
        // Kill every other clean copy; a holder upgrades without a fetch.
        actions.invalidate = entry.sharers & ~core_bit(core);
        if (holder) ++stats_.upgrades;
    }
    stats_.invalidations +=
        static_cast<std::uint64_t>(std::popcount(actions.invalidate));
    actions.fetch = !holder;
    entry.state = MsiState::Modified;
    entry.sharers = core_bit(core);
    return actions;
}

void MsiDirectory::on_evict(unsigned core, std::uint64_t line) {
    MEMOPT_ASSERT(core < cores_);
    ++stats_.evictions;
    const auto it = entries_.find(line);
    MEMOPT_ASSERT_MSG(it != entries_.end() && (it->second.sharers & core_bit(core)) != 0,
                      "MsiDirectory: eviction from a core the directory does not track");
    it->second.sharers &= ~core_bit(core);
    if (it->second.sharers == 0) {
        entries_.erase(it);  // last copy gone: line is Invalid again
    } else {
        MEMOPT_ASSERT_MSG(it->second.state == MsiState::Shared,
                          "MsiDirectory: Modified line cannot have residual sharers");
    }
}

void MsiDirectory::on_flush(unsigned core, std::uint64_t line) {
    MEMOPT_ASSERT(core < cores_);
    const auto it = entries_.find(line);
    MEMOPT_ASSERT_MSG(it != entries_.end() && it->second.state == MsiState::Modified &&
                          it->second.sharers == core_bit(core),
                      "MsiDirectory: flush notification must come from the owner");
    it->second.state = MsiState::Shared;
}

DirectoryLine MsiDirectory::line(std::uint64_t line_addr) const {
    const auto it = entries_.find(line_addr);
    return it == entries_.end() ? DirectoryLine{} : it->second;
}

std::uint64_t MsiDirectory::total_sharers() const {
    std::uint64_t total = 0;
    // memopt-lint: order-independent -- exact integer sum over unique keys,
    // commutative in any traversal order.
    for (const auto& [addr, entry] : entries_)
        total += static_cast<std::uint64_t>(std::popcount(entry.sharers));
    return total;
}

std::vector<std::pair<std::uint64_t, DirectoryLine>> MsiDirectory::snapshot() const {
    std::vector<std::pair<std::uint64_t, DirectoryLine>> out;
    out.reserve(entries_.size());
    // memopt-lint: order-independent -- collection order is erased by the
    // sort below; keys are unique within entries_.
    for (const auto& [addr, entry] : entries_) out.emplace_back(addr, entry);
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return out;
}

}  // namespace memopt
