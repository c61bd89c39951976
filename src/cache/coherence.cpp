#include "cache/coherence.hpp"

#include <algorithm>
#include <bit>

#include "support/assert.hpp"
#include "support/bits.hpp"

namespace memopt {

namespace {
std::uint64_t core_bit(unsigned core) { return std::uint64_t{1} << core; }

// Fibonacci hashing: the top bits of line * 2^64/phi spread the aligned,
// often consecutive line addresses over the table.
constexpr std::uint64_t kHashMultiplier = 0x9E3779B97F4A7C15ull;
}  // namespace

MsiDirectory::MsiDirectory(unsigned cores, std::size_t max_lines)
    : cores_(cores), max_lines_(max_lines) {
    require(cores >= 1 && cores <= 64,
            "MsiDirectory: core count must be in [1, 64] (sharer bitset width)");
    require(max_lines >= 1 && max_lines <= (std::size_t{1} << 32),
            "MsiDirectory: the tracked-line bound must be in [1, 2^32]");
    const std::uint64_t capacity = ceil_pow2(2 * std::uint64_t{max_lines});
    hash_shift_ = 64 - log2_exact(capacity);
    slots_.assign(static_cast<std::size_t>(capacity), Slot{});
}

std::size_t MsiDirectory::home_of(std::uint64_t line) const {
    return static_cast<std::size_t>((line * kHashMultiplier) >> hash_shift_);
}

std::size_t MsiDirectory::find(std::uint64_t line) const {
    const std::size_t mask = slots_.size() - 1;
    // The table is at most half full, so every probe run ends at an empty slot.
    for (std::size_t i = home_of(line);; i = (i + 1) & mask) {
        const Slot& slot = slots_[i];
        if (slot.entry.sharers == 0 || slot.line == line) return i;
    }
}

DirectoryLine& MsiDirectory::insert(std::size_t slot, std::uint64_t line) {
    MEMOPT_ASSERT_MSG(size_ < max_lines_,
                      "MsiDirectory: more tracked lines than the L1s can hold");
    ++size_;
    slots_[slot] = Slot{line, DirectoryLine{}};
    return slots_[slot].entry;
}

void MsiDirectory::erase(std::size_t hole) {
    --size_;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = (hole + 1) & mask; slots_[i].entry.sharers != 0; i = (i + 1) & mask) {
        // The entry at i may fill the hole unless its home slot lies
        // cyclically in (hole, i]: it must stay reachable from its home.
        if (((i - home_of(slots_[i].line)) & mask) >= ((i - hole) & mask)) {
            slots_[hole] = slots_[i];
            hole = i;
        }
    }
    slots_[hole] = Slot{};
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
    const std::size_t slot = find(line);
    DirectoryLine& entry =
        slots_[slot].entry.sharers == 0 ? insert(slot, line) : slots_[slot].entry;
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
    const std::size_t slot = find(line);
    DirectoryLine& entry =
        slots_[slot].entry.sharers == 0 ? insert(slot, line) : slots_[slot].entry;
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
    const std::size_t slot = find(line);
    DirectoryLine& entry = slots_[slot].entry;  // an empty slot has no sharer
    MEMOPT_ASSERT_MSG((entry.sharers & core_bit(core)) != 0,
                      "MsiDirectory: eviction from a core the directory does not track");
    entry.sharers &= ~core_bit(core);
    if (entry.sharers == 0) {
        erase(slot);  // last copy gone: line is Invalid again
    } else {
        MEMOPT_ASSERT_MSG(entry.state == MsiState::Shared,
                          "MsiDirectory: Modified line cannot have residual sharers");
    }
}

void MsiDirectory::on_flush(unsigned core, std::uint64_t line) {
    MEMOPT_ASSERT(core < cores_);
    DirectoryLine& entry = slots_[find(line)].entry;  // Invalid when untracked
    MEMOPT_ASSERT_MSG(entry.state == MsiState::Modified && entry.sharers == core_bit(core),
                      "MsiDirectory: flush notification must come from the owner");
    entry.state = MsiState::Shared;
}

DirectoryLine MsiDirectory::line(std::uint64_t line_addr) const {
    const Slot& slot = slots_[find(line_addr)];
    return slot.entry.sharers == 0 ? DirectoryLine{} : slot.entry;
}

std::uint64_t MsiDirectory::total_sharers() const {
    std::uint64_t total = 0;
    for (const Slot& slot : slots_)
        total += static_cast<std::uint64_t>(std::popcount(slot.entry.sharers));
    return total;
}

std::vector<std::pair<std::uint64_t, DirectoryLine>> MsiDirectory::snapshot() const {
    std::vector<std::pair<std::uint64_t, DirectoryLine>> out;
    out.reserve(size_);
    for (const Slot& slot : slots_)
        if (slot.entry.sharers != 0) out.emplace_back(slot.line, slot.entry);
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return out;
}

}  // namespace memopt
