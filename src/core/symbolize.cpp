#include "core/symbolize.hpp"

#include <algorithm>
#include <utility>

namespace memopt {

std::vector<SymbolTraffic> symbolize_trace(const AssembledProgram& program,
                                           const MemTrace& trace) {
    // Data symbols sorted by address; each region runs to the next symbol
    // or the end of the data image. This is a build-once/look-up-often
    // table, so a sorted vector beats a node-based std::map: one contiguous
    // allocation and cache-friendly binary searches on the lookup path.
    std::vector<std::pair<std::uint64_t, std::string>> data_symbols;
    for (const auto& [name, addr] : program.symbols) {
        if (addr >= program.data_base) data_symbols.emplace_back(addr, name);
    }
    std::stable_sort(data_symbols.begin(), data_symbols.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    // Two labels on the same address: keep the first (matches the previous
    // std::map::emplace behaviour, which dropped later duplicates).
    data_symbols.erase(std::unique(data_symbols.begin(), data_symbols.end(),
                                   [](const auto& a, const auto& b) {
                                       return a.first == b.first;
                                   }),
                       data_symbols.end());

    std::vector<SymbolTraffic> regions;
    regions.reserve(data_symbols.size());
    const std::uint64_t image_end = program.data_base + program.data.size();
    for (std::size_t i = 0; i < data_symbols.size(); ++i) {
        const std::uint64_t base = data_symbols[i].first;
        const std::uint64_t end =
            i + 1 < data_symbols.size() ? data_symbols[i + 1].first : image_end;
        regions.push_back(
            SymbolTraffic{data_symbols[i].second, base, end > base ? end - base : 0, 0, 0});
    }
    SymbolTraffic anonymous{"<stack/anon>", 0, 0, 0, 0};

    const auto addrs = trace.addrs();
    const auto kinds = trace.kinds();
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const std::uint64_t addr = addrs[i];
        SymbolTraffic* hit = &anonymous;
        // Regions are ordered: binary search for the last base <= addr.
        if (!regions.empty() && addr >= regions.front().base) {
            const auto it = std::upper_bound(
                regions.begin(), regions.end(), addr,
                [](std::uint64_t a, const SymbolTraffic& r) { return a < r.base; });
            SymbolTraffic& candidate = *std::prev(it);
            if (addr < candidate.base + candidate.bytes) hit = &candidate;
        }
        if (kinds[i] == AccessKind::Read) {
            ++hit->reads;
        } else {
            ++hit->writes;
        }
    }

    std::vector<SymbolTraffic> out;
    for (SymbolTraffic& region : regions) {
        if (region.total() > 0) out.push_back(std::move(region));
    }
    if (anonymous.total() > 0) out.push_back(std::move(anonymous));
    std::stable_sort(out.begin(), out.end(), [](const SymbolTraffic& a, const SymbolTraffic& b) {
        return a.total() > b.total();
    });
    return out;
}

}  // namespace memopt
