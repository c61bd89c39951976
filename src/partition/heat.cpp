#include "partition/heat.hpp"

#include <algorithm>
#include <numeric>

#include "support/assert.hpp"

namespace memopt {

std::vector<double> bank_heat(const MemoryArchitecture& arch, const BlockProfile& profile) {
    require(arch.num_blocks() == profile.num_blocks(),
            "bank_heat: architecture does not cover the profile");
    require(arch.block_size() == profile.block_size(), "bank_heat: block size mismatch");

    std::vector<double> heat;
    heat.reserve(arch.num_banks());
    for (const Bank& bank : arch.banks()) {
        std::uint64_t accesses = 0;
        for (std::size_t b = bank.first_block; b < bank.end_block(); ++b)
            accesses += profile.counts(b).total();
        heat.push_back(static_cast<double>(accesses) /
                       static_cast<double>(bank.size_bytes));
    }
    return heat;
}

std::vector<std::size_t> bank_heat_rank(const std::vector<double>& heat) {
    std::vector<std::size_t> order(heat.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return heat[a] > heat[b]; });
    std::vector<std::size_t> rank(heat.size());
    for (std::size_t r = 0; r < order.size(); ++r) rank[order[r]] = r;
    return rank;
}

}  // namespace memopt
