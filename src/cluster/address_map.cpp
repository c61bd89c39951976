#include "cluster/address_map.hpp"

#include <numeric>

#include "support/assert.hpp"
#include "support/bits.hpp"

namespace memopt {

AddressMap AddressMap::identity(std::uint64_t block_size, std::size_t num_blocks) {
    std::vector<std::size_t> perm(num_blocks);
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    return AddressMap(block_size, std::move(perm));
}

AddressMap::AddressMap(std::uint64_t block_size, std::vector<std::size_t> perm)
    : block_size_(block_size), perm_(std::move(perm)) {
    require(is_pow2(block_size_), "AddressMap: block_size must be a power of two");
    require(!perm_.empty(), "AddressMap: empty permutation");
    inverse_.assign(perm_.size(), SIZE_MAX);
    for (std::size_t logical = 0; logical < perm_.size(); ++logical) {
        const std::size_t physical = perm_[logical];
        require(physical < perm_.size(), "AddressMap: target block out of range");
        require(inverse_[physical] == SIZE_MAX, "AddressMap: permutation is not a bijection");
        inverse_[physical] = logical;
    }
}

bool AddressMap::is_identity() const {
    for (std::size_t i = 0; i < perm_.size(); ++i) {
        if (perm_[i] != i) return false;
    }
    return true;
}

std::size_t AddressMap::map_block(std::size_t logical) const {
    require(logical < perm_.size(), "map_block: block out of range");
    return perm_[logical];
}

std::size_t AddressMap::unmap_block(std::size_t physical) const {
    require(physical < perm_.size(), "unmap_block: block out of range");
    return inverse_[physical];
}

std::uint64_t AddressMap::map_addr(std::uint64_t addr) const {
    const std::uint64_t block = addr / block_size_;
    require(block < perm_.size(), "map_addr: address outside mapped span");
    return static_cast<std::uint64_t>(perm_[static_cast<std::size_t>(block)]) * block_size_ +
           addr % block_size_;
}

BlockProfile AddressMap::apply(const BlockProfile& profile) const {
    require(profile.num_blocks() == perm_.size() && profile.block_size() == block_size_,
            "AddressMap::apply: profile geometry mismatch");
    return profile.permuted(perm_);
}

MemTrace AddressMap::apply(const MemTrace& trace) const {
    // Columnar remap: only the addr column is transformed; the other
    // columns are copied wholesale. from_columns re-derives the summary
    // statistics (the remap moves min/max_addr).
    std::vector<std::uint64_t> addrs(trace.addrs().begin(), trace.addrs().end());
    for (std::uint64_t& addr : addrs) addr = map_addr(addr);
    return MemTrace::from_columns(
        std::move(addrs), {trace.cycles().begin(), trace.cycles().end()},
        {trace.values().begin(), trace.values().end()},
        {trace.sizes().begin(), trace.sizes().end()},
        {trace.kinds().begin(), trace.kinds().end()});
}

}  // namespace memopt
