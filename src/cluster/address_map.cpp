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
    std::vector<bool> taken(perm_.size(), false);
    for (const std::size_t physical : perm_) {
        require(physical < perm_.size(), "AddressMap: target block out of range");
        require(!taken[physical], "AddressMap: permutation is not a bijection");
        taken[physical] = true;
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

}  // namespace memopt
