// Block-granularity address remapping.
//
// Address clustering (DATE'03 1B-1) inserts a bijective remap of address
// blocks between the CPU and the memory banks: hot blocks that are scattered
// across the address space are relocated next to each other in the physical
// block space, so that the downstream partitioner can isolate them into a
// small, cheap bank. An AddressMap is that bijection.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "trace/profile.hpp"

namespace memopt {

/// A bijective mapping of profile blocks (logical -> physical).
class AddressMap {
public:
    /// Trivial map: identity over a single 4 KiB block. Exists so that
    /// result structs holding an AddressMap are default-constructible;
    /// replace it before use.
    AddressMap() : AddressMap(4096, {0}) {}

    /// Identity map over `num_blocks` blocks of `block_size` bytes.
    static AddressMap identity(std::uint64_t block_size, std::size_t num_blocks);

    /// Build from an explicit permutation: perm[logical] = physical.
    /// Throws memopt::Error unless `perm` is a bijection.
    AddressMap(std::uint64_t block_size, std::vector<std::size_t> perm);

    std::uint64_t block_size() const { return block_size_; }
    std::size_t num_blocks() const { return perm_.size(); }
    bool is_identity() const;

    /// Physical block of a logical block.
    std::size_t map_block(std::size_t logical) const;

    /// Remap a byte address (block bits remapped, offset preserved).
    std::uint64_t map_addr(std::uint64_t addr) const;

    /// The raw permutation (logical -> physical).
    std::span<const std::size_t> permutation() const { return perm_; }

    /// Apply to a profile: returns the physical-space profile.
    BlockProfile apply(const BlockProfile& profile) const;

private:
    std::uint64_t block_size_;
    std::vector<std::size_t> perm_;  // logical -> physical
};

}  // namespace memopt
