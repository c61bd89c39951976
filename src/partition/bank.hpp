// Multi-bank memory architectures.
//
// A partition assigns every profile block to exactly one bank; banks are
// contiguous block ranges (in the — possibly remapped — block address
// space) and their physical capacity is rounded up to a power of two, the
// granularity at which embedded SRAM cuts are available.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/profile.hpp"

namespace memopt {

/// Smallest manufacturable SRAM cut [bytes]: capacity_for() clamps every
/// bank of monolithic() and from_splits() up to it.
inline constexpr std::uint64_t kMinBankBytes = 256;

/// One SRAM bank covering a contiguous block range.
struct Bank {
    std::size_t first_block = 0;  ///< first covered block (inclusive)
    std::size_t num_blocks = 0;   ///< number of covered blocks (> 0)
    std::uint64_t size_bytes = 0; ///< physical capacity (power of two)

    std::size_t end_block() const { return first_block + num_blocks; }
};

/// A complete multi-bank memory architecture over a block profile.
///
/// Invariants (checked by validate()): banks are non-empty, ordered,
/// disjoint, cover every block exactly once, and each bank's capacity is a
/// power of two that holds its block range.
class MemoryArchitecture {
public:
    /// Trivial architecture: one 4 KiB bank over one block. Exists so that
    /// result structs holding a MemoryArchitecture are default-
    /// constructible; replace it before use.
    MemoryArchitecture() : MemoryArchitecture({Bank{0, 1, 4096}}, 4096) {}

    /// Build from bank ranges. `block_size` is the profile's block size.
    /// Throws memopt::Error on invalid layouts.
    MemoryArchitecture(std::vector<Bank> banks, std::uint64_t block_size);

    /// Monolithic architecture: one bank covering `num_blocks` blocks.
    static MemoryArchitecture monolithic(std::uint64_t block_size, std::size_t num_blocks);

    /// Build from split points: `splits` are the first blocks of each bank
    /// after the first (strictly increasing, in (0, num_blocks)).
    static MemoryArchitecture from_splits(std::uint64_t block_size, std::size_t num_blocks,
                                          const std::vector<std::size_t>& splits);

    const std::vector<Bank>& banks() const { return banks_; }
    std::size_t num_banks() const { return banks_.size(); }
    std::uint64_t block_size() const { return block_size_; }
    std::size_t num_blocks() const;

    /// Index of the bank holding `block`.
    std::size_t bank_of_block(std::size_t block) const;

    /// Total physical capacity over all banks (>= covered span).
    std::uint64_t total_capacity() const;

    /// Physical capacity (power of two, >= kMinBankBytes) needed for a run
    /// of `num_blocks` blocks of `block_size` bytes.
    static std::uint64_t capacity_for(std::uint64_t block_size, std::size_t num_blocks);

private:
    void validate() const;

    std::vector<Bank> banks_;
    std::uint64_t block_size_;
};

}  // namespace memopt
