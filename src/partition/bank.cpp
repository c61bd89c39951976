#include "partition/bank.hpp"

#include <algorithm>

#include "support/assert.hpp"
#include "support/bits.hpp"

namespace memopt {

std::uint64_t MemoryArchitecture::capacity_for(std::uint64_t block_size, std::size_t num_blocks) {
    const std::uint64_t needed = block_size * num_blocks;
    return std::max(ceil_pow2(needed), kMinBankBytes);
}

MemoryArchitecture::MemoryArchitecture(std::vector<Bank> banks, std::uint64_t block_size)
    : banks_(std::move(banks)), block_size_(block_size) {
    validate();
}

MemoryArchitecture MemoryArchitecture::monolithic(std::uint64_t block_size,
                                                  std::size_t num_blocks) {
    return from_splits(block_size, num_blocks, {});
}

MemoryArchitecture MemoryArchitecture::from_splits(std::uint64_t block_size,
                                                   std::size_t num_blocks,
                                                   const std::vector<std::size_t>& splits) {
    require(num_blocks > 0, "from_splits: num_blocks must be > 0");
    std::vector<Bank> banks;
    std::size_t start = 0;
    auto close_bank = [&](std::size_t end) {
        require(end > start, "from_splits: splits must be strictly increasing in range");
        banks.push_back(Bank{start, end - start, capacity_for(block_size, end - start)});
        start = end;
    };
    for (std::size_t split : splits) {
        require(split < num_blocks, "from_splits: split out of range");
        close_bank(split);
    }
    close_bank(num_blocks);
    return MemoryArchitecture(std::move(banks), block_size);
}

void MemoryArchitecture::validate() const {
    require(is_pow2(block_size_), "MemoryArchitecture: block_size must be a power of two");
    require(!banks_.empty(), "MemoryArchitecture: needs at least one bank");
    std::size_t expected_start = 0;
    for (const Bank& bank : banks_) {
        require(bank.num_blocks > 0, "MemoryArchitecture: empty bank");
        require(bank.first_block == expected_start,
                "MemoryArchitecture: banks must tile the block space contiguously");
        require(is_pow2(bank.size_bytes), "MemoryArchitecture: bank capacity must be a power of two");
        require(bank.size_bytes >= bank.num_blocks * block_size_,
                "MemoryArchitecture: bank capacity smaller than its block range");
        expected_start = bank.end_block();
    }
}

std::size_t MemoryArchitecture::num_blocks() const { return banks_.back().end_block(); }

std::size_t MemoryArchitecture::bank_of_block(std::size_t block) const {
    require(block < num_blocks(), "bank_of_block: block out of range");
    // Binary search over ordered, disjoint banks.
    std::size_t lo = 0;
    std::size_t hi = banks_.size() - 1;
    while (lo < hi) {
        const std::size_t mid = (lo + hi) / 2;
        if (block < banks_[mid].end_block()) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    MEMOPT_ASSERT(block >= banks_[lo].first_block && block < banks_[lo].end_block());
    return lo;
}

std::uint64_t MemoryArchitecture::total_capacity() const {
    std::uint64_t total = 0;
    for (const Bank& bank : banks_) total += bank.size_bytes;
    return total;
}

}  // namespace memopt
