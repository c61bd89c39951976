#include "partition/solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "support/assert.hpp"

namespace memopt {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Precomputed per-range bank cost oracle: prefix access sums plus a
/// per-bank-length energy table make cost(i, j) a handful of loads and
/// three multiply-adds — it sits in the innermost O(k n^2) DP loop.
class BankCostOracle {
public:
    /// Per-capacity SRAM energies, indexed by bank length (block count).
    struct Entry {
        double read_pj;
        double write_pj;
        double leak_pj;
    };

    BankCostOracle(const BlockProfile& profile, const PartitionEnergyParams& params)
        : block_size_(profile.block_size()), params_(params) {
        const std::size_t n = profile.num_blocks();
        prefix_reads_.assign(n + 1, 0);
        prefix_writes_.assign(n + 1, 0);
        for (std::size_t b = 0; b < n; ++b) {
            prefix_reads_[b + 1] = prefix_reads_[b] + profile.counts(b).reads;
            prefix_writes_[b + 1] = prefix_writes_[b] + profile.counts(b).writes;
        }
        // Cache energies for every capacity that can occur: powers of two
        // from min_bank_bytes up to the full span...
        struct CapEntry {
            std::uint64_t capacity;
            Entry e;
        };
        std::vector<CapEntry> by_capacity;
        const std::uint64_t max_cap =
            MemoryArchitecture::capacity_for(block_size_, n, params.min_bank_bytes);
        for (std::uint64_t cap = params.min_bank_bytes; cap <= max_cap; cap *= 2) {
            const SramEnergyModel model(cap, 32, params.sram);
            const double leak = params.runtime_cycles > 0
                                    ? model.leakage_energy(params.runtime_cycles, params.cycle_ns)
                                    : 0.0;
            by_capacity.push_back(
                CapEntry{cap, Entry{model.read_energy(), model.write_energy(), leak}});
        }
        // ...then flatten to a by-length table so cost() needs no capacity
        // arithmetic or search at all: len_entries_[L] is the energy entry
        // of a bank spanning L blocks.
        len_entries_.resize(n + 1);
        for (std::size_t len = 1; len <= n; ++len) {
            const std::uint64_t cap =
                MemoryArchitecture::capacity_for(block_size_, len, params.min_bank_bytes);
            const CapEntry* found = nullptr;
            for (const CapEntry& c : by_capacity) {
                if (c.capacity == cap) found = &c;
            }
            MEMOPT_ASSERT_MSG(found != nullptr, "BankCostOracle: uncached capacity");
            len_entries_[len] = found->e;
        }
    }

    /// Energy of one bank covering blocks [i, j), excluding bank-select.
    /// Bounds are the caller's responsibility (0 <= i < j <= num_blocks).
    double cost(std::size_t i, std::size_t j) const {
        const Entry& e = len_entries_[j - i];
        const auto reads = static_cast<double>(prefix_reads_[j] - prefix_reads_[i]);
        const auto writes = static_cast<double>(prefix_writes_[j] - prefix_writes_[i]);
        return reads * e.read_pj + writes * e.write_pj + e.leak_pj;
    }

    std::uint64_t total_accesses() const {
        return prefix_reads_.back() + prefix_writes_.back();
    }

    const std::vector<std::uint64_t>& prefix_reads() const { return prefix_reads_; }
    const std::vector<std::uint64_t>& prefix_writes() const { return prefix_writes_; }
    const std::vector<Entry>& len_entries() const { return len_entries_; }

private:
    std::uint64_t block_size_;
    PartitionEnergyParams params_;
    std::vector<std::uint64_t> prefix_reads_;
    std::vector<std::uint64_t> prefix_writes_;
    std::vector<Entry> len_entries_;
};

PartitionSolution make_solution(const BlockProfile& profile,
                                const PartitionEnergyParams& params,
                                const std::vector<std::size_t>& splits) {
    auto arch = MemoryArchitecture::from_splits(profile.block_size(), profile.num_blocks(),
                                                splits, params.min_bank_bytes);
    auto energy = evaluate_partition(arch, profile, params);
    return PartitionSolution{std::move(arch), std::move(energy)};
}

void check_inputs(const BlockProfile& profile, const PartitionConstraints& constraints) {
    require(constraints.max_banks >= 1, "PartitionConstraints: max_banks must be >= 1");
    require(profile.num_blocks() >= 1, "solve_partition: empty profile");
}

}  // namespace

PartitionSolution solve_partition_optimal(const BlockProfile& profile,
                                          const PartitionConstraints& constraints,
                                          const PartitionEnergyParams& params) {
    check_inputs(profile, constraints);
    const std::size_t n = profile.num_blocks();
    const std::size_t kmax = std::min(constraints.max_banks, n);
    const BankCostOracle oracle(profile, params);
    const auto total_accesses = static_cast<double>(oracle.total_accesses());

    // dp[k][j]: min cost of covering blocks [0, j) with exactly k banks
    // (bank-select excluded; it depends only on the final k and is added at
    // the end). Row k only reads row k-1, so the cost table is two flat
    // rows; only the parent table (the start block of the last bank) is
    // kept in full for the reconstruction.
    std::vector<double> prev_row(n + 1, kInf);
    std::vector<double> cur_row(n + 1, kInf);
    std::vector<std::size_t> parent((kmax + 1) * (n + 1), 0);
    std::vector<double> dp_at_n(kmax + 1, kInf);
    const std::vector<std::uint64_t>& pre_reads = oracle.prefix_reads();
    const std::vector<std::uint64_t>& pre_writes = oracle.prefix_writes();
    const std::vector<BankCostOracle::Entry>& len_entries = oracle.len_entries();
    prev_row[0] = 0.0;
    for (std::size_t k = 1; k <= kmax; ++k) {
        std::size_t* const par = parent.data() + k * (n + 1);
        if (k == 1) {
            // Exactly one bank: the only predecessor is the empty prefix.
            for (std::size_t j = 1; j <= n; ++j) {
                cur_row[j] = prev_row[0] + oracle.cost(0, j);
                par[j] = 0;
            }
        } else {
            // Every prefix [0, i) with i >= k-1 is reachable with k-1
            // banks, so no infinity checks are needed in the hot loop.
            // The cost expression is oracle.cost(i, j) written out with
            // the per-j prefix loads hoisted; the evaluation order is
            // unchanged, so dp values stay bit-identical.
            for (std::size_t j = k; j <= n; ++j) {
                const std::uint64_t reads_j = pre_reads[j];
                const std::uint64_t writes_j = pre_writes[j];
                double best = kInf;
                std::size_t best_i = 0;
                for (std::size_t i = k - 1; i < j; ++i) {
                    const BankCostOracle::Entry& e = len_entries[j - i];
                    const auto reads = static_cast<double>(reads_j - pre_reads[i]);
                    const auto writes = static_cast<double>(writes_j - pre_writes[i]);
                    const double cand =
                        prev_row[i] +
                        (reads * e.read_pj + writes * e.write_pj + e.leak_pj);
                    if (cand < best) {
                        best = cand;
                        best_i = i;
                    }
                }
                cur_row[j] = best;
                par[j] = best_i;
            }
        }
        dp_at_n[k] = cur_row[n];
        std::swap(prev_row, cur_row);
        std::fill(cur_row.begin(), cur_row.end(), kInf);
    }

    // Pick the best bank count including the per-access select overhead.
    double best_total = kInf;
    std::size_t best_k = 1;
    for (std::size_t k = 1; k <= kmax; ++k) {
        if (dp_at_n[k] == kInf) continue;
        const double total =
            dp_at_n[k] + total_accesses * bank_select_energy(k, params.sram);
        if (total < best_total) {
            best_total = total;
            best_k = k;
        }
    }
    MEMOPT_ASSERT(best_total < kInf);

    // Reconstruct split points.
    std::vector<std::size_t> splits;
    std::size_t j = n;
    for (std::size_t k = best_k; k >= 1; --k) {
        const std::size_t i = parent[k * (n + 1) + j];
        if (i != 0) splits.push_back(i);
        j = i;
    }
    MEMOPT_ASSERT(j == 0);
    std::reverse(splits.begin(), splits.end());
    return make_solution(profile, params, splits);
}

PartitionSolution solve_partition_greedy(const BlockProfile& profile,
                                         const PartitionConstraints& constraints,
                                         const PartitionEnergyParams& params) {
    check_inputs(profile, constraints);
    const std::size_t n = profile.num_blocks();
    const BankCostOracle oracle(profile, params);
    const auto total_accesses = static_cast<double>(oracle.total_accesses());

    // Current architecture as bank boundaries [b0=0, b1, ..., bk=n].
    std::vector<std::size_t> bounds = {0, n};
    double current_bank_cost = oracle.cost(0, n);

    while (bounds.size() - 1 < constraints.max_banks) {
        const std::size_t k = bounds.size() - 1;
        const double current_total =
            current_bank_cost + total_accesses * bank_select_energy(k, params.sram);
        const double next_select =
            total_accesses * bank_select_energy(k + 1, params.sram);

        // Find the single most profitable split across all banks.
        double best_total = current_total;
        std::size_t best_bank = 0;
        std::size_t best_pos = 0;
        for (std::size_t b = 0; b + 1 < bounds.size(); ++b) {
            const std::size_t lo = bounds[b];
            const std::size_t hi = bounds[b + 1];
            const double old_cost = oracle.cost(lo, hi);
            for (std::size_t pos = lo + 1; pos < hi; ++pos) {
                const double new_bank_cost = current_bank_cost - old_cost +
                                             oracle.cost(lo, pos) + oracle.cost(pos, hi);
                const double total = new_bank_cost + next_select;
                if (total < best_total) {
                    best_total = total;
                    best_bank = b;
                    best_pos = pos;
                }
            }
        }
        if (best_pos == 0) break;  // no profitable split
        const std::size_t lo = bounds[best_bank];
        const std::size_t hi = bounds[best_bank + 1];
        current_bank_cost += oracle.cost(lo, best_pos) + oracle.cost(best_pos, hi) -
                             oracle.cost(lo, hi);
        bounds.insert(bounds.begin() + static_cast<std::ptrdiff_t>(best_bank) + 1, best_pos);
    }

    const std::vector<std::size_t> splits(bounds.begin() + 1, bounds.end() - 1);
    return make_solution(profile, params, splits);
}

PartitionSolution solve_partition_pooled(const BlockProfile& profile,
                                         const PartitionConstraints& constraints,
                                         const PartitionEnergyParams& params,
                                         std::size_t pool_banks, bool use_greedy) {
    require(pool_banks >= 1, "solve_partition_pooled: empty bank pool");
    PartitionConstraints clamped = constraints;
    clamped.max_banks = std::min(constraints.max_banks, pool_banks);
    return use_greedy ? solve_partition_greedy(profile, clamped, params)
                      : solve_partition_optimal(profile, clamped, params);
}

}  // namespace memopt
