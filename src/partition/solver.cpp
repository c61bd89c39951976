#include "partition/solver.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "energy/sram_model.hpp"
#include "support/assert.hpp"
#include "support/parallel.hpp"

namespace memopt {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Precomputed per-range bank cost oracle: prefix access sums plus a
/// per-bank-length energy table make cost(i, j) a handful of loads and
/// three multiply-adds — it sits in the innermost O(k n^2) DP loop.
///
/// The prefix sums are doubles, so the DP's scan converts no integers. They
/// are exact: the constructor requires the profile to hold fewer than 2^53
/// accesses, and every difference of two such sums is exact too, so each
/// cost is the one an integer prefix sum would give. The per-length
/// energies are three columns reversed by length (entry n - L for a bank of
/// L blocks), so a scan over ascending start blocks i of banks ending at j
/// reads every column in ascending order.
class BankCostOracle {
public:
    BankCostOracle(const BlockProfile& profile, const PartitionEnergyParams& params)
        : n_(profile.num_blocks()) {
        prefix_reads_.assign(n_ + 1, 0.0);
        prefix_writes_.assign(n_ + 1, 0.0);
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
        for (std::size_t b = 0; b < n_; ++b) {
            const BlockCounts& c = profile.counts(b);
            // reads + writes < 2^53 after every step, without overflow.
            if (c.reads >= kExactAccessLimit - reads - writes) throw_not_exact();
            reads += c.reads;
            if (c.writes >= kExactAccessLimit - reads - writes) throw_not_exact();
            writes += c.writes;
            prefix_reads_[b + 1] = static_cast<double>(reads);
            prefix_writes_[b + 1] = static_cast<double>(writes);
        }
        total_accesses_ = reads + writes;

        // Cache energies for every capacity that can occur: powers of two
        // from kMinBankBytes up to the full span...
        struct CapEntry {
            std::uint64_t capacity;
            double read_pj;
            double write_pj;
            double leak_pj;
        };
        std::vector<CapEntry> by_capacity;
        const std::uint64_t block_size = profile.block_size();
        const std::uint64_t max_cap = MemoryArchitecture::capacity_for(block_size, n_);
        for (std::uint64_t cap = kMinBankBytes; cap <= max_cap; cap *= 2) {
            const SramEnergyModel model(cap);
            const double leak =
                params.runtime_cycles > 0 ? model.leakage_energy(params.runtime_cycles) : 0.0;
            by_capacity.push_back(
                CapEntry{cap, model.read_energy(), model.write_energy(), leak});
        }
        // ...then flatten to the reversed by-length columns, so cost() needs
        // no capacity arithmetic or search at all.
        read_pj_.resize(n_);
        write_pj_.resize(n_);
        leak_pj_.resize(n_);
        for (std::size_t len = 1; len <= n_; ++len) {
            const std::uint64_t cap = MemoryArchitecture::capacity_for(block_size, len);
            const CapEntry* found = nullptr;
            for (const CapEntry& c : by_capacity) {
                if (c.capacity == cap) found = &c;
            }
            MEMOPT_ASSERT_MSG(found != nullptr, "BankCostOracle: uncached capacity");
            read_pj_[n_ - len] = found->read_pj;
            write_pj_[n_ - len] = found->write_pj;
            leak_pj_[n_ - len] = found->leak_pj;
        }
    }

    /// Energy of one bank covering blocks [i, j), excluding bank-select.
    /// Bounds are the caller's responsibility (0 <= i < j <= num_blocks).
    double cost(std::size_t i, std::size_t j) const {
        const std::size_t r = n_ - (j - i);
        const double reads = prefix_reads_[j] - prefix_reads_[i];
        const double writes = prefix_writes_[j] - prefix_writes_[i];
        return reads * read_pj_[r] + writes * write_pj_[r] + leak_pj_[r];
    }

    std::uint64_t total_accesses() const { return total_accesses_; }

    /// The columns the DP's scan reads directly.
    struct Columns {
        const double* prefix_reads;
        const double* prefix_writes;
        const double* read_pj;   ///< reversed by length
        const double* write_pj;  ///< reversed by length
        const double* leak_pj;   ///< reversed by length
        std::size_t n;
    };
    Columns columns() const {
        return Columns{prefix_reads_.data(), prefix_writes_.data(), read_pj_.data(),
                       write_pj_.data(),     leak_pj_.data(),       n_};
    }

private:
    static constexpr std::uint64_t kExactAccessLimit = std::uint64_t{1} << 53;

    [[noreturn]] static void throw_not_exact() {
        throw Error(
            "partition: the profile holds 2^53 or more accesses; the solvers' access sums "
            "are exact only below 2^53");
    }

    std::size_t n_;
    std::uint64_t total_accesses_ = 0;
    std::vector<double> prefix_reads_;
    std::vector<double> prefix_writes_;
    std::vector<double> read_pj_;
    std::vector<double> write_pj_;
    std::vector<double> leak_pj_;
};

/// The DP's best predecessor of one cell: the lowest start block i whose
/// candidate is the smallest.
struct CellBest {
    double value;
    std::size_t index;
};

// The cell scan's lanes: kScanVectors independent vectors of two doubles
// (GNU vector extensions; SSE2 registers on baseline x86-64). Candidate i
// of a scan from `lo` goes to lane (i - lo) % kScanLanes.
using LaneValues = double __attribute__((vector_size(16)));
using LaneIndices = std::int64_t __attribute__((vector_size(16)));
constexpr std::size_t kLaneWidth = sizeof(LaneValues) / sizeof(double);
static_assert(kLaneWidth == 2 && sizeof(LaneIndices) == sizeof(LaneValues));
constexpr std::size_t kScanVectors = 2;
constexpr std::size_t kScanLanes = kLaneWidth * kScanVectors;

LaneValues load_lanes(const double* p) {
    LaneValues v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

/// Scan the predecessors i in [lo, j) of cell j: the candidate of i is
/// prev[i] + cost(i, j), computed by the oracle's expression in every lane.
/// Each lane keeps its own minimum and the first index that reached it
/// (strict <), and the lanes reduce by (value, lowest index), so the result
/// is the serial scan's first minimum, bit for bit. A scan that finds no
/// candidate below infinity returns {infinity, 0}, as the serial scan does.
CellBest scan_cell(const BankCostOracle::Columns& c, const double* prev, std::size_t lo,
                   std::size_t j) {
    const double reads_j = c.prefix_reads[j];
    const double writes_j = c.prefix_writes[j];
    // Rebased so that index i reads the entry of a bank [i, j).
    const double* const read_pj = c.read_pj + (c.n - j);
    const double* const write_pj = c.write_pj + (c.n - j);
    const double* const leak_pj = c.leak_pj + (c.n - j);

    LaneValues best[kScanVectors];
    LaneIndices first[kScanVectors];
    LaneIndices next[kScanVectors];
    for (std::size_t v = 0; v < kScanVectors; ++v) {
        const auto at = static_cast<std::int64_t>(lo + v * kLaneWidth);
        best[v] = LaneValues{kInf, kInf};
        first[v] = LaneIndices{0, 0};
        next[v] = LaneIndices{at, at + 1};
    }
    const LaneValues reads_jv = {reads_j, reads_j};
    const LaneValues writes_jv = {writes_j, writes_j};
    const auto step = static_cast<std::int64_t>(kScanLanes);
    const LaneIndices next_step = {step, step};
    std::size_t i = lo;
    for (; j - i >= kScanLanes; i += kScanLanes) {
        for (std::size_t v = 0; v < kScanVectors; ++v) {
            const std::size_t at = i + v * kLaneWidth;
            const LaneValues reads = reads_jv - load_lanes(c.prefix_reads + at);
            const LaneValues writes = writes_jv - load_lanes(c.prefix_writes + at);
            const LaneValues cand =
                load_lanes(prev + at) + (reads * load_lanes(read_pj + at) +
                                         writes * load_lanes(write_pj + at) +
                                         load_lanes(leak_pj + at));
            const auto lower = std::bit_cast<LaneIndices>(cand < best[v]);
            best[v] = std::bit_cast<LaneValues>((std::bit_cast<LaneIndices>(cand) & lower) |
                                                (std::bit_cast<LaneIndices>(best[v]) & ~lower));
            first[v] = (next[v] & lower) | (first[v] & ~lower);
            next[v] += next_step;
        }
    }

    double lane_best[kScanLanes];
    std::size_t lane_first[kScanLanes];
    for (std::size_t v = 0; v < kScanVectors; ++v) {
        for (std::size_t w = 0; w < kLaneWidth; ++w) {
            lane_best[v * kLaneWidth + w] = best[v][w];
            lane_first[v * kLaneWidth + w] = static_cast<std::size_t>(first[v][w]);
        }
    }
    for (std::size_t l = 0; i < j; ++i, ++l) {
        const double reads = reads_j - c.prefix_reads[i];
        const double writes = writes_j - c.prefix_writes[i];
        const double cand =
            prev[i] + (reads * read_pj[i] + writes * write_pj[i] + leak_pj[i]);
        if (cand < lane_best[l]) {
            lane_best[l] = cand;
            lane_first[l] = i;
        }
    }
    CellBest out{lane_best[0], lane_first[0]};
    for (std::size_t l = 1; l < kScanLanes; ++l) {
        if (lane_best[l] < out.value ||
            (lane_best[l] == out.value && lane_first[l] < out.index))
            out = CellBest{lane_best[l], lane_first[l]};
    }
    return out;
}

/// Rows with fewer cells than this run on the calling thread: below it a
/// row's scan is shorter than parallel_for's dispatch.
constexpr std::size_t kMinParallelCells = 256;

PartitionSolution make_solution(const BlockProfile& profile,
                                const PartitionEnergyParams& params,
                                const std::vector<std::size_t>& splits) {
    auto arch =
        MemoryArchitecture::from_splits(profile.block_size(), profile.num_blocks(), splits);
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
    const BankCostOracle::Columns columns = oracle.columns();
    const std::size_t jobs = default_jobs();
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
            // banks, so no infinity checks are needed in the scan. The
            // cells j of the row depend only on row k-1, so they split
            // over tasks; cell number c (j = k + c) scans c + 1
            // predecessors, so task t of T takes the cells from
            // cells * sqrt(t / T) on, which gives every task about the
            // same number of candidates. Four tasks per job: a thread
            // descheduled mid-row then holds up a quarter of its share,
            // not all of it.
            const std::size_t cells = n - k + 1;
            const std::size_t tasks = cells < kMinParallelCells ? 1 : 4 * jobs;
            const double* const prev = prev_row.data();
            double* const cur = cur_row.data();
            const auto cell_at = [&](std::size_t t) {
                if (t >= tasks) return cells;
                return static_cast<std::size_t>(static_cast<double>(cells) *
                                                std::sqrt(static_cast<double>(t) /
                                                          static_cast<double>(tasks)));
            };
            parallel_for(
                tasks,
                [&](std::size_t t) {
                    for (std::size_t j = k + cell_at(t); j < k + cell_at(t + 1); ++j) {
                        const CellBest best = scan_cell(columns, prev, k - 1, j);
                        cur[j] = best.value;
                        par[j] = best.index;
                    }
                },
                jobs);
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
        const double total = dp_at_n[k] + total_accesses * bank_select_energy(k);
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
        const double current_total = current_bank_cost + total_accesses * bank_select_energy(k);
        const double next_select = total_accesses * bank_select_energy(k + 1);

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
