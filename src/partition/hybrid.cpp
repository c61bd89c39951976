#include "partition/hybrid.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "support/assert.hpp"
#include "support/parallel.hpp"
#include "support/string_util.hpp"
#include "trace/source.hpp"

namespace memopt {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void check_arch_map(const MemoryArchitecture& arch, const AddressMap& map) {
    require(map.num_blocks() == arch.num_blocks(),
            "replay_bank_activity: map does not match architecture");
    require(map.block_size() == arch.block_size(),
            "replay_bank_activity: block size mismatch");
}

// Cold and out of line: only a faulty trace reaches it.
[[noreturn, gnu::cold, gnu::noinline]] void throw_backward_cycle(std::uint64_t index,
                                                                 std::uint64_t cycle,
                                                                 std::uint64_t previous) {
    throw Error(format("replay_bank_activity: access %llu is at cycle %llu, before the "
                       "previous access's cycle %llu (trace cycles must be non-decreasing)",
                       static_cast<unsigned long long>(index),
                       static_cast<unsigned long long>(cycle),
                       static_cast<unsigned long long>(previous)));
}

/// The closed-form energy of `bank` built in `tech` with activity `a`.
HybridBankReport bank_slice(MemTechnology tech, const Bank& bank, const BankActivity& a,
                            double gate_leak_scale) {
    const TechEnergyModel model(tech, bank.size_bytes);
    HybridBankReport slice;
    slice.tech = tech;
    slice.bank = bank;
    slice.activity = a;
    // Same accumulation shape as evaluate_partition(): one fused read+write
    // term per bank — the all-SRAM case reproduces the legacy "bank_access"
    // double bit for bit.
    slice.access_pj = static_cast<double>(a.reads) * model.read_energy() +
                      static_cast<double>(a.writes) * model.write_energy();
    slice.leakage_pj = model.leakage_energy(a.active_cycles);
    slice.refresh_pj = model.refresh_energy(a.active_cycles);
    slice.gated_pj = model.gated_leakage_energy(a.gated_cycles) * gate_leak_scale;
    slice.wakeup_pj = static_cast<double>(a.wakeups) * model.gate_wake_energy();
    return slice;
}

/// True when a bank last accessed at `from` went dark before `to`: it was
/// idle for more than `idle` cycles (0 = banks never gate).
bool dark_between(std::uint64_t idle, std::uint64_t from, std::uint64_t to) {
    return idle != 0 && to > from + idle;
}

/// One bank's accesses within one chunk, folded: enough to join the chunk
/// to the bank's timeline before it. `wakeups` and `gated_cycles` count the
/// gaps between the bank's accesses inside the chunk only; the gap before
/// `first` belongs to the join.
struct BankSegment {
    bool touched = false;     ///< the chunk accesses the bank
    std::uint64_t first = 0;  ///< cycle of the bank's first access in the chunk
    std::uint64_t last = 0;   ///< cycle of its last access in the chunk
    std::uint64_t accesses[2] = {};  ///< reads, writes (indexed: no branch to mispredict)
    std::uint64_t wakeups = 0;
    std::uint64_t gated_cycles = 0;
};

/// A chunk folded into per-bank segments, with the chunk's first fault.
struct ChunkFold {
    std::vector<BankSegment> banks;
    std::size_t fault_at = 0;    ///< position in the chunk; == chunk size when clean
    bool fault_in_span = false;  ///< false: a backward cycle at fault_at
};

/// Fold `chunk` into one segment per bank, stopping at its first fault: a
/// cycle below the previous access's in the chunk, or a block at or past
/// `num_blocks`. `bank_of` maps logical blocks to banks.
void fold_chunk(const TraceChunk& chunk, const std::uint32_t* bank_of, std::size_t num_blocks,
                int block_shift, std::size_t num_banks, std::uint64_t idle, ChunkFold& fold) {
    fold.banks.assign(num_banks, BankSegment{});
    fold.fault_at = chunk.size();
    BankSegment* const banks = fold.banks.data();
    const std::uint64_t* const cycles = chunk.cycles.data();
    const std::uint64_t* const addrs = chunk.addrs.data();
    const AccessKind* const kinds = chunk.kinds.data();
    const std::size_t n = chunk.size();
    std::uint64_t previous = cycles[0];
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t t = cycles[i];
        if (t < previous) {
            fold.fault_at = i;
            fold.fault_in_span = false;
            return;
        }
        previous = t;
        const std::uint64_t block = addrs[i] >> block_shift;
        if (block >= num_blocks) {
            fold.fault_at = i;
            fold.fault_in_span = true;
            return;
        }
        BankSegment& g = banks[bank_of[block]];
        if (!g.touched) {
            g.touched = true;
            g.first = t;
        } else if (dark_between(idle, g.last, t)) {
            ++g.wakeups;
            g.gated_cycles += t - (g.last + idle);
        }
        g.last = t;
        ++g.accesses[kinds[i] != AccessKind::Read];
    }
}

}  // namespace

std::vector<BankActivity> replay_bank_activity(const MemoryArchitecture& arch,
                                               const AddressMap& map, TraceSource& source,
                                               const HybridGatingParams& gating,
                                               std::uint64_t min_total_cycles) {
    require(source.size() > 0, "replay_bank_activity: empty trace");
    check_arch_map(arch, map);
    require(gating.gate_leak_scale >= 0.0,
            "HybridGatingParams: gate_leak_scale must be >= 0");

    const std::size_t num_banks = arch.num_banks();

    // Logical block -> bank, resolved once, so an access costs a shift and
    // a load.
    std::vector<std::uint32_t> bank_of(map.num_blocks());
    for (std::size_t block = 0; block < bank_of.size(); ++block)
        bank_of[block] = static_cast<std::uint32_t>(arch.bank_of_block(map.map_block(block)));
    const int block_shift = std::countr_zero(map.block_size());  // a power of two

    // The idle-threshold gate, recorded as cycles, not energy: the gate
    // state machine depends only on access times, so one pass serves every
    // candidate technology. Each bank's timeline depends only on its own
    // access times: a bank idle past the threshold between two accesses at
    // `from` and `to` went dark idle_cycles after `from` and woke at `to`.
    // The replay starts with every bank powered and last touched at cycle 0.
    //
    // Each chunk of a batch folds on its own task into per-bank segments
    // (and finds its first fault); the segments then join in trace order.
    // Every quantity is an integer, so the fold gives exactly the counts of
    // an access-by-access replay, and each task reads (faults in) its own
    // chunk.
    const std::uint64_t idle = gating.idle_cycles;
    std::vector<BankActivity> activity(num_banks);
    std::vector<std::uint64_t> last_access(num_banks, 0);
    std::uint64_t now = 0;  // the previous access's cycle
    source.reset();
    std::vector<TraceChunk> batch;
    std::vector<ChunkFold> folds;
    const std::size_t batch_chunks = stream_detail::stream_task_count(source.size(), 0);
    while (source.next_batch(batch, batch_chunks)) {
        if (folds.size() < batch.size()) folds.resize(batch.size());
        parallel_for(batch.size(), [&](std::size_t c) {
            fold_chunk(batch[c], bank_of.data(), bank_of.size(), block_shift, num_banks, idle,
                       folds[c]);
        });
        for (std::size_t c = 0; c < batch.size(); ++c) {
            const TraceChunk& chunk = batch[c];
            const ChunkFold& fold = folds[c];
            // An access-by-access replay's checks, in its order: the
            // chunk's first access against the previous chunk's last, then
            // the chunk's own first fault.
            if (chunk.cycles[0] < now)
                throw_backward_cycle(chunk.first_index, chunk.cycles[0], now);
            if (fold.fault_at < chunk.size()) {
                const std::size_t i = fold.fault_at;
                if (fold.fault_in_span) throw Error("map_addr: address outside mapped span");
                throw_backward_cycle(chunk.first_index + i, chunk.cycles[i],
                                     chunk.cycles[i - 1]);
            }
            for (std::size_t b = 0; b < num_banks; ++b) {
                const BankSegment& g = fold.banks[b];
                if (!g.touched) continue;
                BankActivity& a = activity[b];
                if (dark_between(idle, last_access[b], g.first)) {
                    ++a.wakeups;
                    a.gated_cycles += g.first - (last_access[b] + idle);
                }
                a.wakeups += g.wakeups;
                a.gated_cycles += g.gated_cycles;
                a.reads += g.accesses[0];
                a.writes += g.accesses[1];
                last_access[b] = g.last;
            }
            now = chunk.cycles.back();
        }
    }

    // Close out every bank at the end of the observation window. The tail
    // beyond the last access is idle time like any other: banks whose
    // threshold passes inside it gate for the remainder. Powered and gated
    // stretches tile [0, end), so the powered cycles are the rest.
    const std::uint64_t end = std::max(now + 1, min_total_cycles);
    for (std::size_t b = 0; b < num_banks; ++b) {
        BankActivity& a = activity[b];
        if (dark_between(idle, last_access[b], end))
            a.gated_cycles += end - (last_access[b] + idle);
        a.active_cycles = end - a.gated_cycles;
    }
    return activity;
}

std::vector<MemTechnology> assign_technologies(const MemoryArchitecture& arch,
                                               const std::vector<BankActivity>& activity,
                                               const BankPool& pool,
                                               const PartitionEnergyParams& /*params*/,
                                               const HybridGatingParams& gating) {
    const std::size_t num_banks = arch.num_banks();
    require(activity.size() == num_banks,
            "assign_technologies: activity does not match architecture");
    require(pool.num_slots() > 0, "assign_technologies: empty pool");
    require(pool.total_banks() >= num_banks,
            "assign_technologies: pool has fewer banks than the architecture");

    const std::vector<PoolSlot>& slots = pool.slots();
    const std::size_t num_slots = slots.size();

    // Per-(bank, slot) closed-form cost. Only technology-dependent terms
    // enter the DP; bank select / remap are per-access constants that
    // cannot change the arg-min.
    std::vector<double> cost(num_banks * num_slots);
    for (std::size_t b = 0; b < num_banks; ++b) {
        for (std::size_t s = 0; s < num_slots; ++s) {
            cost[b * num_slots + s] =
                bank_slice(slots[s].tech, arch.banks()[b], activity[b], gating.gate_leak_scale)
                    .total_pj();
        }
    }

    // Exact assignment DP over mixed-radix "banks used per slot" states.
    // Slot counts beyond num_banks can never be exhausted, so each radix is
    // capped — the state space stays small for realistic pools.
    std::vector<std::size_t> cap(num_slots);
    std::vector<std::size_t> stride(num_slots + 1);
    stride[0] = 1;
    for (std::size_t s = 0; s < num_slots; ++s) {
        cap[s] = std::min(slots[s].count, num_banks);
        stride[s + 1] = stride[s] * (cap[s] + 1);
    }
    const std::size_t num_states = stride[num_slots];
    require(num_states <= (std::size_t{1} << 22),
            "assign_technologies: pool too complex (bound the slot counts)");

    std::vector<double> prev(num_states, kInf);
    std::vector<double> cur(num_states, kInf);
    // choice[b * num_states + state]: pool slot of bank b on the best path
    // arriving at `state` after placing banks [0, b].
    std::vector<std::uint8_t> choice(num_banks * num_states, 0xff);
    prev[0] = 0.0;
    for (std::size_t b = 0; b < num_banks; ++b) {
        std::fill(cur.begin(), cur.end(), kInf);
        std::uint8_t* const pick = choice.data() + b * num_states;
        for (std::size_t state = 0; state < num_states; ++state) {
            if (prev[state] == kInf) continue;
            for (std::size_t s = 0; s < num_slots; ++s) {
                const std::size_t used = (state / stride[s]) % (cap[s] + 1);
                if (used == cap[s]) continue;
                const std::size_t next = state + stride[s];
                const double cand = prev[state] + cost[b * num_slots + s];
                // Strict improvement only: with the fixed state/slot
                // iteration order, cost ties resolve to the earliest pool
                // slot and lowest usage state — deterministic everywhere.
                if (cand < cur[next]) {
                    cur[next] = cand;
                    pick[next] = static_cast<std::uint8_t>(s);
                }
            }
        }
        std::swap(prev, cur);
    }

    std::size_t best_state = 0;
    double best = kInf;
    for (std::size_t state = 0; state < num_states; ++state) {
        if (prev[state] < best) {
            best = prev[state];
            best_state = state;
        }
    }
    MEMOPT_ASSERT_MSG(best < kInf, "assign_technologies: no feasible assignment");

    std::vector<MemTechnology> techs(num_banks);
    std::size_t state = best_state;
    for (std::size_t b = num_banks; b-- > 0;) {
        const std::uint8_t s = choice[b * num_states + state];
        MEMOPT_ASSERT_MSG(s != 0xff, "assign_technologies: broken DP path");
        techs[b] = slots[s].tech;
        state -= stride[s];
    }
    MEMOPT_ASSERT(state == 0);
    return techs;
}

std::uint64_t HybridReport::total_wakeups() const {
    std::uint64_t total = 0;
    for (const HybridBankReport& b : banks) total += b.activity.wakeups;
    return total;
}

std::uint64_t HybridReport::total_gated_cycles() const {
    std::uint64_t total = 0;
    for (const HybridBankReport& b : banks) total += b.activity.gated_cycles;
    return total;
}

HybridReport evaluate_partition_hybrid(const MemoryArchitecture& arch,
                                       const std::vector<MemTechnology>& techs,
                                       const std::vector<BankActivity>& activity,
                                       const PartitionEnergyParams& params,
                                       const HybridGatingParams& gating) {
    const std::size_t num_banks = arch.num_banks();
    require(techs.size() == num_banks,
            "evaluate_partition_hybrid: techs do not match architecture");
    require(activity.size() == num_banks,
            "evaluate_partition_hybrid: activity does not match architecture");

    HybridReport report;
    report.banks.reserve(num_banks);
    std::uint64_t accesses = 0;
    double access_pj = 0.0;
    double leak_pj = 0.0;
    double refresh_pj = 0.0;
    double gated_pj = 0.0;
    double wake_pj = 0.0;
    for (std::size_t b = 0; b < num_banks; ++b) {
        const HybridBankReport slice =
            bank_slice(techs[b], arch.banks()[b], activity[b], gating.gate_leak_scale);
        // Summed in bank order, as evaluate_partition() sums its banks.
        access_pj += slice.access_pj;
        leak_pj += slice.leakage_pj;
        refresh_pj += slice.refresh_pj;
        gated_pj += slice.gated_pj;
        wake_pj += slice.wakeup_pj;
        accesses += slice.activity.accesses();
        report.total_cycles = std::max(report.total_cycles, slice.activity.total_cycles());
        report.banks.push_back(slice);
    }

    report.energy.add("bank_access", access_pj);
    const double select_pj = bank_select_energy(num_banks);
    report.energy.add("bank_select", select_pj * static_cast<double>(accesses));
    report.energy.add("leakage", leak_pj);
    if (refresh_pj > 0.0) report.energy.add("refresh", refresh_pj);
    if (gating.idle_cycles > 0) {
        report.energy.add("gated_leakage", gated_pj);
        report.energy.add("wakeup", wake_pj);
    }
    if (params.extra_pj_per_access > 0.0)
        report.energy.add("remap",
                          params.extra_pj_per_access * static_cast<double>(accesses));
    return report;
}

}  // namespace memopt
