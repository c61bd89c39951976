#include "partition/hybrid.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "support/assert.hpp"
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

// Kept out of line so the replay loop's passing path stays a compare and a
// branch.
[[noreturn, gnu::cold, gnu::noinline]] void throw_backward_cycle(std::uint64_t index,
                                                                 std::uint64_t cycle,
                                                                 std::uint64_t previous) {
    throw Error(format("replay_bank_activity: access %llu is at cycle %llu, before the "
                       "previous access's cycle %llu (trace cycles must be non-decreasing)",
                       static_cast<unsigned long long>(index),
                       static_cast<unsigned long long>(cycle),
                       static_cast<unsigned long long>(previous)));
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
    std::vector<BankActivity> activity(num_banks);

    // Logical block -> bank, resolved once, so an access costs a shift and
    // a load.
    std::vector<std::uint32_t> bank_of(map.num_blocks());
    for (std::size_t block = 0; block < bank_of.size(); ++block)
        bank_of[block] = static_cast<std::uint32_t>(arch.bank_of_block(map.map_block(block)));
    const int block_shift = std::countr_zero(map.block_size());  // a power of two

    // The idle-threshold gate, recorded as cycles, not energy: the gate
    // state machine depends only on access times, so one pass serves every
    // candidate technology. Each bank's timeline depends only on its own
    // access times, so a bank's gate transition is settled lazily, at its
    // next access or at close-out: a bank idle past the threshold went dark
    // idle_cycles after its last access, wherever in between the transition
    // is noticed.
    struct BankState {
        std::uint64_t last_access = 0;
        std::uint64_t powered_since = 0;  // start of the current powered stretch
        std::uint64_t accesses[2] = {};   // reads, writes (indexed: no branch to mispredict)
    };
    std::vector<BankState> states(num_banks);
    // Charges a bank found dark at cycle `t`: powered up to its gate point,
    // dark from there to `t`. Returns false when the bank is still powered.
    const auto settle = [&](BankState& s, BankActivity& a, std::uint64_t t) {
        if (gating.idle_cycles == 0 || t <= s.last_access + gating.idle_cycles) return false;
        const std::uint64_t gate_start = s.last_access + gating.idle_cycles;
        a.active_cycles += gate_start - s.powered_since;
        a.gated_cycles += t - gate_start;
        s.powered_since = t;
        return true;
    };

    // The replay itself is serial; batches of one chunk per task let the
    // source produce (an .mtsc reader: map and verify) them in parallel.
    std::uint64_t now = 0;
    source.reset();
    std::vector<TraceChunk> batch;
    const std::size_t batch_chunks = stream_detail::stream_task_count(source.size(), 0);
    while (source.next_batch(batch, batch_chunks)) {
        for (const TraceChunk& chunk : batch) {
            for (std::size_t i = 0; i < chunk.size(); ++i) {
                if (chunk.cycles[i] < now)
                    throw_backward_cycle(chunk.first_index + i, chunk.cycles[i], now);
                now = chunk.cycles[i];
                const std::uint64_t block = chunk.addrs[i] >> block_shift;
                if (block >= bank_of.size())
                    throw Error("map_addr: address outside mapped span");
                const std::size_t bank = bank_of[block];
                BankState& s = states[bank];
                BankActivity& a = activity[bank];
                if (settle(s, a, now)) ++a.wakeups;
                s.last_access = now;
                ++s.accesses[chunk.kinds[i] != AccessKind::Read];
            }
        }
    }

    // Close out every bank at the end of the observation window. The tail
    // beyond the last access is idle time like any other: banks whose
    // threshold passes inside it gate for the remainder.
    const std::uint64_t end = std::max(now + 1, min_total_cycles);
    for (std::size_t b = 0; b < num_banks; ++b) {
        BankState& s = states[b];
        settle(s, activity[b], end);
        activity[b].active_cycles += end - s.powered_since;
        activity[b].reads = s.accesses[0];
        activity[b].writes = s.accesses[1];
    }
    return activity;
}

double hybrid_bank_energy(const TechEnergyModel& model, const BankActivity& a,
                          double cycle_ns, double gate_leak_scale) {
    return static_cast<double>(a.reads) * model.read_energy() +
           static_cast<double>(a.writes) * model.write_energy() +
           model.leakage_energy(a.active_cycles, cycle_ns) +
           model.refresh_energy(a.active_cycles, cycle_ns) +
           model.gated_leakage_energy(a.gated_cycles, cycle_ns) * gate_leak_scale +
           static_cast<double>(a.wakeups) * model.gate_wake_energy();
}

std::vector<MemTechnology> assign_technologies(const MemoryArchitecture& arch,
                                               const std::vector<BankActivity>& activity,
                                               const BankPool& pool,
                                               const PartitionEnergyParams& params,
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
    // enter the DP; bank select / remap / ecc are per-access constants that
    // cannot change the arg-min.
    std::vector<double> cost(num_banks * num_slots);
    for (std::size_t b = 0; b < num_banks; ++b) {
        for (std::size_t s = 0; s < num_slots; ++s) {
            const TechEnergyModel model(slots[s].tech, arch.banks()[b].size_bytes, 32,
                                        params.sram, params.protection);
            cost[b * num_slots + s] =
                hybrid_bank_energy(model, activity[b], params.cycle_ns,
                                   gating.gate_leak_scale);
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
        const Bank& bank = arch.banks()[b];
        const BankActivity& a = activity[b];
        const TechEnergyModel model(techs[b], bank.size_bytes, 32, params.sram,
                                    params.protection);
        HybridBankReport slice;
        slice.tech = techs[b];
        slice.bank = bank;
        slice.activity = a;
        // Same accumulation shape as evaluate_partition(): one fused
        // read+write term per bank, summed in bank order — the all-SRAM
        // case reproduces the legacy "bank_access" double bit for bit.
        slice.access_pj = static_cast<double>(a.reads) * model.read_energy() +
                          static_cast<double>(a.writes) * model.write_energy();
        slice.leakage_pj = model.leakage_energy(a.active_cycles, params.cycle_ns);
        slice.refresh_pj = model.refresh_energy(a.active_cycles, params.cycle_ns);
        slice.gated_pj = model.gated_leakage_energy(a.gated_cycles, params.cycle_ns) *
                         gating.gate_leak_scale;
        slice.wakeup_pj = static_cast<double>(a.wakeups) * model.gate_wake_energy();
        access_pj += slice.access_pj;
        leak_pj += slice.leakage_pj;
        refresh_pj += slice.refresh_pj;
        gated_pj += slice.gated_pj;
        wake_pj += slice.wakeup_pj;
        accesses += a.accesses();
        report.total_cycles = std::max(report.total_cycles, a.total_cycles());
        report.banks.push_back(slice);
    }

    report.energy.add("bank_access", access_pj);
    const double select_pj = bank_select_energy(num_banks, params.sram);
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
    if (params.protection != ProtectionScheme::None)
        report.energy.add("ecc", protection_access_energy(params.protection, 32,
                                                          params.sram) *
                                     static_cast<double>(accesses));
    return report;
}

}  // namespace memopt
