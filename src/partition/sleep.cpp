#include "partition/sleep.hpp"

#include <vector>

#include "energy/sram_model.hpp"
#include "support/assert.hpp"
#include "trace/source.hpp"

namespace memopt {

std::uint64_t SleepReport::total_wakeups() const {
    std::uint64_t total = 0;
    for (const SleepBankStats& b : banks) total += b.wakeups;
    return total;
}

SleepReport evaluate_partition_sleepy(const MemoryArchitecture& arch, const AddressMap& map,
                                      TraceSource& source,
                                      const PartitionEnergyParams& energy_params,
                                      const SleepParams& sleep) {
    require(source.size() > 0, "evaluate_partition_sleepy: empty trace");
    require(map.num_blocks() == arch.num_blocks(),
            "evaluate_partition_sleepy: map does not match architecture");
    require(map.block_size() == arch.block_size(),
            "evaluate_partition_sleepy: block size mismatch");
    require(sleep.sleep_leak_factor >= 0.0 && sleep.sleep_leak_factor <= 1.0,
            "SleepParams: sleep_leak_factor must be in [0,1]");

    const std::size_t num_banks = arch.num_banks();
    std::vector<SramEnergyModel> models;
    models.reserve(num_banks);
    for (const Bank& bank : arch.banks())
        models.emplace_back(bank.size_bytes, 32, energy_params.sram,
                            energy_params.protection);

    struct BankState {
        std::uint64_t last_access = 0;  // cycle of last access
        std::uint64_t awake_since = 0;  // cycle the current awake period began
        bool asleep = false;
        double leak_pj = 0.0;
    };
    std::vector<BankState> states(num_banks);
    std::vector<SleepBankStats> stats(num_banks);

    const double select_pj = bank_select_energy(num_banks, energy_params.sram);
    double access_pj = 0.0;
    double wake_pj = 0.0;

    // Leakage bookkeeping helper: close the interval [from, to) for bank b
    // at its current sleep state.
    auto accrue_leak = [&](std::size_t b, std::uint64_t from, std::uint64_t to) {
        if (to <= from) return;
        const double nominal =
            models[b].leakage_energy(to - from, sleep.cycle_ns);
        states[b].leak_pj += states[b].asleep ? nominal * sleep.sleep_leak_factor : nominal;
    };

    // Chunked columnar replay: addr, cycle and kind are the only fields
    // this model reads. The state machine carries across chunk boundaries
    // untouched — the replay is sequential either way.
    std::uint64_t now = 0;
    std::uint64_t accesses = 0;
    source.reset();
    TraceChunk chunk;
    while (source.next(chunk)) {
        for (std::size_t i = 0; i < chunk.size(); ++i) {
            MEMOPT_ASSERT_MSG(chunk.cycles[i] >= now, "trace cycles must be non-decreasing");
            now = chunk.cycles[i];
            const std::uint64_t phys = map.map_addr(chunk.addrs[i]);
            const std::size_t block = static_cast<std::size_t>(phys / arch.block_size());
            const std::size_t bank = arch.bank_of_block(block);

            // Retire sleep transitions for every bank up to `now`. Only the
            // accessed bank must be exact; the others are settled lazily at
            // the end and at their own next access — but idle detection
            // needs the transition point, so settle all banks whose idle
            // threshold passed.
            for (std::size_t b = 0; b < num_banks; ++b) {
                BankState& s = states[b];
                if (!s.asleep && now > s.last_access + sleep.idle_cycles) {
                    const std::uint64_t sleep_start = s.last_access + sleep.idle_cycles;
                    accrue_leak(b, s.awake_since, sleep_start);
                    s.asleep = true;
                    s.awake_since = sleep_start;  // reused as "state since"
                }
            }

            BankState& s = states[bank];
            if (s.asleep) {
                // Wake up: close the sleeping interval, pay the wake energy.
                const std::uint64_t slept_since = s.awake_since;
                accrue_leak(bank, slept_since, now);
                s.asleep = false;
                s.awake_since = now;
                wake_pj += sleep.wakeup_pj;
                ++stats[bank].wakeups;
                stats[bank].asleep_cycles += now - slept_since;
            }
            access_pj += chunk.kinds[i] == AccessKind::Read ? models[bank].read_energy()
                                                            : models[bank].write_energy();
            ++stats[bank].accesses;
            s.last_access = now;
        }
        accesses += chunk.size();
    }

    // Close out all banks at the final cycle.
    const std::uint64_t end = now + 1;
    for (std::size_t b = 0; b < num_banks; ++b) {
        BankState& s = states[b];
        if (!s.asleep && end > s.last_access + sleep.idle_cycles) {
            const std::uint64_t sleep_start = s.last_access + sleep.idle_cycles;
            accrue_leak(b, s.awake_since, sleep_start);
            s.asleep = true;
            s.awake_since = sleep_start;
        }
        accrue_leak(b, s.awake_since, end);
        if (s.asleep) stats[b].asleep_cycles += end - s.awake_since;
    }

    SleepReport report;
    report.banks = std::move(stats);
    report.energy.add("bank_access", access_pj);
    report.energy.add("bank_select", select_pj * static_cast<double>(accesses));
    if (energy_params.extra_pj_per_access > 0.0)
        report.energy.add("remap",
                          energy_params.extra_pj_per_access * static_cast<double>(accesses));
    if (energy_params.protection != ProtectionScheme::None)
        report.energy.add("ecc",
                          protection_access_energy(energy_params.protection, 32,
                                                   energy_params.sram) *
                              static_cast<double>(accesses));
    double leak_total = 0.0;
    for (const BankState& s : states) leak_total += s.leak_pj;
    report.energy.add("leakage", leak_total);
    report.energy.add("wakeup", wake_pj);
    return report;
}

}  // namespace memopt
