// E13 — multi-core coherence: sharing traffic versus core count.
//
// Replays the producer-consumer workload (core 0 writes a shared region,
// the others read it) through the coherent N-core cache system for core
// counts 1..8 and reports the coherence traffic and its energy share. The
// qualitative shape: one core is coherence-silent, and invalidation +
// downgrade traffic grows with the consumer count because every producer
// store must reach (and kill or downgrade into) more remote copies.
#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "cache/mcache.hpp"
#include "core/workload.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"
#include "trace/source.hpp"

using namespace memopt;

int main() {
    bench::print_header(
        "E13  coherence traffic vs core count",
        "sharing-induced invalidations and downgrades grow with the core count; "
        "a single core is coherence-silent",
        "producer-consumer synthetic (4 KiB shared region, 50% shared accesses), "
        "20k accesses per core; 8 KiB L1s, 4x64 KiB L2 banks, MSI directory");

    const std::string spec =
        "synthetic:producer-consumer,span=65536,n=20000,seed=7,"
        "shared-bytes=4096,shared-frac=0.5";

    TablePrinter table({"cores", "msgs/1k acc", "invalidations", "downgrades",
                        "upgrades", "coherence [nJ]", "coh share [%]"});
    bench::BenchReport report("e13_coherence_sweep");

    std::vector<std::uint64_t> messages;
    for (unsigned cores : {1u, 2u, 4u, 8u}) {
        MultiCoreConfig config;
        config.cores = cores;
        MultiCoreCacheSystem system(config);
        const auto sources =
            WorkloadRepository::instance().open_core_trace_sources(spec, cores);
        system.replay(sources);
        system.flush();

        const CoherenceStats& cs = system.directory().stats();
        const EnergyBreakdown energy = system.energy();
        const double total_accesses =
            static_cast<double>(system.l1_totals().accesses());
        const double per_1k = 1000.0 * static_cast<double>(cs.messages()) / total_accesses;
        const double coherence_nj = energy.component("coherence") / 1e3;
        const double share = 100.0 * energy.component("coherence") / energy.total();
        messages.push_back(cs.messages());

        table.add_row({format("%u", cores), format_fixed(per_1k, 2),
                       format("%llu", (unsigned long long)cs.invalidations),
                       format("%llu", (unsigned long long)cs.downgrades),
                       format("%llu", (unsigned long long)cs.upgrades),
                       format_fixed(coherence_nj, 1), format_fixed(share, 2)});
        report.add_row({{"cores", static_cast<std::uint64_t>(cores)},
                        {"messages_per_1k", per_1k},
                        {"invalidations", cs.invalidations},
                        {"downgrades", cs.downgrades},
                        {"upgrades", cs.upgrades},
                        {"coherence_nj", coherence_nj},
                        {"coherence_share_pct", share}});
    }
    table.print(std::cout);
    std::printf("\n");

    // Shape: no coherence traffic on one core; strictly more protocol
    // messages every time the consumer count grows.
    const bool shape = messages[0] == 0 && messages[0] < messages[1] &&
                       messages[1] < messages[2] && messages[2] < messages[3];
    report.finish(shape,
                  "coherence messages are zero at 1 core and grow with the core "
                  "count (every producer store reaches more remote copies)");
    return 0;
}
