// E12 — fault-injection campaign: protection strength vs silent corruption
// and energy on the kernel suite's data images.
//
// Metric: Monte-Carlo bit-flip campaigns over the stored lines (raw and
// diff-compressed) under none/parity/SECDED protection. Stronger codes must
// deliver monotonically fewer silent corruptions; the price is check-bit
// storage, encode/check logic energy, and re-fetches of detected lines.
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "compress/diff_codec.hpp"
#include "fault/campaign.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"

using namespace memopt;

int main() {
    bench::print_header(
        "E12  fault campaign: none vs parity vs SECDED on stored lines",
        "robustness extension: SECDED eliminates nearly all silent corruption that "
        "unprotected (and parity-protected) storage lets through, at a bounded "
        "energy overhead",
        "AR32 kernel suite data images; 32 B lines, raw and diff-compressed "
        "storage; per-bit flip rate 1e-4; 96 trials, fixed seed");

    // One corpus: every line of every kernel's data image.
    std::vector<std::vector<std::uint8_t>> corpus;
    for (const bench::KernelRunPtr& run : bench::run_suite()) {
        if (run->program.data.empty()) continue;
        auto lines = line_corpus(run->program.data, 32);
        for (auto& line : lines) corpus.push_back(std::move(line));
    }

    const DiffCodec diff;
    struct Storage {
        const char* name;
        const LineCodec* codec;
    };
    const Storage storages[] = {{"raw", nullptr}, {"diff", &diff}};
    const ProtectionScheme schemes[] = {ProtectionScheme::None, ProtectionScheme::Parity,
                                        ProtectionScheme::Secded};

    TablePrinter table({"storage", "protection", "check b/w", "injected", "corrected",
                        "degraded rate", "silent rate", "overhead [%]"});
    bench::BenchReport report("e12_fault_campaign");

    bool residual_monotone = true;
    bool secded_corrects = false;
    bool none_never_corrects = true;
    for (const Storage& storage : storages) {
        double prev_residual = -1.0;  // walked strongest-to-weakest below
        double residuals[3] = {0, 0, 0};
        for (std::size_t s = 0; s < 3; ++s) {
            FaultCampaignConfig config;
            config.seed = 42;
            config.trials = 96;
            config.bit_flip_rate = 1e-4;
            config.protection = schemes[s];
            config.codec = storage.codec;
            config.line_bytes = 32;
            const FaultCampaignResult r = run_campaign(config, corpus).result;
            residuals[s] = r.residual_corruption_rate();
            if (schemes[s] == ProtectionScheme::Secded && r.corrected > 0)
                secded_corrects = true;
            if (schemes[s] == ProtectionScheme::None && r.corrected != 0)
                none_never_corrects = false;
            table.add_row({storage.name, protection_name(schemes[s]),
                           format("%u", protection_check_bits(schemes[s], 64)),
                           format("%llu", (unsigned long long)r.faults_injected),
                           format("%llu", (unsigned long long)r.corrected),
                           format("%.3e", r.degraded_rate()),
                           format("%.3e", r.residual_corruption_rate()),
                           format_fixed(100.0 * r.energy_overhead(), 2)});
            report.add_row({{"storage", storage.name},
                            {"protection", protection_name(schemes[s])},
                            {"check_bits_per_word", protection_check_bits(schemes[s], 64)},
                            {"faults_injected", r.faults_injected},
                            {"corrected", r.corrected},
                            {"degraded_rate", r.degraded_rate()},
                            {"residual_corruption_rate", r.residual_corruption_rate()},
                            {"energy_overhead", r.energy_overhead()}});
        }
        // none >= parity >= secded: each protection upgrade must not
        // increase the silent corruption that reaches the consumer.
        prev_residual = residuals[2];  // secded
        for (int s = 1; s >= 0; --s) {
            if (residuals[s] < prev_residual) residual_monotone = false;
            prev_residual = residuals[s];
        }
        table.add_separator();
    }
    table.print(std::cout);
    std::printf("\n(%zu lines per campaign; overhead = (protection + refetch) / "
                "base access energy)\n",
                corpus.size());

    const bool ok = residual_monotone && secded_corrects && none_never_corrects;
    report.finish(ok,
                  "silent corruption decreases monotonically with protection strength "
                  "(none >= parity >= SECDED) on both raw and compressed storage");
    return 0;
}
