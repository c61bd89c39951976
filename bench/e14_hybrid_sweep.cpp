// E14 — heterogeneous bank pools: hybrid vs homogeneous, with dark-silicon
// gating.
//
// The dark-silicon heterogeneous-memory line of work (PAPERS.md) predicts
// that once banks can be built in different technologies, a hybrid pool
// (hot clusters in fast SRAM, cold mass in dense, low-leakage NVM) beats
// every homogeneous design. This bench synthesizes the banked architecture
// per workload, then evaluates four homogeneous pools and the free-mix
// hybrid pool under the gating controller, and ablates the gate quality to
// show the gating savings are monotone: better gates (lower residual gated
// leakage) never cost energy, because the gating residency is fixed by the
// access pattern, not by the technology.
#include <algorithm>
#include <array>
#include <cstdio>
#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "core/flow.hpp"
#include "support/parallel.hpp"
#include "support/stats.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"
#include "trace/source.hpp"

using namespace memopt;

namespace {

constexpr std::array<double, 5> kGateLeakScales{1.0, 0.5, 0.2, 0.05, 0.0};

const char* kHomogeneous[] = {"sram", "edram", "sttmram", "drowsy"};

}  // namespace

int main() {
    bench::print_header(
        "E14  heterogeneous bank pools: hybrid vs homogeneous under gating",
        "dark-silicon heterogeneous memory: a free-mix hybrid pool matches or beats "
        "every homogeneous pool on every workload and strictly wins on some, and "
        "total energy is monotone non-increasing as gate quality improves",
        "AR32 kernel suite; <=8 banks, frequency clustering; 200-cycle idle "
        "threshold; pools: sram / edram / sttmram / drowsy homogeneous vs "
        "sram,edram,sttmram,drowsy free mix");

    FlowParams fp;
    fp.block_size = 256;
    fp.constraints.max_banks = 8;

    struct Row {
        std::string name;
        std::array<double, 4> homogeneous_pj{};
        double hybrid_pj = 0.0;
        std::array<double, kGateLeakScales.size()> sweep_pj{};
        std::uint64_t gated_cycles = 0;
        std::uint64_t wakeups = 0;
    };

    // One workload per task; every evaluation inside a task is sequential
    // (run_hybrid replays the trace on the calling thread), so the ordered
    // reduction below is bit-identical at any MEMOPT_JOBS.
    const auto rows = parallel_map(bench::run_suite(), [&](const bench::KernelRunPtr& run) {
        FlowParams kernel_fp = fp;
        kernel_fp.energy.runtime_cycles = run->result.cycles;
        const MemoryOptimizationFlow flow(kernel_fp);
        MaterializedSource source(run->result.data_trace);

        Row row;
        row.name = run->name;
        for (std::size_t p = 0; p < 4; ++p) {
            const auto result = flow.run_hybrid(
                source, ClusterMethod::Frequency,
                BankPool::homogeneous(parse_technology(kHomogeneous[p]).value()));
            row.homogeneous_pj[p] = result.total();
        }
        const BankPool mix = BankPool::parse("sram,edram,sttmram,drowsy");
        for (std::size_t i = 0; i < kGateLeakScales.size(); ++i) {
            HybridGatingParams gating;
            gating.gate_leak_scale = kGateLeakScales[i];
            const auto result = flow.run_hybrid(source, ClusterMethod::Frequency, mix, gating);
            row.sweep_pj[i] = result.total();
            if (i == 0) {
                row.hybrid_pj = result.total();
                row.gated_cycles = result.report.total_gated_cycles();
                row.wakeups = result.report.total_wakeups();
            }
        }
        return row;
    });

    TablePrinter table({"benchmark", "sram [nJ]", "edram [nJ]", "sttmram [nJ]",
                        "drowsy [nJ]", "hybrid [nJ]", "vs best homog [%]"});
    bench::BenchReport report("e14_hybrid_sweep");
    Accumulator savings;
    std::size_t strict_wins = 0;
    bool never_worse = true;
    std::array<double, kGateLeakScales.size()> sweep_total{};
    for (const Row& row : rows) {
        const double best_homog =
            *std::min_element(row.homogeneous_pj.begin(), row.homogeneous_pj.end());
        const double vs_best = percent_savings(best_homog, row.hybrid_pj);
        savings.add(vs_best);
        // The free mix can at worst replicate the best homogeneous choice in
        // every bank, so "hybrid worse" (beyond FP noise) is a solver bug.
        if (row.hybrid_pj > best_homog * (1.0 + 1e-9)) never_worse = false;
        if (row.hybrid_pj < best_homog * (1.0 - 1e-3)) ++strict_wins;
        for (std::size_t i = 0; i < kGateLeakScales.size(); ++i)
            sweep_total[i] += row.sweep_pj[i];

        table.add_row({row.name, format_fixed(row.homogeneous_pj[0] / 1e3, 1),
                       format_fixed(row.homogeneous_pj[1] / 1e3, 1),
                       format_fixed(row.homogeneous_pj[2] / 1e3, 1),
                       format_fixed(row.homogeneous_pj[3] / 1e3, 1),
                       format_fixed(row.hybrid_pj / 1e3, 1), format_fixed(vs_best, 2)});
        report.add_row({{"benchmark", row.name},
                        {"sram_nj", row.homogeneous_pj[0] / 1e3},
                        {"edram_nj", row.homogeneous_pj[1] / 1e3},
                        {"sttmram_nj", row.homogeneous_pj[2] / 1e3},
                        {"drowsy_nj", row.homogeneous_pj[3] / 1e3},
                        {"hybrid_nj", row.hybrid_pj / 1e3},
                        {"hybrid_vs_best_homog_pct", vs_best},
                        {"gated_cycles", row.gated_cycles},
                        {"wakeups", row.wakeups}});
    }
    table.print(std::cout);

    // Gate-quality ablation: scaling every technology's residual gated
    // leakage downward can only shrink per-bank costs, so the assignment
    // optimum — and the suite total — must be monotone non-increasing.
    bool monotone = true;
    std::printf("\ngate-quality ablation (suite total):\n");
    for (std::size_t i = 0; i < kGateLeakScales.size(); ++i) {
        std::printf("  gate_leak_scale %.2f -> %.4f nJ\n", kGateLeakScales[i],
                    sweep_total[i] / 1e3);
        if (i > 0 && sweep_total[i] > sweep_total[i - 1] * (1.0 + 1e-12)) monotone = false;
    }
    std::printf("hybrid strictly beats the best homogeneous pool on %zu/%zu workloads "
                "(avg savings %.2f%%)\n",
                strict_wins, rows.size(), savings.mean());

    report.summary({{"strict_wins", strict_wins},
                    {"workloads", rows.size()},
                    {"avg_savings_vs_best_homog_pct", savings.mean()},
                    {"sweep_total_scale1_nj", sweep_total.front() / 1e3},
                    {"sweep_total_scale0_nj", sweep_total.back() / 1e3}});
    report.finish(never_worse && strict_wins >= 1 && monotone,
                  "the free-mix hybrid pool never loses to a homogeneous pool, strictly "
                  "wins on at least one workload, and energy is monotone non-increasing "
                  "as gate quality improves");
    return 0;
}
