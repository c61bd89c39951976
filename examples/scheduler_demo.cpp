// scheduler_demo — data scheduling on a multi-context reconfigurable array.
//
// Builds a small hand-written "video pipeline" application (the kind of
// kernel chain 1B-4 targets), schedules it with the naive, greedy and exact
// solvers, and prints the per-phase placements chosen by the best schedule.
#include <cstdio>
#include <iostream>

#include "sched/scheduler.hpp"
#include "support/table.hpp"

int main() {
    using namespace memopt;

    // A 4-stage video pipeline: fetch -> transform -> quantize -> encode,
    // looping over 2 frames, with a shared coefficient table.
    Application app;
    app.name = "video-pipeline";
    app.num_contexts = 4;
    app.datasets = {
        {"frame_in", 6 * 1024}, {"coeffs", 512},      {"workbuf", 1536},
        {"quantbuf", 1536},     {"bitstream", 3 * 1024},
    };
    for (int frame = 0; frame < 2; ++frame) {
        app.phases.push_back({"fetch", 0, {{0, 1536 * 2}, {2, 1536}}});
        app.phases.push_back({"transform", 1, {{2, 40000}, {1, 30000}}});
        app.phases.push_back({"quantize", 2, {{2, 12000}, {3, 12000}, {1, 8000}}});
        app.phases.push_back({"encode", 3, {{3, 9000}, {4, 6000}}});
    }
    app.validate();

    const DataSchedule naive = naive_schedule(app);
    const DataSchedule greedy = greedy_schedule(app);
    const DataSchedule optimal = optimal_schedule(app);

    const auto e_naive = evaluate_schedule(app, naive);
    const auto e_greedy = evaluate_schedule(app, greedy);
    const auto e_opt = evaluate_schedule(app, optimal);

    TablePrinter table({"scheduler", "data access [uJ]", "movement [uJ]", "context [uJ]",
                        "total [uJ]"});
    auto row = [&](const char* label, const EnergyBreakdown& e) {
        char buf[4][32];
        std::snprintf(buf[0], sizeof buf[0], "%.2f", e.component("data_access") / 1e6);
        std::snprintf(buf[1], sizeof buf[1], "%.2f", e.component("data_movement") / 1e6);
        std::snprintf(buf[2], sizeof buf[2], "%.2f", e.component("context_load") / 1e6);
        std::snprintf(buf[3], sizeof buf[3], "%.2f", e.total() / 1e6);
        table.add_row({label, buf[0], buf[1], buf[2], buf[3]});
    };
    row("naive (all-L2 static)", e_naive);
    row("greedy", e_greedy);
    row("optimal (exact DP)", e_opt);
    table.print(std::cout);

    std::printf("\noptimal schedule (context prefetch: %s):\n",
                optimal.prefetch_contexts ? "on" : "off");
    TablePrinter placement({"phase", "frame_in", "coeffs", "workbuf", "quantbuf", "bitstream"});
    for (std::size_t p = 0; p < app.phases.size(); ++p) {
        std::vector<std::string> cells{app.phases[p].name};
        for (std::size_t d = 0; d < app.datasets.size(); ++d)
            cells.push_back(mem_level_name(optimal.assignment[p][d]));
        placement.add_row(cells);
    }
    placement.print(std::cout);

    std::printf("\nscheduling saved %.1f%% vs the naive placement.\n",
                100.0 * (e_naive.total() - e_opt.total()) / e_naive.total());
    return 0;
}
