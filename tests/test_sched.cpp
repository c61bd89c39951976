// Unit and property tests for the reconfigurable-architecture data
// scheduler: model validation, evaluation semantics, and solver ordering
// (optimal <= greedy, optimal <= naive).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/app_builder.hpp"
#include "sched/scheduler.hpp"
#include "sim/kernels.hpp"
#include "support/assert.hpp"

namespace memopt {
namespace {

Application tiny_app() {
    Application app;
    app.name = "tiny";
    app.num_contexts = 2;
    app.datasets = {{"a", 1024}, {"b", 4096}};
    app.phases = {
        {"p0", 0, {{0, 10000}, {1, 500}}},
        {"p1", 1, {{0, 8000}}},
    };
    return app;
}

/// `phases` phases over `contexts` contexts cycling 0, 1, ..., each reading
/// one small data set.
Application context_cycle(std::size_t phases, std::size_t contexts) {
    Application app;
    app.name = "cycle";
    app.num_contexts = contexts;
    app.datasets = {{"d", 256}};
    for (std::size_t i = 0; i < phases; ++i) app.phases.push_back({"p", i % contexts, {{0, 100}}});
    return app;
}

/// An all-external schedule of the right shape for `app`.
DataSchedule all_ext(const Application& app) {
    DataSchedule schedule;
    schedule.assignment.assign(app.phases.size(),
                               std::vector<MemLevel>(app.datasets.size(), MemLevel::Ext));
    return schedule;
}

// ---------------------------------------------------------------- model ----

TEST(Model, ValidationCatchesBadInputs) {
    Application app = tiny_app();
    app.phases[0].uses[0].dataset = 9;
    EXPECT_THROW(app.validate(), Error);

    app = tiny_app();
    app.phases[1].context = 5;
    EXPECT_THROW(app.validate(), Error);

    app = tiny_app();
    app.datasets[0].bytes = 6;  // not a multiple of 4
    EXPECT_THROW(app.validate(), Error);

    app = tiny_app();
    app.phases[0].uses[0].accesses = 0;
    EXPECT_THROW(app.validate(), Error);

    EXPECT_NO_THROW(tiny_app().validate());
}

TEST(Model, ArchCostsAreOrdered) {
    EXPECT_LT(access_pj(MemLevel::L1), access_pj(MemLevel::L2));
    EXPECT_LT(access_pj(MemLevel::L2), access_pj(MemLevel::Ext));
}

TEST(Model, CalibrationPinnedExactly) {
    // The 1B-4 level energies, one data-set move and the context-load
    // component of three contexts in rotation (a load on every phase),
    // printed with %.17g.
    EXPECT_EQ(access_pj(MemLevel::L1), 4.0);
    EXPECT_EQ(access_pj(MemLevel::L2), 14.0);
    EXPECT_EQ(access_pj(MemLevel::Ext), 130.0);
    EXPECT_EQ(move_pj(MemLevel::Ext, MemLevel::L1, 1024), 34304.0);

    const Application app = context_cycle(12, 3);
    const DataSchedule plain = all_ext(app);
    DataSchedule prefetch = plain;
    prefetch.prefetch_contexts = true;
    EXPECT_EQ(evaluate_schedule(app, plain).component("context_load"), 22118.400000000001);
    EXPECT_EQ(evaluate_schedule(app, prefetch).component("context_load"), 7911.5815384615389);
}

TEST(Model, MoveCostSymmetricAndZeroForStay) {
    EXPECT_DOUBLE_EQ(move_pj(MemLevel::L1, MemLevel::L1, 1024), 0.0);
    EXPECT_DOUBLE_EQ(move_pj(MemLevel::Ext, MemLevel::L1, 1024),
                     move_pj(MemLevel::L1, MemLevel::Ext, 1024));
    EXPECT_GT(move_pj(MemLevel::Ext, MemLevel::L1, 1024), 0.0);
}

TEST(Model, GeneratorIsDeterministicAndValid) {
    const Application a = generate_application(5);
    const Application b = generate_application(5);
    EXPECT_EQ(a.datasets.size(), b.datasets.size());
    EXPECT_EQ(a.phases.size(), b.phases.size());
    for (std::size_t p = 0; p < a.phases.size(); ++p)
        EXPECT_EQ(a.phases[p].context, b.phases[p].context);
    EXPECT_NO_THROW(a.validate());
}

// ------------------------------------------------------------- evaluate ----

TEST(Evaluate, AllExtScheduleCostsAccessOnly) {
    const Application app = tiny_app();
    const auto e = evaluate_schedule(app, all_ext(app));
    const double expected_access = (10000 + 500 + 8000) * access_pj(MemLevel::Ext);
    EXPECT_DOUBLE_EQ(e.component("data_access"), expected_access);
    EXPECT_DOUBLE_EQ(e.component("data_movement"), 0.0);
    EXPECT_GT(e.component("context_load"), 0.0);
}

TEST(Evaluate, MovementChargedOnLevelChange) {
    const Application app = tiny_app();
    DataSchedule schedule;
    schedule.assignment = {
        {MemLevel::L1, MemLevel::Ext},  // a moves Ext->L1
        {MemLevel::L2, MemLevel::Ext},  // a moves L1->L2
    };
    const auto e = evaluate_schedule(app, schedule);
    const double expected_move = move_pj(MemLevel::Ext, MemLevel::L1, 1024) +
                                 move_pj(MemLevel::L1, MemLevel::L2, 1024);
    EXPECT_DOUBLE_EQ(e.component("data_movement"), expected_move);
}

TEST(Evaluate, RejectsCapacityViolation) {
    Application app = tiny_app();
    app.datasets[0].bytes = 2 * kL1Bytes;  // a no longer fits L1
    DataSchedule schedule = all_ext(app);
    schedule.assignment[0][0] = MemLevel::L1;
    EXPECT_THROW(evaluate_schedule(app, schedule), Error);
}

TEST(Evaluate, RejectsShapeMismatch) {
    const Application app = tiny_app();
    DataSchedule schedule;
    schedule.assignment.assign(1, std::vector<MemLevel>(2, MemLevel::Ext));
    EXPECT_THROW(evaluate_schedule(app, schedule), Error);
}

TEST(Evaluate, ContextReloadsCostEnergy) {
    // The context store is LRU over kContextSlots == 2 slots: two contexts
    // ping-ponging load once each, three in rotation load on every phase.
    ASSERT_EQ(kContextSlots, 2u);
    const Application pingpong = context_cycle(8, 2);
    const Application rotation = context_cycle(8, 3);
    const double per_load = static_cast<double>(kContextBytes) * 0.9;
    EXPECT_DOUBLE_EQ(evaluate_schedule(pingpong, all_ext(pingpong)).component("context_load"),
                     2 * per_load);
    EXPECT_DOUBLE_EQ(evaluate_schedule(rotation, all_ext(rotation)).component("context_load"),
                     8 * per_load);
}

TEST(Evaluate, ContextPrefetchHelpsThrashingSequences) {
    const Application app = context_cycle(12, 3);  // 2 slots, 3 contexts -> thrash
    const DataSchedule plain = all_ext(app);
    DataSchedule prefetch = plain;
    prefetch.prefetch_contexts = true;

    EXPECT_LT(evaluate_schedule(app, prefetch).component("context_load"),
              evaluate_schedule(app, plain).component("context_load"));
}

// -------------------------------------------------------------- solvers ----

TEST(Solvers, NaiveIsFeasibleAndStatic) {
    const Application app = tiny_app();
    const DataSchedule s = naive_schedule(app);
    EXPECT_NO_THROW(evaluate_schedule(app, s));
    for (std::size_t p = 1; p < s.assignment.size(); ++p)
        EXPECT_EQ(s.assignment[p], s.assignment[0]);
}

class SolverOrdering : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverOrdering, OptimalBeatsGreedyBeatsNothing) {
    const Application app = generate_application(GetParam());
    const double naive = evaluate_schedule(app, naive_schedule(app)).total();
    const double greedy = evaluate_schedule(app, greedy_schedule(app)).total();
    const double optimal = evaluate_schedule(app, optimal_schedule(app)).total();
    EXPECT_LE(optimal, greedy * (1 + 1e-12));
    EXPECT_LE(optimal, naive * (1 + 1e-12));
    // The headline claim: scheduling reduces application energy.
    EXPECT_LT(optimal, naive);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverOrdering,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

namespace brute {

/// Exhaustive schedule enumeration for tiny instances: every sequence of
/// feasible per-phase assignments. Used to certify the Viterbi DP.
double best_total(const Application& app, bool prefetch) {
    const std::size_t d = app.datasets.size();
    std::size_t states_per_phase = 1;
    for (std::size_t i = 0; i < d; ++i) states_per_phase *= kNumLevels;

    auto decode_state = [&](std::size_t code) {
        std::vector<MemLevel> assign(d);
        for (std::size_t i = 0; i < d; ++i) {
            assign[i] = static_cast<MemLevel>(code % kNumLevels);
            code /= kNumLevels;
        }
        return assign;
    };

    double best = std::numeric_limits<double>::infinity();
    std::vector<std::size_t> choice(app.phases.size(), 0);
    for (;;) {
        DataSchedule schedule;
        schedule.prefetch_contexts = prefetch;
        for (std::size_t p = 0; p < app.phases.size(); ++p)
            schedule.assignment.push_back(decode_state(choice[p]));
        try {
            best = std::min(best, evaluate_schedule(app, schedule).total());
        } catch (const Error&) {
            // capacity violation: skip
        }
        // Increment the mixed-radix counter.
        std::size_t p = 0;
        while (p < choice.size()) {
            if (++choice[p] < states_per_phase) break;
            choice[p] = 0;
            ++p;
        }
        if (p == choice.size()) break;
    }
    return best;
}

}  // namespace brute

class ViterbiCertification : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ViterbiCertification, ExactDpMatchesBruteForceEnumeration) {
    // A small instance cut from a generated application: its first three
    // phases and data sets 0-1 (9^3 schedules per prefetch setting).
    Application app = generate_application(GetParam());
    app.datasets.resize(2);
    app.phases.resize(3);
    for (KernelPhase& phase : app.phases)
        std::erase_if(phase.uses, [](const KernelUse& use) { return use.dataset >= 2; });
    const double dp = evaluate_schedule(app, optimal_schedule(app)).total();
    const double brute_best =
        std::min(brute::best_total(app, false), brute::best_total(app, true));
    EXPECT_NEAR(dp, brute_best, 1e-6 * brute_best);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ViterbiCertification,
                         ::testing::Values(101, 102, 103, 104, 105, 106));

TEST(Solvers, GreedyFeasibleOnLargerInstances) {
    // The whole kernel suite as one pipeline: 35 data sets, 12 phases.
    std::vector<std::string> names;
    for (const Kernel& kernel : kernel_suite()) names.push_back(kernel.name);
    const Application app = application_from_kernels(names);
    ASSERT_EQ(app.datasets.size(), 35u);
    ASSERT_EQ(app.phases.size(), 12u);
    EXPECT_NO_THROW(evaluate_schedule(app, greedy_schedule(app)));
}

TEST(Solvers, OptimalRejectsHugeInstances) {
    const Application app = application_from_kernels({"fir", "biquad", "fft16"});
    ASSERT_EQ(app.datasets.size(), 11u);  // the exact DP takes at most 6
    EXPECT_THROW(optimal_schedule(app), Error);
}

TEST(Solvers, HotSmallDataEndsUpInL1) {
    Application app;
    app.name = "hot";
    app.num_contexts = 1;
    app.datasets = {{"hot", 512}, {"cold", 16 * 1024}};
    app.phases = {{"p0", 0, {{0, 100000}, {1, 100}}}};
    const DataSchedule s = optimal_schedule(app);
    EXPECT_EQ(s.assignment[0][0], MemLevel::L1);
    EXPECT_EQ(s.assignment[0][1], MemLevel::Ext);  // cold and too big for L2? it fits... 16K > 8K L2
}

TEST(Solvers, MemLevelNames) {
    EXPECT_EQ(mem_level_name(MemLevel::L1), "L1");
    EXPECT_EQ(mem_level_name(MemLevel::L2), "L2");
    EXPECT_EQ(mem_level_name(MemLevel::Ext), "ext");
}

}  // namespace
}  // namespace memopt
