// Tests for the core facades: profile merging, the KernelStudy entry point,
// and the report helpers' edge cases.
#include <gtest/gtest.h>

#include "core/report.hpp"
#include "core/app_builder.hpp"
#include "core/study.hpp"
#include "core/symbolize.hpp"
#include "sched/scheduler.hpp"
#include "support/assert.hpp"
#include "trace/profile.hpp"

namespace memopt {
namespace {

// --------------------------------------------------------------- merge ----

TEST(ProfileMerge, SumsCountsAcrossProfiles) {
    BlockProfile a(256, 4);
    a.add_counts(0, 10, 5);
    a.add_counts(2, 1, 1);
    BlockProfile b(256, 8);  // larger span
    b.add_counts(0, 3, 0);
    b.add_counts(7, 100, 0);
    const std::vector<BlockProfile> inputs{a, b};
    const BlockProfile merged = BlockProfile::merge(inputs);
    EXPECT_EQ(merged.num_blocks(), 8u);
    EXPECT_EQ(merged.counts(0).reads, 13u);
    EXPECT_EQ(merged.counts(0).writes, 5u);
    EXPECT_EQ(merged.counts(2).reads, 1u);
    EXPECT_EQ(merged.counts(7).reads, 100u);
    EXPECT_EQ(merged.total_accesses(), a.total_accesses() + b.total_accesses());
}

TEST(ProfileMerge, WeightsScaleContributions) {
    BlockProfile a(256, 2);
    a.add_counts(0, 10, 10);
    BlockProfile b(256, 2);
    b.add_counts(1, 10, 0);
    const std::vector<BlockProfile> inputs{a, b};
    const std::vector<double> weights{2.0, 0.5};
    const BlockProfile merged = BlockProfile::merge(inputs, weights);
    EXPECT_EQ(merged.counts(0).reads, 20u);
    EXPECT_EQ(merged.counts(0).writes, 20u);
    EXPECT_EQ(merged.counts(1).reads, 5u);
}

TEST(ProfileMerge, ValidatesInputs) {
    EXPECT_THROW(BlockProfile::merge({}), Error);
    BlockProfile a(256, 2);
    BlockProfile b(512, 2);
    const std::vector<BlockProfile> mismatched{a, b};
    EXPECT_THROW(BlockProfile::merge(mismatched), Error);
    const std::vector<BlockProfile> ok{a};
    const std::vector<double> wrong_weights{1.0, 2.0};
    EXPECT_THROW(BlockProfile::merge(ok, wrong_weights), Error);
    const std::vector<double> negative{-1.0};
    EXPECT_THROW(BlockProfile::merge(ok, negative), Error);
}

TEST(ProfileMerge, SingleProfileIsIdentityOperation) {
    BlockProfile a(256, 4);
    a.add_counts(1, 7, 3);
    const std::vector<BlockProfile> one{a};
    const BlockProfile merged = BlockProfile::merge(one);
    for (std::size_t blk = 0; blk < 4; ++blk) {
        EXPECT_EQ(merged.counts(blk).reads, a.counts(blk).reads);
        EXPECT_EQ(merged.counts(blk).writes, a.counts(blk).writes);
    }
}

// --------------------------------------------------------------- study ----

TEST(KernelStudy, ProducesAllSections) {
    const StudyReport report = study_kernel(kernel_by_name("histogram"));
    EXPECT_EQ(report.name, "histogram");
    // 1B-1 section.
    EXPECT_GT(report.memory.monolithic.total(), 0.0);
    EXPECT_LE(report.memory.partitioned.energy.total(), report.memory.monolithic.total());
    // 1B-2 section.
    EXPECT_GT(report.compression_baseline.energy.total(), 0.0);
    EXPECT_LE(report.compression.actual_traffic_bytes,
              report.compression_baseline.actual_traffic_bytes);
    // 1B-3 section.
    EXPECT_GT(report.encoding.original_transitions, 0u);
    EXPECT_GT(report.encoding_reduction_pct(), 0.0);
    // Derived metrics are self-consistent.
    EXPECT_NEAR(report.clustering_savings_pct(),
                report.memory.clustering_savings_pct(), 1e-12);
}

TEST(KernelStudy, HeadlinesPinnedExactly) {
    // The three headline percentages of `study histogram` (4 banks), printed
    // with %.17g.
    const StudyReport report = study_kernel(kernel_by_name("histogram"));
    EXPECT_EQ(report.clustering_savings_pct(), 30.460024543733351);
    EXPECT_EQ(report.compression_savings_pct(), 4.567524200336706);
    EXPECT_EQ(report.encoding_reduction_pct(), 45.505972899156134);
}

TEST(KernelStudy, ExternalTraceWithoutFetchStream) {
    const RunResult run = run_kernel(kernel_by_name("qsort"));
    const StudyReport report = study_trace("external", run.data_trace, {}, 0x10000, {});
    EXPECT_EQ(report.encoding.original_transitions, 0u);  // section skipped
    EXPECT_GT(report.memory.monolithic.total(), 0.0);
}

TEST(KernelStudy, RejectsEmptyTrace) {
    EXPECT_THROW(study_trace("empty", MemTrace{}, {}, 0, {}), Error);
}

// --------------------------------------------------------- app builder ----

TEST(AppBuilder, BuildsValidPipelineFromKernels) {
    const Application app = application_from_kernels({"fir", "histogram"});
    EXPECT_EQ(app.phases.size(), 2u);
    EXPECT_EQ(app.num_contexts, 2u);
    EXPECT_EQ(app.phases[0].name, "fir");
    EXPECT_EQ(app.phases[1].context, 1u);
    EXPECT_NO_THROW(app.validate());
    // The fir phase's hottest data sets must include the input and the
    // coefficient table (48.5% of accesses each).
    bool saw_fin = false;
    for (const KernelUse& use : app.phases[0].uses)
        saw_fin = saw_fin || app.datasets[use.dataset].name == "fir.fin";
    EXPECT_TRUE(saw_fin);
}

TEST(AppBuilder, RespectsDatasetCap) {
    // fft16 has 7 symbols with traffic; the builder keeps the 4 hottest.
    const Kernel& kernel = kernel_by_name("fft16");
    const AssembledProgram program = assemble(kernel.source);
    const RunResult run = Cpu().run(program);
    ASSERT_EQ(symbolize_trace(program, run.data_trace).size(), 7u);
    const Application app = application_from_kernels({"fft16"});
    EXPECT_EQ(app.phases[0].uses.size(), 4u);
    EXPECT_EQ(app.datasets.size(), 4u);
}

TEST(AppBuilder, SchedulerImprovesKernelPipelines) {
    const Application app = application_from_kernels({"fir", "biquad", "fft16"});
    const double naive = evaluate_schedule(app, naive_schedule(app)).total();
    const double greedy = evaluate_schedule(app, greedy_schedule(app)).total();
    EXPECT_LT(greedy, naive);
}

TEST(AppBuilder, RejectsBadInputs) {
    EXPECT_THROW(application_from_kernels({}), Error);
    EXPECT_THROW(application_from_kernels({"no-such-kernel"}), Error);
}

// ------------------------------------------------------- report helpers ----

TEST(ReportHelpers, ComparisonTableRejectsEmpty) {
    EXPECT_THROW(energy_comparison_table({}), Error);
}

}  // namespace
}  // namespace memopt
