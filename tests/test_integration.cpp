// Integration tests: the full pipelines of every experiment run end-to-end
// on real kernel traces, and their headline properties hold.
#include <gtest/gtest.h>

#include "cache/platform.hpp"
#include "compress/diff_codec.hpp"
#include "core/flow.hpp"
#include "core/report.hpp"
#include "encoding/baselines.hpp"
#include "encoding/search.hpp"
#include "energy/bus_model.hpp"
#include "sched/scheduler.hpp"
#include "sim/kernels.hpp"
#include "support/stats.hpp"
#include "trace/source.hpp"

namespace memopt {
namespace {

FlowParams e1_params() {
    FlowParams fp;
    fp.block_size = 256;
    fp.constraints.max_banks = 4;
    return fp;
}

class KernelFlow : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KernelFlow, PartitioningPipelineIsSoundOnKernelTraces) {
    const Kernel& kernel = kernel_suite()[GetParam()];
    const RunResult run = run_kernel(kernel);
    const MemoryOptimizationFlow flow(e1_params());
    MaterializedSource source(run.data_trace);
    const FlowComparison cmp = flow.compare(source, ClusterMethod::Frequency);

    // Partitioning never loses to monolithic (k=1 is in the search space).
    EXPECT_LE(cmp.partitioned.energy.total(), cmp.monolithic.total() * (1 + 1e-12));
    // The clustered architecture covers the same block space.
    EXPECT_EQ(cmp.clustered.solution.arch.num_blocks(),
              cmp.partitioned.solution.arch.num_blocks());
    // The remapped trace reproduces the clustered profile's bank loads:
    // total accesses are conserved under the bijection.
    const BlockProfile original = BlockProfile::from_source(source, 256);
    const BlockProfile remapped = cmp.clustered.map.apply(original);
    EXPECT_EQ(remapped.total_accesses(), original.total_accesses());
    EXPECT_GT(cmp.partitioning_savings_pct(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelFlow, ::testing::Range<std::size_t>(0, 12),
                         [](const auto& info) { return kernel_suite()[info.param].name; });

TEST(E1Headline, ClusteringBeatsPartitioningOnAverage) {
    // The reproduction headline (paper 1B-1: avg 25%, max 57%): with the E1
    // configuration, frequency clustering must deliver a solid average gain
    // over plain partitioning across the suite, with a high maximum.
    std::vector<double> savings;
    const MemoryOptimizationFlow flow(e1_params());
    for (const Kernel& kernel : kernel_suite()) {
        const RunResult run = run_kernel(kernel);
        MaterializedSource source(run.data_trace);
        savings.push_back(
            flow.compare(source, ClusterMethod::Frequency).clustering_savings_pct());
    }
    const double avg = mean(savings);
    const double max = *std::max_element(savings.begin(), savings.end());
    EXPECT_GT(avg, 15.0) << "average clustering savings collapsed";
    EXPECT_GT(max, 40.0) << "maximum clustering savings collapsed";
    for (double s : savings) EXPECT_GT(s, 0.0);
}

TEST(E4Headline, CompressionSavesOnCompressibleKernels) {
    const DiffCodec codec;
    const PlatformModel platform = vliw_platform();
    for (const char* name : {"biquad", "conv3x3", "listchase"}) {
        const auto prog = assemble(kernel_by_name(name).source);
        const RunResult run = Cpu(CpuConfig{}).run(prog);
        MaterializedSource source(run.data_trace);
        const auto base =
            CompressedMemorySim(platform.config, nullptr).run(source, prog.data, prog.data_base);
        const auto comp =
            CompressedMemorySim(platform.config, &codec).run(source, prog.data, prog.data_base);
        const double base_path = base.energy.component("main_memory");
        const double comp_path =
            comp.energy.component("main_memory") + comp.energy.component("codec");
        EXPECT_GT(percent_savings(base_path, comp_path), 8.0) << name;
    }
}

TEST(E7Headline, TransformsBeatBaselinesOnEveryKernel) {
    for (const Kernel& kernel : kernel_suite()) {
        CpuConfig cfg;
        cfg.record_data_trace = false;
        cfg.record_fetch_stream = true;
        const RunResult run = run_kernel(kernel, cfg);
        const std::uint64_t raw = count_transitions(run.fetch_stream);
        const std::uint64_t bi = bus_invert_transitions(run.fetch_stream);
        const auto xform = search_transform(run.fetch_stream, {.max_gates = 16});
        EXPECT_LT(xform.encoded_transitions, raw) << kernel.name;
        EXPECT_LT(xform.encoded_transitions, bi) << kernel.name;
        EXPECT_GT(xform.reduction(), 0.2) << kernel.name;
    }
}

TEST(E9Headline, SchedulerReducesEnergyOnGeneratedApps) {
    const ReconfArch arch;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        AppGenParams params;
        params.seed = seed;
        const Application app = generate_application(params);
        const double naive = evaluate_schedule(app, arch, naive_schedule(app, arch)).total();
        const double greedy = evaluate_schedule(app, arch, greedy_schedule(app, arch)).total();
        EXPECT_LT(greedy, naive) << "seed " << seed;
    }
}

TEST(Reports, TablesRenderConfigurations) {
    EnergyBreakdown base;
    base.add("x", 2000.0);
    EnergyBreakdown opt;
    opt.add("x", 1000.0);
    const TablePrinter t = energy_comparison_table({{"baseline", base}, {"optimized", opt}});
    const std::string s = t.to_string();
    EXPECT_NE(s.find("baseline"), std::string::npos);
    EXPECT_NE(s.find("-50.00"), std::string::npos);
}

TEST(Determinism, FullPipelineIsReproducible) {
    const Kernel& kernel = kernel_by_name("biquad");
    auto run_once = [&]() {
        const RunResult run = run_kernel(kernel);
        const MemoryOptimizationFlow flow(e1_params());
        MaterializedSource source(run.data_trace);
        return flow.compare(source, ClusterMethod::Affinity).clustered.energy.total();
    };
    EXPECT_DOUBLE_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace memopt
