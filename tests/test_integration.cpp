// Integration tests: the full pipelines of every experiment run end-to-end
// on real kernel traces, and their headline properties hold.
#include <gtest/gtest.h>

#include "cache/platform.hpp"
#include "compress/diff_codec.hpp"
#include "core/app_builder.hpp"
#include "core/flow.hpp"
#include "core/report.hpp"
#include "encoding/baselines.hpp"
#include "encoding/decoder_cost.hpp"
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

TEST(E7Table, Crc32RowPinnedExactly) {
    // E7's crc32 row: raw, bus-invert and Gray transitions, the 16-gate
    // search and the net bus+decoder energy (%.17g).
    CpuConfig cfg;
    cfg.record_data_trace = false;
    cfg.record_fetch_stream = true;
    const RunResult run = run_kernel(kernel_by_name("crc32"), cfg);
    const auto& stream = run.fetch_stream;
    EXPECT_EQ(count_transitions(stream), 688729u);
    EXPECT_EQ(bus_invert_transitions(stream), 526423u);
    EXPECT_EQ(gray_code_transitions(stream), 608358u);
    const auto xform = search_transform(stream, {.max_gates = 16});
    EXPECT_EQ(xform.encoded_transitions, 419941u);
    EXPECT_EQ(encoded_energy(xform.transform, stream).total(), 340180.42400000006);
}

TEST(E9Headline, SchedulerReducesEnergyOnGeneratedApps) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const Application app = generate_application(seed);
        const double naive = evaluate_schedule(app, naive_schedule(app)).total();
        const double greedy = evaluate_schedule(app, greedy_schedule(app)).total();
        EXPECT_LT(greedy, naive) << "seed " << seed;
    }
}

TEST(E9Table, TotalsPinnedExactly) {
    // E9's naive, greedy and optimal totals [pJ] for seeds 1..8, printed
    // with %.17g.
    const double expected[8][3] = {
        {64479423.600000001, 28121451.600000001, 27325839.600000001},
        {44324632, 22049658, 22049658},
        {69314432.400000006, 55326282.399999999, 53549254.399999999},
        {49248122, 21506730, 20879898},
        {77091704.400000006, 46910784.399999999, 44976172.399999999},
        {59295500, 25113388, 25072672},
        {47926102.799999997, 21954980.800000001, 21954980.800000001},
        {51788268, 38030594, 37021846},
    };
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const Application app = generate_application(seed);
        const double* row = expected[seed - 1];
        EXPECT_EQ(evaluate_schedule(app, naive_schedule(app)).total(), row[0]) << "seed " << seed;
        EXPECT_EQ(evaluate_schedule(app, greedy_schedule(app)).total(), row[1]) << "seed " << seed;
        EXPECT_EQ(evaluate_schedule(app, optimal_schedule(app)).total(), row[2]) << "seed " << seed;
    }
}

TEST(E9Table, KernelPipelinesPinnedExactly) {
    // E9's kernel-derived pipelines: naive and greedy totals [pJ].
    struct Pipeline {
        std::vector<std::string> kernels;
        double naive;
        double greedy;
    };
    const std::vector<Pipeline> pipelines = {
        {{"fir", "biquad", "fft16"}, 4813273.5999999996, 3535713.6000000001},
        {{"conv3x3", "dither", "rle"}, 5359625.5999999996, 4357241.5999999996},
        {{"crc32", "histogram", "strsearch", "qsort"}, 3677404.7999999998,
         2186478.7938461537},
    };
    for (const Pipeline& p : pipelines) {
        const Application app = application_from_kernels(p.kernels);
        EXPECT_EQ(evaluate_schedule(app, naive_schedule(app)).total(), p.naive) << p.kernels[0];
        EXPECT_EQ(evaluate_schedule(app, greedy_schedule(app)).total(), p.greedy) << p.kernels[0];
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
