#include "core/flow.hpp"

#include <optional>

#include "cluster/frequency.hpp"
#include "support/assert.hpp"
#include "support/bits.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/stats.hpp"
#include "support/string_util.hpp"
#include "trace/source.hpp"

namespace memopt {

namespace {

// Per-stage observability. References are cached so the name lookup is
// paid once per process; recording is lock-free (support/metrics.hpp) and
// never influences results.
MetricTimer& profile_timer() {
    static MetricTimer& t = MetricsRegistry::instance().timer("flow.profile");
    return t;
}
MetricTimer& cluster_timer() {
    static MetricTimer& t = MetricsRegistry::instance().timer("flow.cluster");
    return t;
}
MetricTimer& partition_timer() {
    static MetricTimer& t = MetricsRegistry::instance().timer("flow.partition");
    return t;
}
MetricTimer& evaluate_timer() {
    static MetricTimer& t = MetricsRegistry::instance().timer("flow.evaluate");
    return t;
}

constexpr std::string_view kClusterMethodNames[] = {"none", "frequency", "affinity"};

}  // namespace

std::string cluster_method_name(ClusterMethod method) {
    return std::string(enum_entry(kClusterMethodNames, method));
}

std::optional<ClusterMethod> parse_cluster_method(std::string_view name) {
    return parse_enum<ClusterMethod>(kClusterMethodNames, name);
}

MemoryOptimizationFlow::MemoryOptimizationFlow(const FlowParams& params) : params_(params) {
    require(is_pow2(params.block_size), "FlowParams: block_size must be a power of two");
    require(params.affinity_window >= 2, "FlowParams: affinity_window must be >= 2");
}

namespace {

/// The block profile of a trace and, for ClusterMethod::Affinity, its
/// windowed affinity.
struct Prepared {
    BlockProfile profile;
    std::optional<AffinityMatrix> affinity;
};

/// The flow's one path from a trace to its inputs: the profile (one replay,
/// timed as flow.profile), then the affinity when `method` needs it (one
/// more, timed as flow.cluster).
Prepared prepare(TraceSource& source, ClusterMethod method, const FlowParams& params) {
    BlockProfile profile = [&] {
        const ScopedTimer scope(profile_timer());
        return BlockProfile::from_source(source, params.block_size);
    }();
    std::optional<AffinityMatrix> affinity;
    if (method == ClusterMethod::Affinity) {
        const ScopedTimer scope(cluster_timer());
        affinity.emplace(windowed_affinity(source, profile, params.affinity_window));
    }
    return Prepared{std::move(profile), std::move(affinity)};
}

/// One configuration clustered and split, with the energy parameters
/// (remap-table overhead included) that priced it.
struct Solved {
    FlowResult result;
    PartitionEnergyParams energy;
};

/// Cluster + partition + evaluate one profile. ClusterMethod::Affinity
/// requires `affinity` (Error when empty). `pool_banks` > 0 additionally
/// caps the bank budget at the hybrid pool size (solve_partition_pooled);
/// 0 is the legacy path.
Solved run_prepared(const BlockProfile& profile, ClusterMethod method,
                    const std::optional<AffinityMatrix>& affinity, const FlowParams& params,
                    std::size_t pool_banks = 0) {
    static MetricCounter& runs = MetricsRegistry::instance().counter("flow.runs");
    runs.add();

    AddressMap map = AddressMap::identity(profile.block_size(), profile.num_blocks());
    {
        const ScopedTimer scope(cluster_timer());
        switch (method) {
            case ClusterMethod::None:
                break;
            case ClusterMethod::Frequency:
                map = frequency_clustering(profile);
                break;
            case ClusterMethod::Affinity:
                require(affinity.has_value(),
                        "affinity clustering requires the trace, not just the profile");
                map = affinity_clustering(profile, *affinity, params.affinity);
                break;
        }
    }

    const BlockProfile physical = map.apply(profile);

    // The remap table adds a constant per-access energy; being constant it
    // does not change the partitioner's arg-min, so it is added at
    // evaluation time only.
    PartitionEnergyParams energy_params = params.energy;
    if (method != ClusterMethod::None) {
        const RemapTableModel remap(physical.num_blocks(), params.remap);
        energy_params.extra_pj_per_access = remap.lookup_energy();
    }

    const bool greedy = params.use_greedy_solver ||
                        physical.num_blocks() > params.auto_greedy_blocks;
    PartitionSolution solution = [&] {
        const ScopedTimer scope(partition_timer());
        if (pool_banks > 0)
            return solve_partition_pooled(physical, params.constraints, energy_params,
                                          pool_banks, greedy);
        return greedy ? solve_partition_greedy(physical, params.constraints, energy_params)
                      : solve_partition_optimal(physical, params.constraints, energy_params);
    }();

    FlowResult result{method, std::move(map), std::move(solution), EnergyBreakdown{}};
    result.energy = result.solution.energy;
    return Solved{std::move(result), energy_params};
}

}  // namespace

FlowResult MemoryOptimizationFlow::run(TraceSource& source, ClusterMethod method) const {
    const Prepared in = prepare(source, method, params_);
    return run_prepared(in.profile, method, in.affinity, params_).result;
}

FlowResult MemoryOptimizationFlow::run(const BlockProfile& profile, ClusterMethod method) const {
    return run_prepared(profile, method, std::nullopt, params_).result;
}

HybridFlowResult MemoryOptimizationFlow::run_hybrid(TraceSource& source, ClusterMethod method,
                                                    const BankPool& pool,
                                                    const HybridGatingParams& gating) const {
    require(pool.num_slots() > 0, "run_hybrid: empty bank pool");
    const Prepared in = prepare(source, method, params_);
    static MetricCounter& runs = MetricsRegistry::instance().counter("flow.hybrid_runs");
    runs.add();

    // solved.energy carries the remap-table per-access overhead, so the
    // hybrid evaluation prices it the way the legacy one does.
    Solved solved = run_prepared(in.profile, method, in.affinity, params_, pool.total_banks());
    const MemoryArchitecture& arch = solved.result.solution.arch;

    const std::vector<BankActivity> activity = [&] {
        const ScopedTimer scope(evaluate_timer());
        return replay_bank_activity(arch, solved.result.map, source, gating,
                                    params_.energy.runtime_cycles);
    }();
    const std::vector<MemTechnology> techs =
        assign_technologies(arch, activity, pool, solved.energy, gating);
    HybridReport report = evaluate_partition_hybrid(arch, techs, activity, solved.energy, gating);
    return HybridFlowResult{std::move(solved.result), pool, std::move(report)};
}

FlowComparison MemoryOptimizationFlow::compare(TraceSource& source,
                                               ClusterMethod method) const {
    require(method != ClusterMethod::None, "compare: pick a real clustering method");
    static MetricCounter& compares = MetricsRegistry::instance().counter("flow.compares");
    compares.add();
    const Prepared in = prepare(source, method, params_);
    EnergyBreakdown monolithic = [&] {
        const ScopedTimer scope(evaluate_timer());
        return evaluate_monolithic(in.profile, params_.energy);
    }();
    FlowResult partitioned =
        run_prepared(in.profile, ClusterMethod::None, std::nullopt, params_).result;
    FlowResult clustered = run_prepared(in.profile, method, in.affinity, params_).result;
    return FlowComparison{std::move(monolithic), std::move(partitioned), std::move(clustered)};
}

std::vector<FlowComparison> MemoryOptimizationFlow::compare_all(
    std::span<const MemTrace* const> traces, ClusterMethod method,
    std::size_t jobs) const {
    for (const MemTrace* trace : traces)
        require(trace != nullptr, "compare_all: null trace");
    // Each configuration is an independent pure evaluation; the parallel
    // runtime preserves input order, so the batch is bit-identical to the
    // serial loop at every job count. A source is a cursor, so every task
    // builds its own.
    return parallel_map(
        traces,
        [&](const MemTrace* trace) {
            MaterializedSource source(*trace);
            return compare(source, method);
        },
        jobs);
}

double FlowComparison::clustering_savings_pct() const {
    return percent_savings(partitioned.energy.total(), clustered.energy.total());
}

double FlowComparison::partitioning_savings_pct() const {
    return percent_savings(monolithic.total(), partitioned.energy.total());
}

void to_json(JsonWriter& w, const FlowResult& result) {
    const MemoryArchitecture& arch = result.solution.arch;
    w.begin_object();
    w.member("method", cluster_method_name(result.method));
    w.member("num_banks", static_cast<std::uint64_t>(arch.num_banks()));
    w.member("total_capacity_bytes", arch.total_capacity());
    w.key("banks").begin_array();
    for (const Bank& bank : arch.banks()) {
        w.begin_object();
        w.member("first_block", static_cast<std::uint64_t>(bank.first_block));
        w.member("num_blocks", static_cast<std::uint64_t>(bank.num_blocks));
        w.member("size_bytes", bank.size_bytes);
        w.end_object();
    }
    w.end_array();
    w.key("energy");
    result.energy.to_json(w);
    w.end_object();
}

void to_json(JsonWriter& w, const HybridFlowResult& result) {
    const MemoryArchitecture& arch = result.base.solution.arch;
    w.begin_object();
    w.member("method", cluster_method_name(result.base.method));
    w.member("pool", result.pool.to_string());
    w.member("num_banks", static_cast<std::uint64_t>(arch.num_banks()));
    w.member("total_capacity_bytes", arch.total_capacity());
    w.member("total_cycles", result.report.total_cycles);
    w.key("banks").begin_array();
    for (const HybridBankReport& slice : result.report.banks) {
        w.begin_object();
        w.member("first_block", static_cast<std::uint64_t>(slice.bank.first_block));
        w.member("num_blocks", static_cast<std::uint64_t>(slice.bank.num_blocks));
        w.member("size_bytes", slice.bank.size_bytes);
        w.member("tech", technology_name(slice.tech));
        w.member("heat_rank", static_cast<std::uint64_t>(slice.heat_rank));
        w.member("reads", slice.activity.reads);
        w.member("writes", slice.activity.writes);
        w.member("wakeups", slice.activity.wakeups);
        w.member("active_cycles", slice.activity.active_cycles);
        w.member("gated_cycles", slice.activity.gated_cycles);
        w.member("energy_pj", slice.total_pj());
        w.end_object();
    }
    w.end_array();
    w.key("energy");
    result.report.energy.to_json(w);
    w.end_object();
}

void to_json(JsonWriter& w, const FlowComparison& cmp) {
    w.begin_object();
    w.key("monolithic");
    cmp.monolithic.to_json(w);
    w.key("partitioned");
    to_json(w, cmp.partitioned);
    w.key("clustered");
    to_json(w, cmp.clustered);
    w.member("partitioning_savings_pct", cmp.partitioning_savings_pct());
    w.member("clustering_savings_pct", cmp.clustering_savings_pct());
    w.end_object();
}

}  // namespace memopt
