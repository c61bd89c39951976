// End-to-end memory-optimization flow (the library's main entry point).
//
// Wires the full DATE'03 1B-1 pipeline together:
//
//   trace -> block profile -> [address clustering] -> partitioning -> energy
//
// and evaluates each configuration with the same objective, including the
// remap-table overhead when clustering is enabled. Used by the examples and
// by the E1/E2/E3 reproduction benches.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/address_map.hpp"
#include "cluster/affinity_cluster.hpp"
#include "cluster/remap_cost.hpp"
#include "energy/report.hpp"
#include "energy/tech_model.hpp"
#include "partition/hybrid.hpp"
#include "partition/solver.hpp"
#include "trace/affinity.hpp"
#include "trace/trace.hpp"

namespace memopt {

class JsonWriter;

/// Which clustering policy to apply before partitioning.
enum class ClusterMethod {
    None,       ///< partition the raw profile (1B-1's baseline)
    Frequency,  ///< hot-first block reordering
    Affinity,   ///< greedy temporal-affinity chain
};

/// Display name ("none", "frequency", "affinity").
std::string cluster_method_name(ClusterMethod method);

/// The method a display name names, or nullopt.
std::optional<ClusterMethod> parse_cluster_method(std::string_view name);

/// Flow configuration.
struct FlowParams {
    std::uint64_t block_size = 256;          ///< profile granularity [bytes]
    PartitionConstraints constraints;        ///< bank budget
    PartitionEnergyParams energy;            ///< technology + objective knobs
    AffinityClusterParams affinity;          ///< affinity-chain tuning
    std::size_t affinity_window = 32;        ///< co-access window [accesses]
    RemapTechnology remap;                   ///< remap-table technology
    bool use_greedy_solver = false;          ///< greedy instead of exact DP
    /// Profiles larger than this fall back to the greedy solver even when
    /// use_greedy_solver is false — the exact DP is O(N^2 K) and a 2 MiB
    /// span at 256 B blocks is where it stops being interactive.
    std::size_t auto_greedy_blocks = 4096;
};

/// Result of one flow configuration.
struct FlowResult {
    ClusterMethod method = ClusterMethod::None;
    AddressMap map;               ///< applied remap (identity for None)
    PartitionSolution solution;   ///< architecture in physical block space
    EnergyBreakdown energy;       ///< full breakdown incl. remap overhead
};

/// Result of one flow configuration over a hybrid bank pool.
struct HybridFlowResult {
    FlowResult base;                  ///< clustering + splits (SRAM oracle)
    BankPool pool;                    ///< the pool the banks were drawn from
    std::vector<MemTechnology> techs; ///< technology of each bank
    std::vector<std::size_t> heat_rank; ///< 0 = hottest bank (cluster/heat.hpp)
    HybridReport report;              ///< gated heterogeneous energy

    double total() const { return report.total(); }
};

/// Side-by-side evaluation of one trace under all configurations.
struct FlowComparison {
    EnergyBreakdown monolithic;   ///< single-bank baseline
    FlowResult partitioned;       ///< ClusterMethod::None
    FlowResult clustered;         ///< the requested clustering method

    /// Savings of clustering vs partitioning alone [%], the paper's metric.
    double clustering_savings_pct() const;
    /// Savings of partitioning alone vs monolithic [%].
    double partitioning_savings_pct() const;
};

/// The flow driver. Stateless apart from its parameters; thread-compatible.
class MemoryOptimizationFlow {
public:
    explicit MemoryOptimizationFlow(const FlowParams& params);

    const FlowParams& params() const { return params_; }

    /// Run one configuration off a chunked trace stream in O(chunk) trace
    /// memory (profiling and the affinity build replay the source; the
    /// trace is never materialized). Wrap an in-memory trace in a
    /// MaterializedSource; results do not depend on the chunking.
    FlowResult run(TraceSource& source, ClusterMethod method) const;

    /// Run one configuration on a pre-built profile (no affinity methods:
    /// Affinity requires the trace; throws if requested).
    FlowResult run(const BlockProfile& profile, ClusterMethod method) const;

    /// Hybrid-pool variant of run(): cluster and split as usual (bank
    /// budget capped by the pool size), replay the trace once to extract
    /// per-bank gating residency, then place the pool's technologies onto
    /// the banks with the exact assignment DP (partition/hybrid.hpp).
    /// Sequential and --jobs-invariant; resets `source` before replaying,
    /// so back-to-back pool evaluations on one source are independent.
    HybridFlowResult run_hybrid(TraceSource& source, ClusterMethod method,
                                const BankPool& pool,
                                const HybridGatingParams& gating = {}) const;

    /// Monolithic / partitioned / clustered comparison on one trace stream
    /// (see run()); Affinity replays the source once more after profiling
    /// to build the windowed affinity.
    FlowComparison compare(TraceSource& source,
                           ClusterMethod method = ClusterMethod::Frequency) const;

    /// Batch compare(): evaluate many in-memory traces concurrently on the
    /// parallel runtime (support/parallel.hpp), each through its own
    /// MaterializedSource. Results preserve input order and are
    /// bit-identical to a serial loop of compare() calls at any job count.
    /// `jobs == 0` means default_jobs() (the MEMOPT_JOBS knob).
    std::vector<FlowComparison> compare_all(
        std::span<const MemTrace* const> traces,
        ClusterMethod method = ClusterMethod::Frequency, std::size_t jobs = 0) const;

private:
    FlowParams params_;
};

/// Serialize one configuration: method, bank geometry, energy breakdown.
void to_json(JsonWriter& w, const FlowResult& result);

/// Serialize the monolithic/partitioned/clustered comparison with both
/// savings percentages.
void to_json(JsonWriter& w, const FlowComparison& cmp);

/// Serialize a hybrid-pool run: pool spec, per-bank technology/activity/
/// heat rank, and the gated energy breakdown.
void to_json(JsonWriter& w, const HybridFlowResult& result);

}  // namespace memopt
