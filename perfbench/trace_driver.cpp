// perfbench_trace — the benchmark's traced, in-process run of one workload.
//
// Makes the same public library calls that the workload's memopt_cli command
// makes, wraps each call in a span (name, start, end, parent), keeps the
// spans in memory and writes them out at exit as Chrome trace-event JSON
// (open in https://ui.perfetto.dev or chrome://tracing). Nothing inside the
// library is instrumented: every span sits around a public call.
//
// One repetition has this span tree:
//
//   rep
//     core.flow      one real MemoryOptimizationFlow / MultiCoreCacheSystem
//                    call, exactly the CLI path (opaque: no child spans)
//     core.layers    the same flow decomposed into its public layer calls
//       trace.* / cluster.* / partition.* / cache.*
//     probe          side measurements that are not part of the flow
//
// Layer metrics are self times (span duration minus its direct children),
// medians over the repetitions that fit in --seconds (at least one).
// core.unattributed_s = core.flow_s - sum of the core.layers children: the
// glue the decomposition does not time. Work counts come from the returned
// objects and from CountingSource; they must repeat exactly in every
// repetition, and the decomposed flow must reproduce the real flow's energy
// bit for bit.
//
//   perfbench_trace --kind compare|hybrid|cores --source SPEC [--jobs N]
//                   [--seconds S] [--spans FILE]
//   perfbench_trace --selftest
//
// Prints one JSON object on stdout; exit code 0 = consistent, 1 = a check
// failed, 2 = bad arguments or a library error.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "cache/mcache.hpp"
#include "cluster/affinity_cluster.hpp"
#include "cluster/frequency.hpp"
#include "cluster/remap_cost.hpp"
#include "core/flow.hpp"
#include "core/workload.hpp"
#include "partition/evaluate.hpp"
#include "partition/hybrid.hpp"
#include "partition/solver.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "trace/affinity.hpp"
#include "trace/source.hpp"
#include "trace/stream_file.hpp"

namespace {

using namespace memopt;

// ---------------------------------------------------------------- spans

struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;
};

/// In-memory span recorder for one thread (the driver is single-threaded
/// at span granularity; the library's own workers run inside spans).
class Tracer {
public:
    template <typename Fn>
    decltype(auto) span(const std::string& name, Fn&& fn) {
        const int id = static_cast<int>(spans_.size());
        spans_.push_back({name, stack_.empty() ? -1 : stack_.back(), now(), 0.0});
        stack_.push_back(id);
        const Closer closer{*this, id};
        return fn();
    }

    std::size_t mark() const { return spans_.size(); }

    double duration(std::size_t i) const { return spans_[i].end_s - spans_[i].start_s; }

    /// Duration of span i minus the durations of its direct children.
    double self_time(std::size_t i) const {
        double t = duration(i);
        for (std::size_t j = i + 1; j < spans_.size(); ++j)
            if (spans_[j].parent == static_cast<int>(i)) t -= duration(j);
        return t;
    }

    /// Sum of self times of the spans named `name` recorded since `from`.
    double self_time(const std::string& name, std::size_t from) const {
        double t = 0.0;
        for (std::size_t i = from; i < spans_.size(); ++i)
            if (spans_[i].name == name) t += self_time(i);
        return t;
    }

    /// Sum of durations of the direct children of the first span named
    /// `name` recorded since `from`.
    double children_time(const std::string& name, std::size_t from) const {
        for (std::size_t i = from; i < spans_.size(); ++i)
            if (spans_[i].name == name) return duration(i) - self_time(i);
        return 0.0;
    }

    double total(const std::string& name, std::size_t from) const {
        double t = 0.0;
        for (std::size_t i = from; i < spans_.size(); ++i)
            if (spans_[i].name == name) t += duration(i);
        return t;
    }

    /// Chrome trace-event "complete" events, microsecond timestamps.
    void write_chrome(const std::string& path) const {
        std::ofstream out(path);
        out << "{\"traceEvents\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            char buf[256];
            std::snprintf(buf, sizeof buf,
                          "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                          "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                          "\"parent\": %d, \"self_us\": %.3f}}%s\n",
                          s.name.c_str(), s.start_s * 1e6, duration(i) * 1e6, i, s.parent,
                          self_time(i) * 1e6, i + 1 < spans_.size() ? "," : "");
            out << buf;
        }
        out << "], \"displayTimeUnit\": \"ms\"}\n";
    }

private:
    struct Closer {
        Tracer& tracer;
        int id;
        ~Closer() {
            tracer.spans_[static_cast<std::size_t>(id)].end_s = tracer.now();
            tracer.stack_.pop_back();
        }
    };

    double now() const {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_).count();
    }

    std::chrono::steady_clock::time_point origin_ = std::chrono::steady_clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

// ---------------------------------------------------------------- work counts

/// Forwarding TraceSource that counts replay passes and delivered
/// accesses. Forwards stable_chunks() so the library picks the same replay
/// strategy as on the wrapped source. A header-seeded source (.mtsc) lends
/// its summary, as it costs no pass; on any other source the summary is
/// computed by the base class's streaming pass through this wrapper, so
/// that pass is counted like every other.
class CountingSource final : public TraceSource {
public:
    explicit CountingSource(TraceSource& inner) : inner_(inner) {
        if (dynamic_cast<MmapBinarySource*>(&inner) != nullptr) set_summary(inner.summary());
    }

    std::uint64_t size() const override { return inner_.size(); }
    bool stable_chunks() const override { return inner_.stable_chunks(); }
    bool next(TraceChunk& chunk) override {
        const bool more = inner_.next(chunk);
        if (more && at_start_) {
            ++passes_;
            at_start_ = false;
        }
        if (more) accesses_ += chunk.size();
        return more;
    }
    void reset() override {
        inner_.reset();
        at_start_ = true;
    }

    std::uint64_t passes() const { return passes_; }
    std::uint64_t accesses() const { return accesses_; }

private:
    TraceSource& inner_;
    bool at_start_ = true;
    std::uint64_t passes_ = 0;
    std::uint64_t accesses_ = 0;
};

void drain(TraceSource& source) {
    source.reset();
    TraceChunk chunk;
    while (source.next(chunk)) {
    }
}

/// Peak resident set size of this process so far [MiB].
double peak_rss_mib() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ---------------------------------------------------------------- workloads

/// The bank pool of mtsc-hybrid-4k and the core count of coherence-4c.
/// perfbench/run.py passes the same values to memopt_cli; the energy
/// bit-identity check against the CLI catches any mismatch.
constexpr const char* kPool = "sram=2,sttmram=6";
constexpr unsigned kCores = 4;

struct Options {
    std::string kind;
    std::string source;
    std::size_t jobs = 0;
    double seconds = 1.0;
    std::string spans;
};

/// One repetition's outputs: timings (median-reduced), peak-RSS rises
/// (max-reduced: only the first repetition can raise the process peak),
/// work counts (must repeat exactly) and the energies of the real and
/// decomposed flows.
struct RepResult {
    std::map<std::string, double> times;
    std::map<std::string, double> peaks;
    std::map<std::string, double> counts;
    double flow_energy_pj = 0.0;
    double layers_energy_pj = 0.0;
};

/// The flow parameters memopt_cli's `partition` command uses by default
/// (--block 256, --banks 4).
FlowParams cli_flow_params() {
    FlowParams fp;
    fp.block_size = 256;
    fp.constraints.max_banks = 4;
    return fp;
}

PartitionEnergyParams clustered_energy_params(const FlowParams& fp, std::size_t blocks) {
    PartitionEnergyParams ep = fp.energy;
    ep.extra_pj_per_access = RemapTableModel(blocks, fp.remap).lookup_energy();
    return ep;
}

/// `partition --trace-stream SPEC --cluster affinity`: FlowComparison.
RepResult rep_compare(Tracer& tr, const Options& opt) {
    const FlowParams fp = cli_flow_params();
    const MemoryOptimizationFlow flow(fp);
    WorkloadRepository& repo = WorkloadRepository::instance();
    const std::size_t from = tr.mark();
    RepResult r;

    // The decomposed flow runs first: its affinity build is then the first
    // to raise the process's peak RSS, which trace.affinity_rss_mb reads.
    tr.span("core.layers", [&] {
        const std::unique_ptr<TraceSource> src = repo.open_trace_source(opt.source);
        tr.span("trace.summary", [&] { src->summary(); });
        const BlockProfile profile = tr.span(
            "trace.profile", [&] { return BlockProfile::from_source(*src, fp.block_size); });
        tr.span("partition.eval", [&] { return evaluate_monolithic(profile, fp.energy); });
        const double peak_before = peak_rss_mib();
        const AffinityMatrix affinity = tr.span("trace.affinity", [&] {
            return windowed_affinity(*src, profile, fp.affinity_window);
        });
        r.peaks["trace.affinity_rss_mb"] = peak_rss_mib() - peak_before;
        r.counts["trace.affinity_pairs"] = static_cast<double>(affinity.stored_pairs());

        const auto solve = [&](const BlockProfile& p, const PartitionEnergyParams& ep) {
            const bool greedy = fp.use_greedy_solver || p.num_blocks() > fp.auto_greedy_blocks;
            return greedy ? solve_partition_greedy(p, fp.constraints, ep)
                          : solve_partition_optimal(p, fp.constraints, ep);
        };
        tr.span("partition.solve", [&] { return solve(profile, fp.energy); });
        const AddressMap map = tr.span("cluster.affinity", [&] {
            return affinity_clustering(profile, affinity, fp.affinity);
        });
        const BlockProfile physical = map.apply(profile);
        const PartitionEnergyParams ep = clustered_energy_params(fp, physical.num_blocks());
        const PartitionSolution clustered =
            tr.span("partition.solve", [&] { return solve(physical, ep); });
        r.layers_energy_pj = clustered.energy.total();
        r.counts["cluster.blocks"] = static_cast<double>(profile.num_blocks());
        r.counts["partition.blocks"] = static_cast<double>(physical.num_blocks());
    });

    tr.span("core.flow", [&] {
        const std::unique_ptr<TraceSource> src = repo.open_trace_source(opt.source);
        CountingSource counted(*src);
        const FlowComparison cmp = flow.compare(counted, ClusterMethod::Affinity);
        r.flow_energy_pj = cmp.clustered.energy.total();
        r.counts["trace.replay_passes"] = static_cast<double>(counted.passes());
        r.counts["trace.accesses_replayed"] = static_cast<double>(counted.accesses());
    });

    for (const char* name : {"trace.summary", "trace.profile", "trace.affinity",
                             "cluster.affinity", "partition.solve", "partition.eval"})
        r.times[std::string(name) + "_s"] = tr.self_time(name, from);
    return r;
}

/// `partition --trace-stream FILE.mtsc --cluster frequency --bank-pool POOL`.
RepResult rep_hybrid(Tracer& tr, const Options& opt) {
    const FlowParams fp = cli_flow_params();
    const MemoryOptimizationFlow flow(fp);
    const BankPool pool = BankPool::parse(kPool);
    const HybridGatingParams gating;  // the CLI defaults: gate after 200 idle cycles
    WorkloadRepository& repo = WorkloadRepository::instance();
    const std::size_t from = tr.mark();
    RepResult r;

    tr.span("core.flow", [&] {
        const std::unique_ptr<TraceSource> src = repo.open_trace_source(opt.source);
        CountingSource counted(*src);
        const HybridFlowResult result =
            flow.run_hybrid(counted, ClusterMethod::Frequency, pool, gating);
        r.flow_energy_pj = result.total();
        r.counts["trace.replay_passes"] = static_cast<double>(counted.passes());
        r.counts["trace.accesses_replayed"] = static_cast<double>(counted.accesses());
    });

    const std::unique_ptr<TraceSource> src = repo.open_trace_source(opt.source);
    tr.span("core.layers", [&] {
        tr.span("trace.summary", [&] { src->summary(); });
        tr.span("trace.mtsc_first_pass", [&] { drain(*src); });
        const BlockProfile profile = tr.span(
            "trace.profile", [&] { return BlockProfile::from_source(*src, fp.block_size); });
        const AddressMap map =
            tr.span("cluster.frequency", [&] { return frequency_clustering(profile); });
        const BlockProfile physical = map.apply(profile);
        const PartitionEnergyParams ep = clustered_energy_params(fp, physical.num_blocks());
        const bool greedy =
            fp.use_greedy_solver || physical.num_blocks() > fp.auto_greedy_blocks;
        const PartitionSolution solution = tr.span("partition.solve", [&] {
            return solve_partition_pooled(physical, fp.constraints, ep, pool.total_banks(),
                                          greedy);
        });
        const std::vector<BankActivity> activity = tr.span("partition.hybrid_replay", [&] {
            return replay_bank_activity(solution.arch, map, *src, gating,
                                        fp.energy.runtime_cycles);
        });
        const HybridReport report = tr.span("partition.assign", [&] {
            const std::vector<MemTechnology> techs =
                assign_technologies(solution.arch, activity, pool, ep, gating);
            return evaluate_partition_hybrid(solution.arch, techs, activity, ep, gating);
        });
        r.layers_energy_pj = report.total();
        r.counts["cluster.blocks"] = static_cast<double>(profile.num_blocks());
        r.counts["partition.blocks"] = static_cast<double>(physical.num_blocks());
    });
    tr.span("probe", [&] { tr.span("trace.mtsc_reread", [&] { drain(*src); }); });
    r.counts["trace.mtsc_bytes"] = static_cast<double>(std::filesystem::file_size(opt.source));

    for (const char* name : {"trace.summary", "trace.mtsc_first_pass", "trace.mtsc_reread",
                             "trace.profile", "cluster.frequency", "partition.solve",
                             "partition.hybrid_replay", "partition.assign"})
        r.times[std::string(name) + "_s"] = tr.self_time(name, from);
    return r;
}

/// `run SPEC --cores N`: the coherent multi-core cache replay.
RepResult rep_cores(Tracer& tr, const Options& opt) {
    MultiCoreConfig config;
    config.cores = kCores;
    WorkloadRepository& repo = WorkloadRepository::instance();
    const std::size_t from = tr.mark();
    RepResult r;

    tr.span("core.flow", [&] {
        MultiCoreCacheSystem system(config);
        const auto sources = repo.open_core_trace_sources(opt.source, config.cores);
        system.replay(sources);
        system.flush();
        r.flow_energy_pj = system.energy().total();
    });

    tr.span("core.layers", [&] {
        MultiCoreCacheSystem system(config);
        const auto sources = repo.open_core_trace_sources(opt.source, config.cores);
        tr.span("cache.replay", [&] { system.replay(sources); });
        tr.span("cache.flush", [&] { system.flush(); });
        r.layers_energy_pj = system.energy().total();
        r.counts["cache.l1_accesses"] = static_cast<double>(system.l1_totals().accesses());
        r.counts["cache.l2_accesses"] = static_cast<double>(system.l2_totals().accesses());
        r.counts["cache.coherence_messages"] =
            static_cast<double>(system.directory().stats().messages());
        r.counts["cache.line_fetches"] = static_cast<double>(system.traffic().line_fetches);
    });

    double accesses = 0.0;
    tr.span("probe", [&] {
        const auto sources = repo.open_core_trace_sources(opt.source, config.cores);
        tr.span("cache.source", [&] {
            for (const auto& s : sources) {
                drain(*s);
                accesses += static_cast<double>(s->size());
            }
        });
    });

    for (const char* name : {"cache.replay", "cache.flush", "cache.source"})
        r.times[std::string(name) + "_s"] = tr.self_time(name, from);
    r.times["cache.ns_per_access"] =
        (r.times["cache.replay_s"] - r.times["cache.source_s"]) / accesses * 1e9;
    return r;
}

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string fmt(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

int run_workload(const Options& opt) {
    const std::function<RepResult(Tracer&, const Options&)> rep =
        opt.kind == "compare"  ? rep_compare
        : opt.kind == "hybrid" ? rep_hybrid
        : opt.kind == "cores"  ? rep_cores
                               : nullptr;
    if (!rep) {
        std::fprintf(stderr, "error: --kind must be compare, hybrid or cores\n");
        return 2;
    }
    if (opt.jobs > 0) set_default_jobs(opt.jobs);

    Tracer tr;
    std::vector<RepResult> reps;
    std::map<std::string, std::vector<double>> samples;
    std::map<std::string, double> peaks;
    bool consistent = true;
    do {
        const std::size_t from = tr.mark();
        RepResult r = tr.span("rep", [&] { return rep(tr, opt); });
        r.times["core.flow_s"] = tr.total("core.flow", from);
        r.times["core.unattributed_s"] =
            r.times["core.flow_s"] - tr.children_time("core.layers", from);
        r.times["core.layers_s"] = tr.total("core.layers", from);
        if (r.layers_energy_pj != r.flow_energy_pj) consistent = false;
        if (!reps.empty() && (r.counts != reps.front().counts ||
                              r.flow_energy_pj != reps.front().flow_energy_pj))
            consistent = false;
        for (const auto& [name, value] : r.times) samples[name].push_back(value);
        for (const auto& [name, value] : r.peaks) peaks[name] = std::max(peaks[name], value);
        reps.push_back(std::move(r));
    } while (tr.total("rep", 0) < opt.seconds);

    if (!opt.spans.empty()) tr.write_chrome(opt.spans);

    std::ostringstream out;
    out << "{\"consistent\": " << (consistent ? "true" : "false")
        << ", \"repetitions\": " << reps.size()
        << ", \"energy_pj\": " << fmt(reps.front().flow_energy_pj) << ", \"metrics\": {";
    const char* sep = "";
    for (const auto& [name, values] : samples) {
        out << sep << "\"" << name << "\": " << fmt(median(values));
        sep = ", ";
    }
    for (const auto* values : {&peaks, &reps.front().counts})
        for (const auto& [name, value] : *values) out << sep << "\"" << name << "\": " << fmt(value);
    out << "}}";
    std::puts(out.str().c_str());
    return consistent ? 0 : 1;
}

// ---------------------------------------------------------------- self-test

template <typename T>
std::string json_of(const T& value) {
    std::ostringstream os;
    JsonWriter w(os);
    to_json(w, value);
    return os.str();
}

/// CountingSource must leave replay results bit-identical: run each flow
/// on a small synthetic source with and without the wrapper and compare the
/// serialized results byte for byte.
int selftest() {
    const std::string spec =
        "hotspot,span=1048576,n=200000,seed=3,hotspots=8,hotspot-bytes=1024,hot-frac=0.9";
    const MemoryOptimizationFlow flow(cli_flow_params());
    const BankPool pool = BankPool::parse(kPool);
    bool ok = true;
    const auto check = [&](const char* what, bool pass) {
        std::printf("%s %s\n", pass ? "ok  " : "FAIL", what);
        ok = ok && pass;
    };

    SyntheticSource plain(parse_synthetic_spec(spec));
    SyntheticSource inner(parse_synthetic_spec(spec));
    CountingSource counted(inner);
    check("compare(affinity) identical through CountingSource",
          json_of(flow.compare(plain, ClusterMethod::Affinity)) ==
              json_of(flow.compare(counted, ClusterMethod::Affinity)));
    check("compare(affinity) replays the trace 3 times (summary, profile, affinity)",
          counted.passes() == 3 && counted.accesses() == 3 * inner.size());

    SyntheticSource plain_h(parse_synthetic_spec(spec));
    SyntheticSource inner_h(parse_synthetic_spec(spec));
    CountingSource counted_h(inner_h);
    check("run_hybrid(frequency) identical through CountingSource",
          json_of(flow.run_hybrid(plain_h, ClusterMethod::Frequency, pool)) ==
              json_of(flow.run_hybrid(counted_h, ClusterMethod::Frequency, pool)));
    check("run_hybrid(frequency) replays the trace 3 times (summary, profile, gating)",
          counted_h.passes() == 3 && counted_h.accesses() == 3 * inner_h.size());
    return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        Options opt;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--selftest") return selftest();
            if (i + 1 >= argc) throw std::runtime_error("option " + arg + " needs a value");
            const std::string value = argv[++i];
            if (arg == "--kind") opt.kind = value;
            else if (arg == "--source") opt.source = value;
            else if (arg == "--jobs") opt.jobs = std::stoul(value);
            else if (arg == "--seconds") opt.seconds = std::stod(value);
            else if (arg == "--spans") opt.spans = value;
            else throw std::runtime_error("unknown option " + arg);
        }
        return run_workload(opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}
