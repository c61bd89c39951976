// memopt_cli — command-line driver for the toolkit.
//
// Lets a user exercise every pipeline from the shell without writing C++:
//
//   memopt_cli kernels
//   memopt_cli run <kernel>
//   memopt_cli disasm <kernel>
//   memopt_cli cc <file.arc> [--emit asm|run]
//   memopt_cli trace <source> <out-file>          (.mtsc = stream container,
//                        else text; `source` is a kernel, a trace file, or
//                        "synthetic:<kind>[,k=v]...")
//   memopt_cli partition <source> [--banks N] [--block BYTES]
//                        [--cluster none|frequency|affinity]
//                        [--trace-stream SPEC] [--chunk-size N]
//   memopt_cli compress <kernel> [--platform vliw|risc]
//                        [--codec diff|zero-run|bdi|dictionary]
//   memopt_cli encode <kernel> [--gates N]
//   memopt_cli schedule [--seed N]
//   memopt_cli study <kernel>
//   memopt_cli study all [--checkpoint PATH [--resume] [--checkpoint-every N]]
//   memopt_cli fault <kernel> [--protection none|parity|secded]
//                    [--codec none|diff|zero-run|bdi|dictionary]
//                    [--rate R] [--trials N] [--seed S] [--drowsy F]
//                    [--line BYTES]
//                    [--checkpoint PATH [--resume] [--checkpoint-every N]]
//
// Exit codes: 0 = success, 1 = usage error (bad command line),
// 2 = data or environment error (memopt::Error — missing kernel, unreadable
// file, malformed trace, ...), 3 = interrupted (deadline or signal; partial
// results were checkpointed / reported, rerun with --resume to continue).
//
// Every command accepts a global `--jobs N` option bounding the worker
// threads of the parallel runtime (equivalent to MEMOPT_JOBS=N; jobs=1 is
// fully serial). Results are bit-identical at any job count. Any option a
// command does not read is a usage error, as is a negative count; so is an
// option only another path of the command reads (--l2-banks without
// --cores, --gate-idle without --bank-pool, --compress without a .mtsc
// output).
//
// `partition` replays its source (the positional argument, or the same
// spec given as `--trace-stream SPEC`: a kernel, a text trace file, an
// .mtsc container or a synthetic: spec) as a chunked trace stream.
// Synthetic specs and .mtsc files are never materialized — out-of-core
// traces run in O(chunk) memory — and the report is bit-identical at any
// --jobs and --chunk-size.
//
// `run`, `partition`, `compress`, `encode` and `study` also accept
// `--json FILE`: the command's results are exported as one
// "memopt.report.v1" document (see DESIGN.md) alongside the usual text
// output. The "results" section is deterministic; wall-clock timers live
// in the separate "metrics" section (set MEMOPT_JSON_METRICS=0 to omit it
// when byte-diffing documents). The document is published crash-safely:
// bytes stage into FILE.tmp and rename onto FILE only once complete.
//
// Long runs are resilient: `fault --checkpoint PATH` (and `study all
// --checkpoint PATH`) snapshots completed work into a memopt.ckpt.v1 file,
// `--resume` picks it back up bit-identically, and the global
// `--deadline-sec S` arms a cooperative watchdog that (together with
// SIGINT/SIGTERM) stops the run at the next unit boundary, checkpoints,
// reports `"partial": true`, and exits with code 3 (DESIGN.md §9).
// --resume, --checkpoint-every and --ckpt-max-units (a deterministic stop
// after N new units) need --checkpoint PATH.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cache/mcache.hpp"
#include "cache/platform.hpp"
#include "compress/bdi_codec.hpp"
#include "compress/dictionary_codec.hpp"
#include "compress/diff_codec.hpp"
#include "compress/zero_run.hpp"
#include "core/flow.hpp"
#include "core/report.hpp"
#include "core/study.hpp"
#include "core/symbolize.hpp"
#include "core/workload.hpp"
#include "isa/disasm.hpp"
#include "lang/codegen.hpp"
#include "encoding/decoder_cost.hpp"
#include "encoding/search.hpp"
#include "fault/campaign.hpp"
#include "partition/hybrid.hpp"
#include "sched/scheduler.hpp"
#include "sim/kernels.hpp"
#include "support/assert.hpp"
#include "support/bits.hpp"
#include "support/durable/atomic_file.hpp"
#include "support/durable/cancel.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"
#include "trace/io.hpp"
#include "trace/source.hpp"
#include "trace/stream_file.hpp"

namespace {

using namespace memopt;

/// A bad command line (unknown command, malformed option, missing
/// argument). Exits with code 1, as opposed to data/environment errors
/// (memopt::Error), which exit with code 2.
struct UsageError : Error {
    using Error::Error;
};

void usage_require(bool condition, const std::string& message) {
    if (!condition) throw UsageError(message);
}

/// Why `fault` or `study all` stopped early (exit code 3); main() records
/// it in the JSON envelope as "reason" next to "partial": true.
std::string g_partial_reason;

/// MEMOPT_JSON_METRICS=0 omits the wall-clock "metrics" section from --json
/// documents so resumed and uninterrupted runs can be byte-diffed.
bool json_metrics_enabled() {
    const char* env = std::getenv("MEMOPT_JSON_METRICS");
    return env == nullptr || std::strcmp(env, "0") != 0;
}

/// Minimal partial document for runs cancelled outside the checkpointed
/// driver (the staged envelope was discarded mid-value): same schema,
/// "results": null, "partial": true. Written crash-safely like any
/// final artifact.
void write_partial_json(const std::string& path, const std::string& command,
                        const std::string& target, const std::string& reason) {
    std::ostringstream doc;
    JsonWriter w(doc);
    w.begin_object();
    w.member("schema", command == "fault" ? "memopt.fault.v1" : "memopt.report.v1");
    w.member("command", command);
    w.member("target", target);
    w.key("results").null();
    w.member("partial", true);
    w.member("reason", reason);
    w.end_object();
    atomic_write(path, doc.str() + "\n");
}

/// The options each command reads. The globals --jobs, --json and
/// --deadline-sec are accepted by every command; any other option is a
/// usage error, so a misspelled option never falls back to its default.
const std::map<std::string, std::set<std::string>> kCommandOptions = {
    {"kernels", {}},
    {"run", {"cores", "l2-banks", "chunk-size"}},
    {"disasm", {}},
    {"cc", {"emit"}},
    {"trace", {"chunk-size", "compress"}},
    {"partition",
     {"trace-stream", "chunk-size", "block", "banks", "cluster", "bank-pool", "gate-idle",
      "gate-leak-scale"}},
    {"compress", {"platform", "codec"}},
    {"encode", {"gates"}},
    {"schedule", {"seed"}},
    {"study", {"checkpoint", "resume", "checkpoint-every", "ckpt-max-units"}},
    {"fault",
     {"seed", "trials", "rate", "line", "protection", "codec", "drowsy", "checkpoint", "resume",
      "checkpoint-every", "ckpt-max-units"}},
};
const std::set<std::string> kGlobalOptions = {"jobs", "json", "deadline-sec"};

/// Trivial "--key value" option parser; positional args stay in order.
struct Args {
    std::vector<std::string> positional;
    std::map<std::string, std::string> options;

    static Args parse(int argc, char** argv, int first) {
        Args args;
        for (int i = first; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg.rfind("--", 0) == 0) {
                // Valueless flags; everything else is "--key value".
                if (arg == "--resume") {
                    args.options["resume"] = "1";
                    continue;
                }
                usage_require(i + 1 < argc, "option " + arg + " needs a value");
                args.options[arg.substr(2)] = argv[++i];
            } else {
                args.positional.push_back(arg);
            }
        }
        return args;
    }

    std::string get(const std::string& key, const std::string& fallback) const {
        const auto it = options.find(key);
        return it == options.end() ? fallback : it->second;
    }

    std::int64_t get_int(const std::string& key, std::int64_t fallback) const {
        const auto it = options.find(key);
        if (it == options.end()) return fallback;
        const auto v = parse_int(it->second);
        usage_require(v.has_value(), "option --" + key + " expects an integer");
        return *v;
    }

    /// A count: a non-negative integer that fits `T`, never wrapped through
    /// the unsigned conversion.
    template <typename T>
    T get_count(const std::string& key, T fallback) const {
        const auto it = options.find(key);
        if (it == options.end()) return fallback;
        const auto v = parse_int(it->second);
        usage_require(v.has_value() && *v >= 0,
                      "option --" + key + " expects a non-negative count");
        if constexpr (sizeof(T) < sizeof(std::int64_t)) {
            usage_require(*v <= std::int64_t{std::numeric_limits<T>::max()},
                          "option --" + key + " expects a count of at most " +
                              std::to_string(std::numeric_limits<T>::max()));
        }
        return static_cast<T>(*v);
    }

    double get_double(const std::string& key, double fallback) const {
        const auto it = options.find(key);
        if (it == options.end()) return fallback;
        char* end = nullptr;
        const double v = std::strtod(it->second.c_str(), &end);
        usage_require(end != it->second.c_str() && *end == '\0',
                      "option --" + key + " expects a number");
        return v;
    }

    /// Options the command knows but the path this command line takes does
    /// not read are usage errors, never silently ignored: `needs` names
    /// what would make the command read them.
    void reject_unread(const std::string& command, std::initializer_list<const char*> keys,
                       const std::string& needs) const {
        for (const char* key : keys)
            usage_require(options.count(key) == 0,
                          command + ": --" + key + " requires " + needs);
    }
};

int usage() {
    std::puts("usage: memopt_cli <command> [args]\n"
              "  kernels                                list bundled kernels\n"
              "  run <kernel>                           simulate and print stats\n"
              "  run <kernel|file|synthetic:...> --cores N\n"
              "            [--l2-banks N] [--chunk-size N]\n"
              "                                         N-core coherent cache replay\n"
              "                                         (private L1s + banked L2 + MSI)\n"
              "  disasm <kernel>                        annotated program listing\n"
              "  cc <file.arc> [--emit asm|run]         compile arclang and emit/run\n"
              "  trace <source> <file>                  dump a data trace (<file>.mtsc:\n"
              "        [--chunk-size N] [--compress 1]  stream container, else text);\n"
              "                                         source is a kernel, a trace\n"
              "                                         file, or synthetic:<kind>[,k=v]...\n"
              "  partition <source> [--banks N] [--block BYTES]\n"
              "            [--cluster none|frequency|affinity]\n"
              "            [--trace-stream SPEC] [--chunk-size N]\n"
              "            [--bank-pool SPEC]                hybrid pool, e.g.\n"
              "                                              sram=2,sttmram=6 (techs: sram,\n"
              "                                              edram, sttmram, drowsy)\n"
              "            [--gate-idle N]                   idle cycles before a bank is\n"
              "                                              power-gated (0 = never gate)\n"
              "            [--gate-leak-scale X]             scale gated leakage (ablation)\n"
              "  compress <kernel> [--platform vliw|risc]\n"
              "            [--codec diff|zero-run|bdi|dictionary]\n"
              "  encode <kernel> [--gates N]\n"
              "  schedule [--seed N]\n"
              "  study <kernel>                         all optimizations, one report\n"
              "  study all [--checkpoint PATH [--resume] [--checkpoint-every N]]\n"
              "                                         whole-suite study, in parallel\n"
              "  fault <kernel> [--protection none|parity|secded]\n"
              "            [--codec none|diff|zero-run|bdi|dictionary] [--rate R]\n"
              "            [--trials N] [--seed S] [--drowsy F] [--line BYTES]\n"
              "            [--checkpoint PATH [--resume] [--checkpoint-every N]]\n"
              "global options:\n"
              "  --jobs N                               worker threads (0 = use default:\n"
              "                                         MEMOPT_JOBS or hardware; 1 = fully\n"
              "                                         serial)\n"
              "  --json FILE                            also write a memopt.report.v1 JSON\n"
              "                                         document (run/partition/compress/\n"
              "                                         encode/study/fault; fault exports\n"
              "                                         memopt.fault.v1); crash-safe\n"
              "                                         staged write, MEMOPT_JSON_METRICS=0\n"
              "                                         omits the metrics section\n"
              "  --deadline-sec S                       cooperative watchdog: stop at the\n"
              "                                         next unit boundary after S seconds\n"
              "                                         (0 stops at the first boundary),\n"
              "                                         checkpoint, report partial, exit 3\n"
              "  --checkpoint PATH / --resume           durable progress for fault and\n"
              "  --checkpoint-every N                   study all (memopt.ckpt.v1 file);\n"
              "                                         resumed runs are bit-identical to\n"
              "                                         uninterrupted ones at any --jobs;\n"
              "                                         --resume and --checkpoint-every\n"
              "                                         need --checkpoint PATH\n"
              "exit codes:\n"
              "  0 success   1 usage error   2 data or environment error\n"
              "  3 interrupted by --deadline-sec or SIGINT/SIGTERM (partial results\n"
              "    checkpointed; rerun with --resume)");
    return 1;
}

int cmd_kernels() {
    for (const Kernel& k : kernel_suite()) std::printf("%-10s %s\n", k.name.c_str(),
                                                       k.description.c_str());
    return 0;
}

// `run ... --cores N`: replay one trace stream per core through the
// coherent multi-core cache system and report per-core stats, coherence
// traffic, and the energy breakdown.
int cmd_run_cores(const Args& args, JsonWriter* jw) {
    const std::string spec = args.positional[0];
    MultiCoreConfig config;
    config.cores = args.get_count<unsigned>("cores", 4);
    usage_require(config.cores >= 1 && config.cores <= 64,
                  "run: --cores expects a count in [1, 64]");
    config.l2_banks = args.get_count<unsigned>("l2-banks", 4);
    usage_require(config.l2_banks >= 1, "run: --l2-banks expects a positive count");
    const auto chunk = args.get_count<std::size_t>("chunk-size", 0);

    MultiCoreCacheSystem system(config);
    const std::vector<std::unique_ptr<TraceSource>> sources =
        WorkloadRepository::instance().open_core_trace_sources(spec, config.cores, chunk);
    system.replay(sources);
    system.flush();

    std::printf("cores        : %u  (L2 banks: %u)\n", config.cores, config.l2_banks);
    for (unsigned c = 0; c < system.cores(); ++c) {
        const CacheStats& s = system.l1(c).stats();
        std::printf("  core %-2u L1 : %8llu R / %8llu W, miss rate %5.2f%%\n", c,
                    (unsigned long long)(s.read_hits + s.read_misses),
                    (unsigned long long)(s.write_hits + s.write_misses),
                    100.0 * s.miss_rate());
    }
    const CacheStats l2 = system.l2_totals();
    std::printf("L2 (all banks): %llu accesses, miss rate %5.2f%%\n",
                (unsigned long long)l2.accesses(), 100.0 * l2.miss_rate());
    const CoherenceStats& cs = system.directory().stats();
    std::printf("coherence    : %llu invalidations, %llu downgrades, %llu upgrades,\n"
                "               %llu owner flushes (%llu messages, %llu dirty transfers)\n",
                (unsigned long long)cs.invalidations, (unsigned long long)cs.downgrades,
                (unsigned long long)cs.upgrades, (unsigned long long)cs.owner_flushes,
                (unsigned long long)cs.messages(), (unsigned long long)cs.dirty_transfers());
    std::printf("memory       : %llu line fetches, %llu line writes\n",
                (unsigned long long)system.traffic().line_fetches,
                (unsigned long long)system.traffic().line_writes);
    system.energy().print(std::cout, "energy:");
    if (jw != nullptr) to_json(*jw, system);
    return 0;
}

int cmd_run(const Args& args, JsonWriter* jw) {
    usage_require(!args.positional.empty(), "run: missing kernel name");
    if (args.options.count("cores") != 0) return cmd_run_cores(args, jw);
    args.reject_unread("run", {"l2-banks", "chunk-size"}, "--cores N");
    const KernelRunPtr artifact =
        WorkloadRepository::instance().run(args.positional[0], /*fetch=*/true);
    const AssembledProgram& program = artifact->program;
    const RunResult& r = artifact->result;
    std::printf("instructions : %llu\n", (unsigned long long)r.instructions);
    std::printf("cycles       : %llu\n", (unsigned long long)r.cycles);
    std::printf("data accesses: %zu (%llu R / %llu W)\n", r.data_trace.size(),
                (unsigned long long)r.data_trace.summary().reads,
                (unsigned long long)r.data_trace.summary().writes);
    std::printf("outputs      :");
    for (std::uint32_t v : r.output) std::printf(" 0x%08x", v);
    std::printf("\nhot symbols  :\n");
    const auto traffic = symbolize_trace(program, r.data_trace);
    for (std::size_t i = 0; i < traffic.size() && i < 6; ++i) {
        const SymbolTraffic& t = traffic[i];
        std::printf("  %-12s %6llu R %6llu W  (%4.1f%% of accesses)\n", t.name.c_str(),
                    (unsigned long long)t.reads, (unsigned long long)t.writes,
                    100.0 * double(t.total()) / double(r.data_trace.size()));
    }
    if (jw != nullptr) {
        jw->begin_object();
        jw->member("kernel", artifact->name);
        jw->member("instructions", r.instructions);
        jw->member("cycles", r.cycles);
        jw->member("data_accesses", static_cast<std::uint64_t>(r.data_trace.size()));
        jw->member("reads", r.data_trace.summary().reads);
        jw->member("writes", r.data_trace.summary().writes);
        jw->key("outputs").begin_array();
        for (std::uint32_t v : r.output) jw->value(v);
        jw->end_array();
        jw->key("symbols").begin_array();
        for (const SymbolTraffic& t : traffic) {
            jw->begin_object();
            jw->member("name", t.name);
            jw->member("reads", t.reads);
            jw->member("writes", t.writes);
            jw->end_object();
        }
        jw->end_array();
        jw->end_object();
    }
    return 0;
}

int cmd_disasm(const Args& args) {
    usage_require(!args.positional.empty(), "disasm: missing kernel name");
    const AssembledProgram program = assemble(kernel_by_name(args.positional[0]).source);
    std::fputs(disassemble_program(program).c_str(), stdout);
    return 0;
}

int cmd_cc(const Args& args) {
    usage_require(!args.positional.empty(), "cc: missing source file");
    std::ifstream in(args.positional[0]);
    require(in.is_open(), "cc: cannot open '" + args.positional[0] + "'");
    std::string source((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
    const std::string mode = args.get("emit", "run");
    if (mode == "asm") {
        std::fputs(lang::compile_to_asm(source).c_str(), stdout);
        return 0;
    }
    usage_require(mode == "run", "cc: --emit must be 'asm' or 'run'");
    const AssembledProgram program = lang::compile(source);
    const RunResult r = Cpu(CpuConfig{}).run(program);
    std::printf("instructions : %llu\n", (unsigned long long)r.instructions);
    std::printf("outputs      :");
    for (std::uint32_t v : r.output) std::printf(" 0x%08x", v);
    std::printf("\n");
    return 0;
}

int cmd_trace(const Args& args) {
    usage_require(args.positional.size() >= 2, "trace: need <source> <file>");
    const std::string& out = args.positional[1];
    const auto chunk = args.get_count<std::size_t>("chunk-size", 0);
    const std::int64_t compress = args.get_int("compress", 0);
    usage_require(compress == 0 || compress == 1, "trace: --compress expects 0 or 1");
    if (!out.ends_with(".mtsc")) args.reject_unread("trace", {"compress"}, "a .mtsc output file");
    reject_retired_trace_format(out);
    // The source is never materialized: a synthetic:... spec of 10^8
    // accesses streams straight into the output file in O(chunk) memory.
    const std::unique_ptr<TraceSource> source =
        WorkloadRepository::instance().open_trace_source(args.positional[0], chunk);

    // The extension picks the format, the same rule open_trace_source
    // reads files back with.
    if (out.ends_with(".mtsc")) {
        StreamWriteOptions opts;
        if (chunk > 0) opts.chunk_accesses = chunk;
        opts.compress = compress == 1;
        const TraceSummary sum = write_trace_stream(out, *source, opts);
        std::printf("wrote %llu accesses to %s (mtsc%s)\n",
                    (unsigned long long)sum.accesses, out.c_str(),
                    opts.compress ? ", compressed" : "");
        return 0;
    }
    atomic_write(out, [&](std::ostream& os) {
        write_trace_text(os, *source);
        require(os.good(), "trace: write failed for '" + out + "'");
    });
    std::printf("wrote %llu accesses to %s (text)\n", (unsigned long long)source->size(),
                out.c_str());
    return 0;
}

int cmd_partition(const Args& args, JsonWriter* jw) {
    const std::string stream_spec = args.get("trace-stream", "");
    usage_require(!args.positional.empty() || !stream_spec.empty(),
                  "partition: missing kernel or trace file (or --trace-stream SPEC)");
    const auto chunk = args.get_count<std::size_t>("chunk-size", 0);
    // The positional source resolves exactly like --trace-stream (which
    // wins when both are given). Opened once the options have been
    // validated, so a usage error always outranks a data error.
    const auto open_source = [&] {
        return WorkloadRepository::instance().open_trace_source(
            stream_spec.empty() ? args.positional[0] : stream_spec, chunk);
    };

    FlowParams fp;
    fp.block_size = args.get_count<std::uint64_t>("block", 256);
    usage_require(is_pow2(fp.block_size), "partition: --block expects a power of two");
    fp.constraints.max_banks = args.get_count<std::size_t>("banks", 4);
    usage_require(fp.constraints.max_banks >= 1, "partition: --banks expects a positive count");
    const MemoryOptimizationFlow flow(fp);

    const std::string method_name = args.get("cluster", "frequency");
    const auto parsed_method = parse_cluster_method(method_name);
    if (!parsed_method)
        throw UsageError("partition: unknown clustering method '" + method_name + "'");
    const ClusterMethod method = *parsed_method;

    const std::string pool_spec = args.get("bank-pool", "");
    if (!pool_spec.empty()) {
        // Hybrid pool path: keeps the legacy (no --bank-pool) report
        // byte-identical by never touching the branches below.
        BankPool pool;
        try {
            pool = BankPool::parse(pool_spec);
        } catch (const Error& e) {
            throw UsageError(std::string("partition: ") + e.what());
        }
        HybridGatingParams gating;
        gating.idle_cycles = args.get_count<std::uint64_t>("gate-idle", 200);
        gating.gate_leak_scale = args.get_double("gate-leak-scale", 1.0);
        usage_require(gating.gate_leak_scale >= 0.0,
                      "partition: --gate-leak-scale expects a non-negative factor");

        const HybridFlowResult result = flow.run_hybrid(*open_source(), method, pool, gating);
        result.report.energy.print(std::cout, "hybrid energy (" + pool.to_string() + "):");
        std::printf("banks: %zu   wakeups: %llu\n", result.base.solution.arch.num_banks(),
                    static_cast<unsigned long long>(result.report.total_wakeups()));
        for (const HybridBankReport& slice : result.report.banks) {
            const double gated_pct =
                slice.activity.total_cycles() == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(slice.activity.gated_cycles) /
                          static_cast<double>(slice.activity.total_cycles());
            std::printf("  bank [%zu, %zu) -> %s  %-8s heat#%zu  gated %.1f%%\n",
                        slice.bank.first_block, slice.bank.end_block(),
                        format_bytes(slice.bank.size_bytes).c_str(),
                        technology_name(slice.tech), slice.heat_rank, gated_pct);
        }
        if (jw != nullptr) to_json(*jw, result);
        return 0;
    }
    args.reject_unread("partition", {"gate-idle", "gate-leak-scale"}, "--bank-pool SPEC");
    if (method == ClusterMethod::None) {
        const FlowResult result = flow.run(*open_source(), method);
        result.energy.print(std::cout, "partitioned energy:");
        std::printf("banks: %zu\n", result.solution.arch.num_banks());
        if (jw != nullptr) to_json(*jw, result);
        return 0;
    }
    const FlowComparison cmp = flow.compare(*open_source(), method);
    if (jw != nullptr) to_json(*jw, cmp);
    energy_comparison_table({
                                {"monolithic", cmp.monolithic},
                                {"partitioned", cmp.partitioned.energy},
                                {cluster_method_name(method) + "-clustered",
                                 cmp.clustered.energy},
                            })
        .print(std::cout);
    std::printf("\nclustering savings vs partitioning: %.1f%%\n", cmp.clustering_savings_pct());
    for (const Bank& b : cmp.clustered.solution.arch.banks())
        std::printf("  bank [%zu, %zu) -> %s\n", b.first_block, b.end_block(),
                    format_bytes(b.size_bytes).c_str());
    return 0;
}

/// The line codec `command` was asked for with --codec `name`. Only the
/// dictionary codec is trained, on the kernel's data trace. Any other name
/// is a usage error.
std::unique_ptr<LineCodec> make_codec(const std::string& command, const std::string& name,
                                      const MemTrace& data_trace) {
    if (name == "diff") return std::make_unique<DiffCodec>();
    if (name == "zero-run") return std::make_unique<ZeroRunCodec>();
    if (name == "bdi") return std::make_unique<BdiCodec>();
    if (name == "dictionary")
        return std::make_unique<DictionaryCodec>(
            DictionaryCodec::train(data_trace.write_values(), 16));
    throw UsageError(command + ": unknown codec '" + name + "'");
}

/// The durable-progress options of `fault` and `study all`. --resume,
/// --checkpoint-every and --ckpt-max-units shape only a checkpointed run,
/// so each of them without --checkpoint PATH is a usage error.
CheckpointOptions checkpoint_options(const Args& args, const std::string& command,
                                     std::size_t default_every) {
    CheckpointOptions opts;
    opts.path = args.get("checkpoint", "");
    if (opts.path.empty()) {
        args.reject_unread(command, {"resume", "checkpoint-every", "ckpt-max-units"},
                           "--checkpoint PATH");
        return opts;
    }
    opts.resume = args.options.count("resume") != 0;
    opts.every = args.get_count<std::size_t>("checkpoint-every", default_every);
    usage_require(opts.every > 0, command + ": --checkpoint-every expects a positive count");
    opts.max_units_this_run = args.get_count<std::size_t>("ckpt-max-units", 0);
    return opts;
}

/// Report a `fault` or `study all` run that stopped early: how far it got
/// on stdout (with the resume hint when it was checkpointed), null results
/// in the --json document, and exit code 3.
int report_interrupted(const char* what, std::size_t done, std::size_t total,
                       const char* units, const std::string& reason,
                       const CheckpointOptions& checkpoint, JsonWriter* jw) {
    std::printf("%s interrupted: %zu/%zu %s done (%s)\n", what, done, total, units,
                reason.c_str());
    if (!checkpoint.path.empty())
        std::printf("(checkpoint -> %s; rerun with --resume to continue)\n",
                    checkpoint.path.c_str());
    if (jw != nullptr) jw->null();
    g_partial_reason = reason;
    return 3;
}

int cmd_compress(const Args& args, JsonWriter* jw) {
    usage_require(!args.positional.empty(), "compress: missing kernel name");
    const KernelRunPtr artifact = WorkloadRepository::instance().run(args.positional[0]);
    const AssembledProgram& program = artifact->program;
    const RunResult& run = artifact->result;

    const std::string platform_name = args.get("platform", "vliw");
    const PlatformModel platform =
        platform_name == "risc" ? risc_platform() : vliw_platform();
    usage_require(platform_name == "vliw" || platform_name == "risc",
                  "compress: unknown platform '" + platform_name + "'");

    const std::string codec_name = args.get("codec", "diff");
    const std::unique_ptr<LineCodec> codec = make_codec("compress", codec_name, run.data_trace);

    MaterializedSource source(run.data_trace);
    const auto base = CompressedMemorySim(platform.config, nullptr)
                          .run(source, program.data, program.data_base);
    const auto comp = CompressedMemorySim(platform.config, codec.get())
                          .run(source, program.data, program.data_base);
    base.energy.print(std::cout, "uncompressed:");
    comp.energy.print(std::cout, "\nwith " + codec_name + " codec:");
    std::printf("\ntraffic ratio: %.3f   total savings: %.1f%%\n", comp.traffic_ratio(),
                100.0 * (base.energy.total() - comp.energy.total()) / base.energy.total());
    if (jw != nullptr) {
        jw->begin_object();
        jw->member("platform", platform_name);
        jw->member("codec", codec_name);
        jw->key("baseline");
        to_json(*jw, base);
        jw->key("compressed");
        to_json(*jw, comp);
        jw->member("savings_pct", 100.0 * (base.energy.total() - comp.energy.total()) /
                                      base.energy.total());
        jw->end_object();
    }
    return 0;
}

int cmd_encode(const Args& args, JsonWriter* jw) {
    usage_require(!args.positional.empty(), "encode: missing kernel name");
    const RunResult& run =
        WorkloadRepository::instance().run(args.positional[0], /*fetch=*/true)->result;

    TransformSearchParams params;
    params.max_gates = args.get_count<std::size_t>("gates", 16);
    const TransformSearchResult result = search_transform(run.fetch_stream, params);
    const EnergyBreakdown net = encoded_energy(result.transform, run.fetch_stream);

    std::printf("raw transitions    : %llu\n",
                (unsigned long long)result.original_transitions);
    std::printf("encoded transitions: %llu (-%.1f%%)\n",
                (unsigned long long)result.encoded_transitions, 100.0 * result.reduction());
    std::printf("gates used         : %zu\n", result.transform.gate_count());
    for (const XorGate& g : result.transform.gates())
        std::printf("  bit[%2u] ^= bit[%2u]\n", g.dst, g.src);
    net.print(std::cout, "\nencoded-side energy (bus + decoder):");
    if (jw != nullptr) {
        jw->begin_object();
        jw->key("search");
        to_json(*jw, result);
        jw->key("encoded_energy");
        net.to_json(*jw);
        jw->end_object();
    }
    return 0;
}

int cmd_fault(const Args& args, JsonWriter* jw) {
    usage_require(!args.positional.empty(), "fault: missing kernel name");
    const KernelRunPtr artifact = WorkloadRepository::instance().run(args.positional[0]);
    const AssembledProgram& program = artifact->program;
    const RunResult& run = artifact->result;

    FaultCampaignConfig config;
    config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    config.trials = args.get_count<std::size_t>("trials", 64);
    config.bit_flip_rate = args.get_double("rate", 1e-4);
    config.line_bytes = args.get_count<unsigned>("line", 32);
    usage_require(config.trials > 0, "fault: --trials expects a positive count");
    usage_require(config.bit_flip_rate >= 0.0 && config.bit_flip_rate <= 1.0,
                  "fault: --rate expects a probability in [0,1]");
    usage_require(config.line_bytes > 0 && config.line_bytes % 4 == 0,
                  "fault: --line expects a positive multiple of 4");
    const CheckpointOptions checkpoint = checkpoint_options(args, "fault", 16);

    const std::string prot_name = args.get("protection", "secded");
    const auto protection = parse_protection(prot_name);
    if (!protection) throw UsageError("fault: unknown protection '" + prot_name + "'");
    config.protection = *protection;

    const std::string codec_name = args.get("codec", "none");
    const std::unique_ptr<LineCodec> codec =
        codec_name == "none" ? nullptr : make_codec("fault", codec_name, run.data_trace);
    config.codec = codec.get();
    config.codec_tag = codec_name;

    const auto corpus = line_corpus(program.data, config.line_bytes);

    // Drowsy scaling: partition the kernel's trace, replay it through the
    // default gating controller, and raise each line's flip rate by its
    // bank's gated residency (drowsy banks hold state at reduced noise
    // margins).
    const double drowsy = args.get_double("drowsy", 0.0);
    usage_require(drowsy >= 0.0, "fault: --drowsy expects a non-negative factor");
    std::vector<double> probs;
    if (drowsy > 0.0) {
        FlowParams fp;
        fp.constraints.max_banks = 4;
        MaterializedSource source(run.data_trace);
        const FlowResult fr = MemoryOptimizationFlow(fp).run(source, ClusterMethod::Frequency);
        const std::vector<BankActivity> activity =
            replay_bank_activity(fr.solution.arch, fr.map, source, HybridGatingParams{});
        probs = sleepy_line_probabilities(fr.solution.arch, fr.map, activity,
                                          config.bit_flip_rate, drowsy, program.data_base,
                                          corpus.size(), config.line_bytes, run.cycles);
    }

    const CampaignOutcome outcome = run_campaign(config, corpus, probs, checkpoint);
    if (!outcome.completed)
        return report_interrupted("campaign", outcome.trials_done, outcome.trials_total,
                                  "trials", outcome.stop_reason, checkpoint, jw);
    const FaultCampaignResult& result = outcome.result;
    std::printf("campaign        : %zu lines x %zu trials, %s codec, %s protection\n",
                corpus.size(), config.trials, codec_name.c_str(),
                protection_name(config.protection));
    std::printf("faults injected : %llu\n", (unsigned long long)result.faults_injected);
    std::printf("corrected words : %llu\n", (unsigned long long)result.corrected);
    std::printf("detected words  : %llu\n", (unsigned long long)result.detected);
    std::printf("codec rejects   : %llu\n", (unsigned long long)result.codec_rejects);
    std::printf("degraded lines  : %llu (rate %.3e)\n",
                (unsigned long long)result.degraded, result.degraded_rate());
    std::printf("silent corrupt  : %llu (residual rate %.3e)\n",
                (unsigned long long)result.silent, result.residual_corruption_rate());
    std::printf("clean lines     : %llu\n", (unsigned long long)result.clean);
    result.energy.print(std::cout, "\ncampaign energy:");
    std::printf("\nprotection + recovery overhead: %.1f%% of base access energy\n",
                100.0 * result.energy_overhead());
    if (jw != nullptr) to_json(*jw, result);
    return 0;
}

int cmd_schedule(const Args& args) {
    AppGenParams params;
    params.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    const Application app = generate_application(params);
    const ReconfArch arch;
    const auto naive = evaluate_schedule(app, arch, naive_schedule(app, arch));
    const auto optimal = evaluate_schedule(app, arch, optimal_schedule(app, arch));
    naive.print(std::cout, "naive schedule:");
    optimal.print(std::cout, "\noptimal schedule:");
    std::printf("\nsavings: %.1f%%\n",
                100.0 * (naive.total() - optimal.total()) / naive.total());
    return 0;
}

int cmd_study(const Args& args, JsonWriter* jw) {
    usage_require(!args.positional.empty(), "study: missing kernel name (or 'all')");
    StudyParams params;
    params.flow.constraints.max_banks = 4;

    if (args.positional[0] == "all") {
        // Whole-suite batch study: every (kernel x optimization) evaluated
        // concurrently on the parallel runtime. With --checkpoint, kernels
        // run in batches, the finished prefix snapshots after each one,
        // and resumed kernels splice their recorded JSON into the envelope
        // byte-identically.
        const CheckpointOptions checkpoint = checkpoint_options(args, "study", 1);
        const StudySuiteOutcome outcome = study_suite(kernel_suite(), params, 0, checkpoint);
        TablePrinter table({"kernel", "1B-1 clustering [%]", "1B-2 compression [%]",
                            "1B-3 encoding [%]"});
        for (const StudyOutcome& o : outcome.outcomes)
            table.add_row({o.name, format_fixed(o.clustering_savings_pct, 1),
                           format_fixed(o.compression_savings_pct, 1),
                           format_fixed(o.encoding_reduction_pct, 1)});
        table.print(std::cout);
        std::printf("\n");
        if (!outcome.completed)
            return report_interrupted("study", outcome.outcomes.size(), outcome.total,
                                      "kernels", outcome.stop_reason, checkpoint, jw);
        std::printf("(%zu kernels studied with %zu jobs)\n", outcome.outcomes.size(),
                    default_jobs());
        if (jw != nullptr) {
            jw->begin_array();
            for (const StudyOutcome& o : outcome.outcomes) jw->raw_fragment(o.json);
            jw->end_array();
        }
        return 0;
    }

    args.reject_unread("study", {"checkpoint", "resume", "checkpoint-every", "ckpt-max-units"},
                       "'study all'");
    const StudyReport report = study_kernel(kernel_by_name(args.positional[0]), params);
    if (jw != nullptr) to_json(*jw, report);
    std::printf("study for %s\n", report.name.c_str());
    std::printf("  1B-1 clustering savings vs partitioning : %6.1f %%\n",
                report.clustering_savings_pct());
    std::printf("  1B-2 compression savings (memory path)  : %6.1f %%\n",
                report.compression_savings_pct());
    std::printf("  1B-3 bus-transition reduction           : %6.1f %%\n",
                report.encoding_reduction_pct());
    report.memory.clustered.energy.print(std::cout, "\nclustered data-memory breakdown:");
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    const std::string command = argv[1];
    // Declared outside the try so the catch blocks can discard a staged
    // document and (on cancellation) publish the minimal partial one.
    std::string json_path;
    std::string json_target;
    AtomicOstream json_file;
    std::optional<JsonWriter> jw;
    try {
        const auto command_options = kCommandOptions.find(command);
        if (command_options == kCommandOptions.end()) {
            std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
            return usage();
        }
        const Args args = Args::parse(argc, argv, 2);
        const std::set<std::string>& known = command_options->second;
        for (const auto& [key, _] : args.options) {
            usage_require(known.count(key) != 0 || kGlobalOptions.count(key) != 0,
                          command + ": unknown option --" + key);
        }
        // Global knob: bound the parallel runtime before any command runs.
        // 0 means "use the default" (MEMOPT_JOBS or hardware concurrency);
        // anything negative is a user error, not a silent default.
        const std::int64_t jobs = args.get_int("jobs", 0);
        usage_require(jobs >= 0, "--jobs expects a non-negative integer (0 = use default)");
        if (jobs > 0) set_default_jobs(static_cast<std::size_t>(jobs));

        // Cooperative watchdog: SIGINT/SIGTERM always feed the global
        // token; --deadline-sec additionally arms the wall clock. Engines
        // poll it at unit boundaries and stop gracefully (exit code 3).
        install_cancellation_handlers();
        if (args.options.count("deadline-sec") != 0) {
            const double deadline = args.get_double("deadline-sec", 0.0);
            usage_require(deadline >= 0.0, "--deadline-sec expects a non-negative number");
            CancellationToken::global().set_deadline_sec(deadline);
        }

        // Global knob: export a memopt.report.v1 JSON document. The envelope
        // (schema/command/target + trailing metrics snapshot) is written
        // here; each command fills in its "results" value. Bytes stage into
        // <FILE>.tmp and publish by rename only when the document closed
        // cleanly, so a crashed or interrupted run never leaves a truncated
        // document under the final name.
        json_path = args.get("json", "");
        json_target = args.positional.empty() ? std::string{} : args.positional[0];
        if (!json_path.empty()) {
            const bool supported = command == "run" || command == "partition" ||
                                   command == "compress" || command == "encode" ||
                                   command == "study" || command == "fault";
            usage_require(supported, "--json is not supported for command '" + command + "'");
            require(json_file.open_staged(json_path),
                    "cannot open --json file '" + json_path + "'");
            jw.emplace(json_file);
            jw->begin_object();
            jw->member("schema", command == "fault" ? "memopt.fault.v1"
                                                    : "memopt.report.v1");
            jw->member("command", command);
            jw->member("target", json_target);
            jw->key("results");
        }
        JsonWriter* writer = jw.has_value() ? &*jw : nullptr;

        int rc = 0;
        if (command == "kernels") rc = cmd_kernels();
        else if (command == "run") rc = cmd_run(args, writer);
        else if (command == "disasm") rc = cmd_disasm(args);
        else if (command == "cc") rc = cmd_cc(args);
        else if (command == "trace") rc = cmd_trace(args);
        else if (command == "partition") rc = cmd_partition(args, writer);
        else if (command == "compress") rc = cmd_compress(args, writer);
        else if (command == "encode") rc = cmd_encode(args, writer);
        else if (command == "schedule") rc = cmd_schedule(args);
        else if (command == "study") rc = cmd_study(args, writer);
        else if (command == "fault") rc = cmd_fault(args, writer);

        if (jw.has_value() && (rc == 0 || rc == 3)) {
            if (rc == 3) {
                // The command wrote null results; record why it stopped.
                jw->member("partial", true);
                jw->member("reason", g_partial_reason);
            }
            if (json_metrics_enabled()) {
                jw->key("metrics");
                MetricsRegistry::instance().snapshot().to_json(*jw);
            }
            jw->end_object();
            MEMOPT_ASSERT_MSG(jw->complete(), "memopt_cli: unbalanced JSON document");
            json_file << '\n';
            require(json_file.commit(), "failed writing --json file '" + json_path + "'");
            std::printf("(json report -> %s)\n", json_path.c_str());
        } else {
            json_file.discard();
        }
        return rc;
    } catch (const UsageError& e) {
        json_file.discard();
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    } catch (const CancelledError& e) {
        // Cancellation surfaced mid-command (no checkpointed driver caught
        // it): the staged envelope is incomplete, so discard it and publish
        // the minimal partial document instead.
        json_file.discard();
        if (!json_path.empty()) {
            std::string reason = CancellationToken::global().reason();
            if (reason.empty()) reason = e.what();
            try {
                write_partial_json(json_path, command, json_target, reason);
                std::printf("(json report -> %s)\n", json_path.c_str());
            } catch (const std::exception& pe) {
                std::fprintf(stderr, "error: partial --json report failed: %s\n", pe.what());
            }
        }
        std::fprintf(stderr, "interrupted: %s\n", e.what());
        return 3;
    } catch (const Error& e) {
        json_file.discard();
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    } catch (const std::exception& e) {
        json_file.discard();
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}
