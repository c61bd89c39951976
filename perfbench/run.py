#!/usr/bin/env python3
"""memopt end-to-end benchmark. See perfbench/README.md for the workloads,
the metrics and how to read a traced run.

  python3 perfbench/run.py --workload affinity-16k --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --all                      # every workload, one table
  python3 perfbench/run.py --compare DIR_A DIR_B      # parent vs change verdicts
  python3 perfbench/run.py --record-digests 0-20      # rewrite perfbench/digests.json

A workload run builds memopt (Release) into .bench_build/, prepares the
seed's inputs, times memopt_cli child processes for --seconds (--trace 0)
or runs the in-process traced driver (--trace 1), checks every result
against the recorded digest, and prints as its last stdout line one JSON
object with the keys correct, attempted, failed and metrics.
"""
import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
DIGESTS = BENCH / "digests.json"
SETUP_REPEATS = 3
BUILD_TYPE = "Release"
JOBS = min(4, os.cpu_count() or 1)
CORES = 4
POOL = "sram=2,sttmram=6"
HOTSPOT = "hotspots=8,hotspot-bytes=1024,hot-frac=0.9"

# One closed loop per workload: one memopt_cli process at a time. The seed
# enters only the synthetic: spec (and through it the set-up trace file).
WORKLOADS = {
    "affinity-16k": {
        "kind": "compare",
        "spec": "synthetic:hotspot,span=4194304,n=250000,seed={seed}," + HOTSPOT,
        "file": None,
        "args": ["partition", "--trace-stream", "{source}", "--cluster", "affinity",
                 "--banks", "4"],
        "energy": ("clustered", "energy", "total_pj"),
        "accesses": 250_000,
        "seeds": {"tuning": 1, "heldout": 7},
    },
    "mtsc-hybrid-4k": {
        "kind": "hybrid",
        "spec": "synthetic:hotspot,span=1048576,n=10000000,seed={seed}," + HOTSPOT,
        "file": "mtsc-hybrid-4k.mtsc",
        "args": ["partition", "--trace-stream", "{source}", "--cluster", "frequency",
                 "--bank-pool", POOL],
        "energy": ("energy", "total_pj"),
        "accesses": 10_000_000,
        "seeds": {"tuning": 1, "heldout": 7},
    },
    "coherence-4c": {
        "kind": "cores",
        "spec": f"synthetic:producer-consumer,span=1048576,cores={CORES},shared-bytes=16384,"
                "shared-frac=0.5,n=1000000,seed={seed}",
        "file": None,
        "args": ["run", "{source}", "--cores", str(CORES)],
        "energy": ("energy", "total_pj"),
        "accesses": CORES * 1_000_000,
        "seeds": {"tuning": 1, "heldout": 7},
    },
}

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def die(message, code=2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die(f"{path.name} not found next to {BENCH.name}/")
    return json.loads(path.read_text())


def spec_problems(spec):
    """Contract violations in a BENCHMARK.json document (empty = valid)."""
    problems = []
    names = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in spec.get(section, []):
            name = entry.get("name", "")
            if not NAME_RE.match(name):
                problems.append(f"{section}: invalid name {name!r}")
            if name in names:
                problems.append(f"{section}: duplicate name {name!r}")
            names.add(name)
            if section != "workloads":
                if not UNIT_RE.match(entry.get("unit", "")):
                    problems.append(f"{name}: invalid unit {entry.get('unit')!r}")
                if entry.get("better") not in ("higher", "lower"):
                    problems.append(f"{name}: 'better' must be higher or lower")
            if section == "end_to_end" and not 0 < entry.get("bound", 0) <= 0.25:
                problems.append(f"{name}: bound must be in (0, 0.25]")
    if not any(m["name"] == "setup_s" for m in spec.get("end_to_end", [])):
        problems.append("end_to_end: setup_s is missing")
    return problems


# ---------------------------------------------------------------- build

def read_cmake_cache(build_dir):
    cache = {}
    path = build_dir / "CMakeCache.txt"
    if path.is_file():
        for line in path.read_text().splitlines():
            m = re.match(r"^([A-Za-z0-9_]+):[A-Z]+=(.*)$", line)
            if m:
                cache[m.group(1)] = m.group(2)
    return cache


def build_problems(cache):
    """Why a configured build must not be timed (empty = acceptable)."""
    problems = []
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    if build_type != BUILD_TYPE:
        problems.append(f"build type {build_type or '(none)'!r} is not {BUILD_TYPE}")
    if cache.get("MEMOPT_SANITIZE", ""):
        problems.append(f"sanitizer build (MEMOPT_SANITIZE={cache['MEMOPT_SANITIZE']})")
    if cache.get("MEMOPT_COVERAGE", "OFF").upper() in ("ON", "1", "TRUE", "YES"):
        problems.append("coverage build (MEMOPT_COVERAGE=ON)")
    flags = " ".join(v for k, v in cache.items() if k.startswith("CMAKE_CXX_FLAGS"))
    if "-fsanitize" in flags or "--coverage" in flags:
        problems.append("sanitizer or coverage flags in CMAKE_CXX_FLAGS")
    return problems


def compiler_of(build_dir):
    for path in sorted((build_dir / "CMakeFiles").glob("*/CMakeCXXCompiler.cmake")):
        text = path.read_text()
        cid = re.search(r'set\(CMAKE_CXX_COMPILER_ID "([^"]*)"\)', text)
        ver = re.search(r'set\(CMAKE_CXX_COMPILER_VERSION "([^"]*)"\)', text)
        if cid and ver:
            return f"{cid.group(1)} {ver.group(1)}"
    return "unknown"


def build():
    """Configure (once) and build memopt_cli + perfbench_trace; returns the
    tool paths and the build's provenance. Exits on a refused build, such
    as a tree configured by hand as Debug or with sanitizers."""
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt", "examples/memopt_cli.cpp"):
        if not (ROOT / needed).is_file():
            die(f"memopt sources not found ({needed} missing under {ROOT})")
    build_dir = ROOT / ".bench_build" / f"perfbench-{BUILD_TYPE}"
    OUT.mkdir(exist_ok=True)
    log = OUT / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(build_dir),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(build_dir), "-j", str(min(4, os.cpu_count() or 1)),
                  "--target", "memopt_cli", "perfbench_trace"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                die(f"build failed: {' '.join(cmd)} (log: {log})", code=1)
    cache = read_cmake_cache(build_dir)
    problems = build_problems(cache)
    if problems:
        die("refusing to time this build: " + "; ".join(problems), code=1)
    return {
        "cli": build_dir / "examples" / "memopt_cli",
        "driver": build_dir / "perfbench_trace",
        "build_type": cache["CMAKE_BUILD_TYPE"],
        "compiler": compiler_of(build_dir),
    }


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else None


def provenance(tools):
    return {
        "nproc": os.cpu_count(),
        "compiler": tools["compiler"],
        "build_type": tools["build_type"],
        "git_revision": git_revision(),
        "jobs": JOBS,
    }


# ---------------------------------------------------------------- runs

def results_digest(doc):
    """sha256 of the canonical JSON of a report's "results" section."""
    canon = json.dumps(doc["results"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def energy_of(doc, path):
    node = doc["results"]
    for key in path:
        node = node[key]
    return float(node)


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("MEMOPT_")}
    env["MEMOPT_JSON_METRICS"] = "0"
    return env


def run_cli(tools, workload, source, jobs, tag):
    """One memopt_cli child: wall time and peak RSS from wait4, plus the
    digest and energy of its --json results."""
    w = WORKLOADS[workload]
    json_path = OUT / f"{workload}-{tag}.json"
    json_path.unlink(missing_ok=True)
    args = [a.format(source=source) for a in w["args"]]
    cmd = [str(tools["cli"])] + args + ["--jobs", str(jobs), "--json", str(json_path)]
    with open(OUT / f"{workload}-{tag}.stderr", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = {"wall_s": wall, "rss_mib": usage.ru_maxrss / 1024.0, "rc": proc.returncode,
              "jobs": jobs, "digest": None, "energy_pj": None}
    if proc.returncode == 0:
        doc = json.loads(json_path.read_text())
        sample["digest"] = results_digest(doc)
        sample["energy_pj"] = energy_of(doc, w["energy"])
    return sample


def prepare_source(tools, workload, seed):
    """Set-up: write the seed's input file where the workload has one."""
    w = WORKLOADS[workload]
    spec = w["spec"].format(seed=seed)
    if w["file"] is None:
        return spec
    path = OUT / w["file"]
    r = subprocess.run([str(tools["cli"]), "trace", spec, str(path)],
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                       env=child_env())
    if r.returncode != 0:
        die(f"set-up failed writing {path.name}: {r.stderr.strip()}", code=1)
    # Flush the file now, so its write-back is set-up time and does not
    # compete with the timed runs.
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    return str(path)


def recorded_digest(workload, seed):
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


def count_failures(samples, expected):
    """A run fails when it exits non-zero or its results digest differs
    from the expected one."""
    return sum(1 for s in samples if s["rc"] != 0 or s["digest"] != expected)


def setup(tools, workload, seed, repeats):
    """Set-up, `repeats` times: prepare the inputs and the --jobs 1
    reference run the timed runs are checked against."""
    times, refs, source = [], [], None
    for i in range(repeats):
        start = time.perf_counter()
        source = prepare_source(tools, workload, seed)
        refs.append(run_cli(tools, workload, source, 1, f"setup{i}"))
        times.append(time.perf_counter() - start)
    expected = recorded_digest(workload, seed) or refs[0]["digest"]
    return source, times, refs, expected


def timed_loop(tools, workload, source, seconds):
    samples = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        samples.append(run_cli(tools, workload, source, JOBS, "run"))
    return samples


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def measure(tools, workload, seed, seconds):
    """Untraced runs: the end-to-end metrics."""
    w = WORKLOADS[workload]
    source, setup_times, refs, expected = setup(tools, workload, seed, SETUP_REPEATS)
    samples = timed_loop(tools, workload, source, seconds)
    runs = refs + samples
    failed = count_failures(runs, expected)
    ok = [s for s in samples if s["rc"] == 0] or die(f"{workload}: every run failed", code=1)
    wall = statistics.median(s["wall_s"] for s in ok)
    metrics = {
        "wall_s": wall,
        "accesses_per_s": w["accesses"] / wall,
        "peak_rss_mb": statistics.median(s["rss_mib"] for s in ok),
        "setup_s": statistics.median(setup_times),
        "result_energy_uj": ok[0]["energy_pj"] / 1e6,
    }
    detail = {
        "wall_s": f"median of {len(ok)} runs, quartiles "
                  + " / ".join(f"{q:.4f}" for q in quartiles([s['wall_s'] for s in ok])),
        "setup_s": f"median of {len(setup_times)} set-ups (inputs + --jobs 1 reference run)",
        "error_rate": f"{failed} failed / {len(runs)} attempted",
    }
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": metrics, "detail": detail, "samples": runs}


def measure_traced(tools, workload, seed, seconds, spec):
    """Traced run: the per-layer metrics from the in-process driver, plus
    enough untraced CLI runs to split off the CLI's own overhead."""
    w = WORKLOADS[workload]
    source, _, refs, expected = setup(tools, workload, seed, 1)
    cli_runs = timed_loop(tools, workload, source, seconds / 2)
    samples = refs + cli_runs
    failed = count_failures(samples, expected)
    spans = OUT / "spans" / f"{workload}-seed{seed}.json"
    spans.parent.mkdir(exist_ok=True)
    cmd = [str(tools["driver"]), "--kind", w["kind"], "--source", source,
           "--jobs", str(JOBS), "--seconds", str(seconds / 2), "--spans", str(spans)]
    r = subprocess.run(cmd, capture_output=True, text=True, env=child_env())
    if r.returncode not in (0, 1):
        die(f"traced driver failed: {r.stderr.strip()}", code=1)
    traced = json.loads(r.stdout.strip().splitlines()[-1])
    energy_match = traced["energy_pj"] == refs[0]["energy_pj"]
    driver_ok = r.returncode == 0 and traced["consistent"] and energy_match
    if not driver_ok:
        failed += traced["repetitions"]
    found = traced["metrics"]
    ok = [s for s in cli_runs if s["rc"] == 0] or die(f"{workload}: every run failed", code=1)
    wall = statistics.median(s["wall_s"] for s in ok)
    found["core.cli_overhead_s"] = wall - found["core.flow_s"]
    metrics = {m["name"]: found.get(m["name"], 0.0) for m in spec["per_layer"]}
    detail = {
        "spans": str(spans.relative_to(ROOT)),
        "repetitions": traced["repetitions"],
        "energy": f"driver {traced['energy_pj']!r} pJ vs CLI {refs[0]['energy_pj']!r} pJ"
                  + (" (bit-identical)" if energy_match else " (MISMATCH)"),
        "tracing_overhead_s": f"{found['core.layers_s'] - wall:.4f} "
                              "(traced core.layers total minus untraced wall_s median)",
    }
    attempted = len(samples) + traced["repetitions"]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "detail": detail, "samples": samples}


def report(workload, seed, trace, result, units, prov):
    print(f"{workload} seed={seed} trace={trace} jobs={prov['jobs']} "
          f"build={prov['build_type']} ({prov['compiler']})")
    for name, value in result["metrics"].items():
        print(f"  {name:26s} {value:>16.6g} {units[name]}")
    if not trace:
        rate = result["failed"] / result["attempted"]
        print(f"  {'error_rate':26s} {rate:>16.6g} ratio")
    for key, text in result["detail"].items():
        print(f"  # {key}: {text}")
    path = OUT / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"workload": workload, "seed": seed, "trace": trace,
                                "provenance": prov, **result}, indent=1) + "\n")


def with_units(result, units):
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}}


# ---------------------------------------------------------------- comparison

def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def verdict(metric, parent, change):
    """Compare two sets of values of one end-to-end metric: 'regressed' when
    the change's median is worse than the parent's by more than the bound,
    'improved' when better by more than the parent's own spread, else 'same'."""
    p, c = statistics.median(parent), statistics.median(change)
    worse = (c - p) / p if metric["better"] == "lower" else (p - c) / p
    if worse > metric["bound"]:
        return "regressed"
    if -worse > spread(parent):
        return "improved"
    return "same"


def compare_dirs(spec, parent_dir, change_dir):
    def load(d):
        sets = {}
        for path in sorted(Path(d).glob("*-trace0.json")):
            doc = json.loads(path.read_text())
            for name, value in doc["metrics"].items():
                sets.setdefault(doc["workload"], {}).setdefault(name, []).append(value)
        return sets
    parent, change = load(parent_dir), load(change_dir)
    regressions = 0
    for workload in sorted(set(parent) & set(change)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p, c = parent[workload].get(name), change[workload].get(name)
            if not p or not c:
                continue
            v = verdict(metric, p, c)
            regressions += v == "regressed"
            print(f"{workload:16s} {name:18s} parent {statistics.median(p):.6g} "
                  f"(spread {spread(p):.3f}, n={len(p)})  change {statistics.median(c):.6g} "
                  f"(spread {spread(c):.3f}, n={len(c)})  {v}")
    return 1 if regressions else 0


# ---------------------------------------------------------------- digests

def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record_digests(tools, seeds, workloads):
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    for workload in workloads:
        for seed in seeds:
            source = prepare_source(tools, workload, seed)
            ref = run_cli(tools, workload, source, 1, "record")
            par = run_cli(tools, workload, source, JOBS, "record")
            if ref["rc"] != 0 or ref["digest"] != par["digest"]:
                die(f"{workload} seed {seed}: --jobs 1 and --jobs {JOBS} results differ", 1)
            table.setdefault(workload, {})[str(seed)] = ref["digest"]
            print(f"{workload} seed={seed} {ref['digest'][:16]} {ref['energy_pj'] / 1e6!r} uJ")
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, help="workload seed (default: its tuning seed)")
    ap.add_argument("--seconds", type=float, default=25.0, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload untraced")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    ap.add_argument("--record-digests", metavar="SEEDS", help="e.g. 0-20 or 1,7")
    args = ap.parse_args()

    spec = load_spec()
    problems = spec_problems(spec)
    if problems:
        die("BENCHMARK.json: " + "; ".join(problems))
    if args.compare:
        return compare_dirs(spec, *args.compare)
    if not (args.workload or args.all or args.record_digests):
        ap.error("one of --workload, --all, --compare or --record-digests is required")

    tools = build()
    prov = provenance(tools)
    if args.record_digests:
        workloads = [args.workload] if args.workload else list(WORKLOADS)
        record_digests(tools, parse_seeds(args.record_digests), workloads)
        return 0

    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if args.all:
        total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            seed = WORKLOADS[workload]["seeds"]["tuning"] if args.seed is None else args.seed
            result = measure(tools, workload, seed, args.seconds)
            report(workload, seed, 0, result, e2e_units, prov)
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for name, value in result["metrics"].items():
                total["metrics"][f"{workload}.{name}"] = {"value": value, "unit": e2e_units[name]}
        print(json.dumps(total))
        return 0

    seed = WORKLOADS[args.workload]["seeds"]["tuning"] if args.seed is None else args.seed
    if args.trace:
        result = measure_traced(tools, args.workload, seed, args.seconds, spec)
        units = layer_units
    else:
        result = measure(tools, args.workload, seed, args.seconds)
        units = e2e_units
    report(args.workload, seed, args.trace, result, units, prov)
    print(json.dumps(with_units(result, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
