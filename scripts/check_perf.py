#!/usr/bin/env python3
"""Perf-regression gate: diff a perf_micro run against checked-in baselines.

Usage:
    python3 scripts/check_perf.py <BENCH_perf.json>            # gate (CI)
    python3 scripts/check_perf.py <BENCH_perf.json> --update   # refresh baselines
    python3 scripts/check_perf.py <BENCH_perf.json> --baseline <file> \
        --tolerance-pct 25

The input is the memopt.bench.v1 document perf_micro writes when run with
MEMOPT_JSON_DIR set; each row carries {benchmark, real_time_ns, cpu_time_ns,
iterations}. Under --benchmark_repetitions=N the row is the median of the N
repetitions, which is how CI runs it (N = 5): one run on a shared runner can
be off by more than the tolerance on code that did not change. The baseline
(bench/baselines/perf_baseline.json) stores one reference real_time_ns per
benchmark name.

A benchmark FAILS when its per-iteration real time exceeds the baseline by
more than the tolerance band (default 25%, matching the regression budget
in .github/workflows/ci.yml). Improvements never fail the gate; a run that
is faster by more than the band prints a hint to refresh the baseline so
the gate tightens over time. Benchmarks missing from the baseline (new
ones) or missing from the run (retired ones) warn but do not fail — new
entries are adopted with --update.

With --trajectory, the run is also appended to a rolling
memopt.bench-trajectory.v1 document ({sha, date, per-benchmark ns/iter} per
entry) before the gate evaluates, so even failing runs record their
timings. The perf-regression CI job carries that file across runs via the
actions cache and uploads it as the BENCH_trajectory artifact.

Exit codes: 0 ok, 1 regression, 2 usage/input error.
"""
import argparse
import datetime
import json
import os
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / "bench" / "baselines" / "perf_baseline.json"


def load_run(path: Path) -> dict:
    with path.open() as f:
        doc = json.load(f)
    if doc.get("schema") != "memopt.bench.v1":
        sys.exit(f"error: {path} is not a memopt.bench.v1 document "
                 f"(schema={doc.get('schema')!r})")
    rows = doc.get("rows", [])
    if not rows:
        sys.exit(f"error: {path} has no benchmark rows")
    results = {}
    for row in rows:
        try:
            results[row["benchmark"]] = float(row["real_time_ns"])
        except (KeyError, TypeError, ValueError):
            sys.exit(f"error: malformed row in {path}: {row!r}")
    return results


def load_baseline(path: Path) -> dict:
    with path.open() as f:
        doc = json.load(f)
    return {name: float(ns) for name, ns in doc["benchmarks"].items()}


def update_baseline(path: Path, results: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema": "memopt.perf_baseline.v1",
        "note": "per-iteration real_time_ns references for scripts/check_perf.py; "
                "refresh with: scripts/check_perf.py <BENCH_perf.json> --update",
        "benchmarks": {name: round(ns, 1) for name, ns in sorted(results.items())},
    }
    with path.open("w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"baseline updated: {path} ({len(results)} benchmarks)")


def append_trajectory(path: Path, sha: str, date: str, results: dict) -> None:
    doc = {"schema": "memopt.bench-trajectory.v1",
           "note": "per-benchmark real_time_ns history, one entry per CI run; "
                   "appended by scripts/check_perf.py --trajectory",
           "runs": []}
    if path.exists():
        try:
            with path.open() as f:
                existing = json.load(f)
        except (OSError, json.JSONDecodeError) as err:
            # A truncated cache restore must not wedge the gate forever;
            # start a fresh trajectory and say so.
            print(f"warning: discarding unreadable trajectory {path}: {err}",
                  file=sys.stderr)
            existing = None
        if existing is not None:
            if existing.get("schema") != "memopt.bench-trajectory.v1":
                sys.exit(f"error: {path} is not a memopt.bench-trajectory.v1 "
                         f"document (schema={existing.get('schema')!r})")
            doc = existing
    doc["runs"].append({
        "sha": sha,
        "date": date,
        "benchmarks": {name: round(ns, 1) for name, ns in sorted(results.items())},
    })
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"trajectory: appended run {sha[:12]} ({len(results)} benchmarks, "
          f"{len(doc['runs'])} total runs) to {path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("run", type=Path, help="BENCH_perf.json from a perf_micro run")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help=f"baseline file (default: {DEFAULT_BASELINE})")
    parser.add_argument("--tolerance-pct", type=float, default=25.0,
                        help="allowed slowdown before failing (default: 25)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from this run instead of gating")
    parser.add_argument("--trajectory", type=Path, default=None,
                        help="append this run to a memopt.bench-trajectory.v1 "
                             "history file before gating")
    parser.add_argument("--sha", default=os.environ.get("GITHUB_SHA", "unknown"),
                        help="commit sha recorded in the trajectory entry "
                             "(default: $GITHUB_SHA)")
    parser.add_argument("--date", default=None,
                        help="ISO-8601 date recorded in the trajectory entry "
                             "(default: now, UTC)")
    args = parser.parse_args()

    if not args.run.exists():
        print(f"error: run file not found: {args.run}", file=sys.stderr)
        return 2
    results = load_run(args.run)

    if args.trajectory is not None:
        date = args.date or datetime.datetime.now(datetime.timezone.utc) \
            .strftime("%Y-%m-%dT%H:%M:%SZ")
        append_trajectory(args.trajectory, args.sha, date, results)

    if args.update:
        update_baseline(args.baseline, results)
        return 0

    if not args.baseline.exists():
        print(f"error: baseline not found: {args.baseline} "
              "(create it with --update)", file=sys.stderr)
        return 2
    baseline = load_baseline(args.baseline)

    band = args.tolerance_pct / 100.0
    regressions = []
    print(f"{'benchmark':<34} {'baseline':>12} {'current':>12} {'delta':>8}  verdict")
    for name in sorted(set(baseline) | set(results)):
        if name not in results:
            print(f"{name:<34} {baseline[name]:>12.0f} {'-':>12} {'-':>8}  WARN (missing from run)")
            continue
        if name not in baseline:
            print(f"{name:<34} {'-':>12} {results[name]:>12.0f} {'-':>8}  WARN (new; adopt with --update)")
            continue
        ref, cur = baseline[name], results[name]
        delta = (cur - ref) / ref
        if delta > band:
            verdict = "FAIL (regression)"
            regressions.append((name, delta))
        elif delta < -band:
            verdict = "ok (faster; consider --update)"
        else:
            verdict = "ok"
        print(f"{name:<34} {ref:>12.0f} {cur:>12.0f} {delta:>+7.1%}  {verdict}")

    if regressions:
        worst = max(regressions, key=lambda r: r[1])
        print(f"\nPERF GATE: FAIL — {len(regressions)} benchmark(s) regressed beyond "
              f"{args.tolerance_pct:.0f}% (worst: {worst[0]} {worst[1]:+.1%})")
        return 1
    print(f"\nPERF GATE: ok — {len(results)} benchmarks within {args.tolerance_pct:.0f}% "
          "of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
