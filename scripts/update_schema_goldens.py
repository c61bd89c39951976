#!/usr/bin/env python3
"""Regenerate the S1 schema goldens (docs/schemas/*.v1.json).

The goldens freeze, per schema, the set of JSON keys its source files may
emit through JsonWriter member()/key() string literals. memopt_lint rule S1
diffs the keys actually emitted against these documents; a key added or
removed without updating the golden in the same change is a finding.

Workflow when a report schema deliberately changes:

    cmake --build build --target memopt_lint
    python3 scripts/update_schema_goldens.py --lint build/tools/memopt_lint
    git diff docs/schemas/   # review: every key change is intentional
    # commit the golden together with the writer change

The key sets come from the linter's own index (via a throwaway --cache
file), so this script can never disagree with what rule S1 checks.
Granularity is per source file: a file that writes several documents (e.g.
the lint driver, which renders both memopt.lint.v1 and SARIF) freezes all
its keys under one golden.
"""
import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

# schema id -> the files whose JsonWriter keys it freezes.
SCHEMAS = {
    "memopt.report.v1": {
        "notes": "The memopt_cli --json envelope and every section writer it "
                 "delegates to (flow/study/cache/compress/encoding/energy/"
                 "metrics). The fault command shares this envelope; its result "
                 "body is frozen separately as memopt.fault.v1.",
        "sources": [
            "examples/memopt_cli.cpp",
            "src/cache/mcache.cpp",
            "src/cache/memsys.cpp",
            "src/core/flow.cpp",
            "src/core/study.cpp",
            "src/encoding/search.cpp",
            "src/energy/report.cpp",
            "src/support/metrics.cpp",
        ],
    },
    "memopt.bench.v1": {
        "notes": "The BENCH_*.json export envelope. Per-row metric names are "
                 "dynamic (add_row key-value pairs) and are deliberately not "
                 "frozen; only the envelope keys are.",
        "sources": ["bench/bench_util.cpp"],
    },
    "memopt.fault.v1": {
        "notes": "The fault-campaign result body (campaign counters and "
                 "rates). The surrounding CLI envelope is frozen by "
                 "memopt.report.v1.",
        "sources": ["src/fault/campaign.cpp"],
    },
    "memopt.lint.v1": {
        "notes": "The lint report writers: the memopt.lint.v1 document and "
                 "the SARIF 2.1.0 rendering live in the same file, so both "
                 "key sets are frozen here.",
        "sources": ["tools/lint/lint.cpp"],
    },
    "memopt.ckpt.v1": {
        "notes": "The checkpoint container itself is binary (see "
                 "support/durable/checkpoint.hpp); what this golden freezes "
                 "is the embedded per-record report document written by the "
                 "study engine.",
        "sources": ["src/core/study.cpp"],
    },
}


def emitted_keys(lint_bin: str, root: pathlib.Path) -> dict[str, set[str]]:
    """file -> JSON keys it emits, read out of the linter's index cache."""
    with tempfile.NamedTemporaryFile(suffix=".lintcache") as cache:
        subprocess.run(
            [lint_bin, "--root", str(root), "--cache", cache.name],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            check=False,  # exit 1 just means findings; the cache still writes
        )
        text = pathlib.Path(cache.name).read_text(encoding="utf-8")
    keys: dict[str, set[str]] = {}
    current = None
    for line in text.splitlines():
        if line.startswith("file "):
            current = line[len("file "):]
        elif line.startswith("jk ") and current is not None:
            _, _line, key = line.split(" ", 2)
            keys.setdefault(current, set()).add(key)
    if not keys:
        sys.exit("update_schema_goldens: no JSON keys found — "
                 "is the lint binary current?")
    return keys


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lint", default="build/tools/memopt_lint",
                    help="memopt_lint binary (default: build/tools/memopt_lint)")
    ap.add_argument("--root", default=".", help="repo root (default: .)")
    ap.add_argument("--check", action="store_true",
                    help="verify goldens are current; exit 1 on drift")
    args = ap.parse_args()

    root = pathlib.Path(args.root)
    out_dir = root / "docs" / "schemas"
    out_dir.mkdir(parents=True, exist_ok=True)
    per_file = emitted_keys(args.lint, root)

    drift = False
    for schema_id, spec in SCHEMAS.items():
        keys: set[str] = set()
        for source in spec["sources"]:
            if source not in per_file:
                sys.exit(f"update_schema_goldens: source {source} emits no JSON "
                         f"keys (moved or renamed?); update SCHEMAS in this script")
            keys |= per_file[source]
        doc = {
            "schema": "memopt.schema-freeze.v1",
            "id": schema_id,
            "notes": spec["notes"],
            "sources": sorted(spec["sources"]),
            "keys": sorted(keys),
        }
        rendered = json.dumps(doc, indent=2) + "\n"
        path = out_dir / f"{schema_id}.json"
        if args.check:
            if not path.exists() or path.read_text(encoding="utf-8") != rendered:
                print(f"update_schema_goldens: {path} is stale", file=sys.stderr)
                drift = True
        else:
            path.write_text(rendered, encoding="utf-8")
            print(f"wrote {path} ({len(keys)} keys)")
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
