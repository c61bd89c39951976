#!/usr/bin/env python3
"""Structural validator for memopt_lint --sarif output (SARIF 2.1.0).

Usage:
    python3 scripts/check_sarif.py <report.sarif>

Checks the invariants the GitHub code-scanning upload depends on, without
needing the (networked) official JSON schema:

  * top level: version == "2.1.0", a $schema URI, exactly one run
  * the run: tool.driver with name/version and a rules array whose entries
    carry id + shortDescription.text, unique ids
  * every result: ruleId present in the rules array, ruleIndex pointing at
    it, a level, message.text, and >= 1 location with
    physicalLocation.artifactLocation.uri (relative, no scheme) and a
    positive region.startLine

Exit codes: 0 valid, 1 structural violation, 2 usage/IO error.
"""

import json
import sys


def fail(msg: str) -> None:
    print(f"check_sarif: FAIL: {msg}")
    sys.exit(1)


def require(cond: bool, msg: str) -> None:
    if not cond:
        fail(msg)


def main() -> None:
    if len(sys.argv) != 2:
        print(__doc__)
        sys.exit(2)
    try:
        with open(sys.argv[1], encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"check_sarif: cannot parse {sys.argv[1]}: {exc}")
        sys.exit(2)

    require(doc.get("version") == "2.1.0", f"version is {doc.get('version')!r}, want '2.1.0'")
    require(isinstance(doc.get("$schema"), str) and "sarif" in doc["$schema"].lower(),
            "$schema missing or not a SARIF schema URI")
    runs = doc.get("runs")
    require(isinstance(runs, list) and len(runs) == 1, "want exactly one run")
    run = runs[0]

    driver = run.get("tool", {}).get("driver", {})
    require(driver.get("name") == "memopt_lint", "tool.driver.name != memopt_lint")
    require(isinstance(driver.get("version"), str), "tool.driver.version missing")
    rules = driver.get("rules")
    require(isinstance(rules, list) and rules, "tool.driver.rules missing or empty")
    rule_ids = []
    for rule in rules:
        require(isinstance(rule.get("id"), str) and rule["id"], "rule without id")
        require(isinstance(rule.get("shortDescription", {}).get("text"), str),
                f"rule {rule.get('id')}: shortDescription.text missing")
        rule_ids.append(rule["id"])
    require(len(set(rule_ids)) == len(rule_ids), "duplicate rule ids")

    results = run.get("results")
    require(isinstance(results, list), "results array missing")
    for i, result in enumerate(results):
        where = f"results[{i}]"
        rule_id = result.get("ruleId")
        require(rule_id in rule_ids, f"{where}: ruleId {rule_id!r} not in driver.rules")
        index = result.get("ruleIndex")
        require(isinstance(index, int) and 0 <= index < len(rule_ids)
                and rule_ids[index] == rule_id,
                f"{where}: ruleIndex does not point at ruleId")
        require(result.get("level") in ("error", "warning", "note"),
                f"{where}: bad level {result.get('level')!r}")
        require(isinstance(result.get("message", {}).get("text"), str)
                and result["message"]["text"],
                f"{where}: message.text missing")
        locations = result.get("locations")
        require(isinstance(locations, list) and locations, f"{where}: no locations")
        physical = locations[0].get("physicalLocation", {})
        uri = physical.get("artifactLocation", {}).get("uri")
        require(isinstance(uri, str) and uri and "://" not in uri and not uri.startswith("/"),
                f"{where}: artifactLocation.uri must be a relative path, got {uri!r}")
        start = physical.get("region", {}).get("startLine")
        require(isinstance(start, int) and start >= 1, f"{where}: region.startLine must be >= 1")

    print(f"check_sarif: ok — {len(results)} result(s), {len(rule_ids)} rule(s)")


if __name__ == "__main__":
    main()
