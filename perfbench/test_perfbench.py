#!/usr/bin/env python3
"""Self-test of the benchmark's own logic (not of memopt):

  python3 perfbench/test_perfbench.py

Checks metric-name validity, the bound and regression comparison, that a
digest mismatch counts as a failed run, the build guard, that the
pass-counting TraceSource wrapper leaves replay results bit-identical, and
runs a tiny instance of each workload end to end (CLI digest at --jobs 1
and --jobs 4, traced driver energy equal to the CLI's). Builds the
benchmark first if needed; after that it takes seconds.
"""
import copy
import json
import subprocess
import unittest
from unittest import mock

import run

# Tiny stand-ins for the workloads: same commands and driver kinds, a few
# thousand blocks and accesses instead of millions.
TINY = {
    "affinity-16k": ("span=4194304,n=250000", "span=262144,n=20000"),
    "mtsc-hybrid-4k": ("n=10000000", "n=50000"),
    "coherence-4c": ("n=1000000", "n=20000"),
}


def tiny_workloads():
    workloads = copy.deepcopy(run.WORKLOADS)
    for name, (old, new) in TINY.items():
        assert old in workloads[name]["spec"], name
        workloads[name]["spec"] = workloads[name]["spec"].replace(old, new)
        workloads[name]["file"] = workloads[name]["file"] and "tiny-" + workloads[name]["file"]
    return workloads


class SpecTest(unittest.TestCase):
    def test_benchmark_json_is_valid(self):
        self.assertEqual(run.spec_problems(run.load_spec()), [])

    def test_workload_names_match_the_runner(self):
        names = [w["name"] for w in run.load_spec()["workloads"]]
        self.assertEqual(sorted(names), sorted(run.WORKLOADS))

    def test_invalid_entries_are_reported(self):
        spec = {
            "workloads": [{"name": "ok", "why": "x"}, {"name": "-bad", "why": "x"}],
            "end_to_end": [{"name": "wall_s", "unit": "µs", "better": "lower", "bound": 0.3}],
            "per_layer": [{"name": "wall_s", "unit": "s", "better": "up"}],
        }
        problems = " | ".join(run.spec_problems(spec))
        for needle in ("invalid name '-bad'", "invalid unit", "bound must be",
                       "duplicate name 'wall_s'", "must be higher or lower",
                       "setup_s is missing"):
            self.assertIn(needle, problems)


class ComparisonTest(unittest.TestCase):
    LOWER = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}
    HIGHER = {"name": "accesses_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}

    def test_spread_is_interquartile_share_of_median(self):
        self.assertAlmostEqual(run.spread([1.0, 1.0, 1.0, 1.0]), 0.0)
        self.assertGreater(run.spread([0.8, 1.0, 1.2, 0.9, 1.1]), 0.1)

    def test_within_bound_is_not_a_regression(self):
        self.assertEqual(run.verdict(self.LOWER, [1.0] * 5, [1.09] * 5), "same")
        self.assertEqual(run.verdict(self.HIGHER, [100.0] * 5, [91.0] * 5), "same")

    def test_beyond_bound_is_a_regression_in_the_worse_direction(self):
        self.assertEqual(run.verdict(self.LOWER, [1.0] * 5, [1.11] * 5), "regressed")
        self.assertEqual(run.verdict(self.HIGHER, [100.0] * 5, [89.0] * 5), "regressed")
        self.assertEqual(run.verdict(self.LOWER, [1.0] * 5, [0.5] * 5), "improved")
        self.assertEqual(run.verdict(self.HIGHER, [100.0] * 5, [150.0] * 5), "improved")

    def test_improvement_must_exceed_parent_spread(self):
        parent = [0.7, 0.85, 1.0, 1.15, 1.3]
        self.assertEqual(run.verdict(self.LOWER, parent, [0.9] * 5), "same")


class DigestTest(unittest.TestCase):
    def test_digest_ignores_key_order_and_metrics(self):
        a = {"results": {"x": 1.5, "y": [1, 2]}, "metrics": {"t": 1}}
        b = {"results": {"y": [1, 2], "x": 1.5}}
        self.assertEqual(run.results_digest(a), run.results_digest(b))
        c = {"results": {"x": 1.5000000000000002, "y": [1, 2]}}
        self.assertNotEqual(run.results_digest(a), run.results_digest(c))

    def test_mismatch_and_nonzero_exit_count_as_failures(self):
        samples = [{"rc": 0, "digest": "d"}, {"rc": 0, "digest": "e"},
                   {"rc": 2, "digest": None}, {"rc": 0, "digest": "d"}]
        self.assertEqual(run.count_failures(samples, "d"), 2)
        self.assertEqual(run.count_failures(samples[:1], "d"), 0)


class BuildGuardTest(unittest.TestCase):
    def test_release_build_passes(self):
        self.assertEqual(run.build_problems({"CMAKE_BUILD_TYPE": "Release",
                                             "MEMOPT_SANITIZE": ""}), [])

    def test_other_sanitizer_and_coverage_builds_are_refused(self):
        for cache in ({"CMAKE_BUILD_TYPE": "Debug"}, {"CMAKE_BUILD_TYPE": ""},
                      {"CMAKE_BUILD_TYPE": "RelWithDebInfo"},
                      {"CMAKE_BUILD_TYPE": "Release", "MEMOPT_SANITIZE": "address"},
                      {"CMAKE_BUILD_TYPE": "Release", "MEMOPT_COVERAGE": "ON"},
                      {"CMAKE_BUILD_TYPE": "Release", "CMAKE_CXX_FLAGS": "-fsanitize=thread"}):
            self.assertTrue(run.build_problems(cache), cache)


class TinyWorkloadTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tools = run.build()

    def test_counting_wrapper_leaves_results_bit_identical(self):
        r = subprocess.run([str(self.tools["driver"]), "--selftest"],
                           capture_output=True, text=True)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_each_workload_end_to_end(self):
        with mock.patch.dict(run.WORKLOADS, tiny_workloads()):
            for name, w in run.WORKLOADS.items():
                with self.subTest(workload=name):
                    source = run.prepare_source(self.tools, name, 3)
                    serial = run.run_cli(self.tools, name, source, 1, "selftest")
                    parallel = run.run_cli(self.tools, name, source, 4, "selftest")
                    self.assertEqual(serial["rc"], 0)
                    self.assertEqual(serial["digest"], parallel["digest"])
                    self.assertEqual(run.count_failures([serial, parallel],
                                                        serial["digest"]), 0)
                    r = subprocess.run(
                        [str(self.tools["driver"]), "--kind", w["kind"], "--source", source,
                         "--jobs", "4", "--seconds", "0"],
                        capture_output=True, text=True)
                    self.assertEqual(r.returncode, 0, r.stderr)
                    traced = json.loads(r.stdout.strip().splitlines()[-1])
                    self.assertTrue(traced["consistent"])
                    self.assertEqual(traced["energy_pj"], serial["energy_pj"])
                    again = subprocess.run(r.args, capture_output=True, text=True)
                    counts = {k: v for k, v in traced["metrics"].items()
                              if not k.endswith(("_s", "_mb", "_access"))}
                    self.assertTrue(counts)
                    self.assertEqual(
                        counts, {k: v for k, v in json.loads(again.stdout)["metrics"].items()
                                 if k in counts})


if __name__ == "__main__":
    unittest.main()
