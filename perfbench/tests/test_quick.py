#!/usr/bin/env python3
"""Tests of the benchmark itself, in its quick mode (small frames, short
runs; about a minute in all after the build).

    python3 perfbench/tests/test_quick.py

Checks, for every workload and both modes: exit code 0, a last line that
is one JSON object with exactly the keys correct/attempted/failed/metrics,
correct outputs with no failed operation, and every workload printing
exactly the metrics BENCHMARK.json declares for the mode (end_to_end
untraced, per_layer traced), each with its declared unit and a finite
value. Also checks that the command refuses to
run, without printing a result, where the library sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("stream", "build", "serve")


def run(workload, trace, seed=3, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class QuickModeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            cls.spec = json.load(handle)
        cls.results = {}
        for workload in WORKLOADS:
            for trace in (0, 1):
                cls.results[(workload, trace)] = run(workload, trace)

    def parsed(self, workload, trace):
        proc = self.results[(workload, trace)]
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        return result

    def test_runs_are_correct_and_complete(self):
        for (workload, trace) in self.results:
            with self.subTest(workload=workload, trace=trace):
                result = self.parsed(workload, trace)
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)

    def test_metrics_match_declarations(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in self.spec[section]}
            for workload in WORKLOADS:
                metrics = self.parsed(workload, trace)["metrics"]
                with self.subTest(workload=workload, trace=trace):
                    self.assertEqual(set(metrics), set(declared))
                for name, entry in metrics.items():
                    with self.subTest(workload=workload, metric=name):
                        self.assertEqual(entry["unit"], declared[name])
                        self.assertIsInstance(entry["value"], (int, float))

    def test_end_to_end_metrics_are_positive(self):
        for workload in WORKLOADS:
            for name, entry in self.parsed(workload, 0)["metrics"].items():
                with self.subTest(workload=workload, metric=name):
                    self.assertGreater(entry["value"], 0)

    def test_every_workload_reports_setup(self):
        for workload in WORKLOADS:
            self.assertIn("setup_s", self.parsed(workload, 0)["metrics"])

    def test_refuses_without_sources(self):
        # A scratch checkout inside the build directory: the benchmark's
        # files and BENCHMARK.json, but no library sources.
        scratch_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                         ".bench_build"))
        os.makedirs(scratch_root, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch_root) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH_DIR, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("build", 0, cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
