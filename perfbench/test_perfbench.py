#!/usr/bin/env python3
"""The benchmark's own tests: a short smoke run of every workload, and
planted faults that must fail the run.

    python3 perfbench/test_perfbench.py

Runs perfbench/run.py from the repository root (building on first use).
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seconds, trace=0, *extra):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace),
         *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"run.py failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


class Smoke(unittest.TestCase):
    def check(self, result, names):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(set(result["metrics"]), names)
        for metric in result["metrics"].values():
            self.assertIsInstance(metric["value"], (int, float))

    def test_every_workload_end_to_end(self):
        names = {m["name"] for m in SPEC["end_to_end"]}
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                result = run(workload, 1)
                self.check(result, names)
                for name in names:
                    self.assertGreater(result["metrics"][name]["value"], 0,
                                       name)

    def test_traced_run_reports_every_layer(self):
        result = run("small_open", 1, 1)
        self.check(result, {m["name"] for m in SPEC["per_layer"]})


class PlantedFaults(unittest.TestCase):
    def test_corrupted_response_byte_is_a_failure(self):
        result = run("small_open", 1, 0, "--plant-corrupt", "100")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_generator_stall_invalidates_the_run(self):
        result = run("small_open", 3, 0, "--plant-stall-ms", "1500")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
