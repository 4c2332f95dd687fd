#!/usr/bin/env python3
"""The benchmark's own test: short runs of every workload, plus a tampered
expected answer that must be counted as a failed operation.

    python3 perfbench/test_run.py          (about three minutes, builds first)
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def run(workload, trace, *extra, seconds=1, seed=7):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


class ShortRuns(unittest.TestCase):
    def check(self, workload, trace):
        code, result, stderr = run(workload, trace)
        self.assertEqual(code, 0, stderr[-3000:])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        names = [m["name"] for m in BENCH["per_layer" if trace else "end_to_end"]]
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_every_workload_end_to_end(self):
        for workload in BENCH["workloads"]:
            with self.subTest(workload=workload["name"]):
                self.check(workload["name"], 0)

    def test_every_workload_traced(self):
        for workload in BENCH["workloads"]:
            with self.subTest(workload=workload["name"]):
                self.check(workload["name"], 1)

    def test_tampered_answer_counts_as_failed(self):
        for workload in ("dblp-cold", "dblp-ingest"):
            with self.subTest(workload=workload):
                code, result, _ = run(workload, 0, "--tamper")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
