#!/usr/bin/env python3
"""The benchmark's own test.

Runs every workload at its shortest length (--seconds 1: one warm-up
and one measured iteration), untraced and traced, and checks that

  * every metric BENCHMARK.json names is emitted, with its unit, and
    nothing else;
  * the seed code scores 0 failed, and traced spans cover at least 95%
    of each iteration;
  * a forced failure (an instruction budget too small for any
    simulation to halt) is counted in failed/attempted;
  * without the simulator sources the benchmark exits non-zero and
    prints no result.

Run from the repository root:  python3 perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):

    def check_metrics(self, res, specs):
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        metrics = res["metrics"]
        self.assertEqual(sorted(metrics), sorted(m["name"] for m in specs))
        for m in specs:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"],
                             m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"],
                                  (int, float))

    def test_every_workload_emits_its_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                res = result(run(w["name"], 0))
                self.check_metrics(res, SPEC["end_to_end"])
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                for m in SPEC["end_to_end"]:
                    self.assertGreater(res["metrics"][m["name"]]["value"],
                                       0, m["name"])
            with self.subTest(workload=w["name"], trace=1):
                res = result(run(w["name"], 1))
                self.check_metrics(res, SPEC["per_layer"])
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(
                    res["metrics"]["trace.coverage_pct"]["value"], 95.0)

    def test_forced_failure_is_counted(self):
        res = result(run("lmbench_riscv", 0, "--max-insts", "1000"))
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)
        self.assertLessEqual(res["failed"], res["attempted"])

    def test_without_sources_exits_nonzero(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "lmbench_riscv", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
